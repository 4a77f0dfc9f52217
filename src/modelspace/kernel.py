"""Reproducing kernels and sinc-family smoothing kernels.

The reproducing kernel anchored at z for the space attached to an inner
function Theta is

    k_z(w) = (i / 2pi) * (1 - conj(Theta(z)) * Theta(w)) / (w - conj(z)),

with squared norm phi'(x) / 2pi on the real axis.  The sinc-family kernels
implement oversampled band-limited interpolation: a band edge c widened by a
power-N smoothing window of half-width a gives total band b = c + 2Na and a
per-sample kernel decaying like |t|^(-N-1).

Also provided: quadrature evaluation of the squared-sinc product integrals
used by the embedding certificates, with their closed-form upper bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .inner import TWO_PI, InnerFunctionSpec, evaluate, phase_derivative, shaped_like

__all__ = [
    "DegenerateDiagonalError",
    "SincKernelSpec",
    "sinc",
    "xi",
    "reproducing_kernel",
    "kernel_norm_sq",
    "pw_oversample_kernel",
    "xi_product_integral",
    "xi_power_product_integral",
    "higher_power_bound",
]


class DegenerateDiagonalError(ValueError):
    """Raised for a real-real diagonal kernel call; use kernel_norm_sq."""


def sinc(t):
    """sin(t)/t with the removable singularity filled by a Taylor stub.

    Accepts scalars or ndarrays.  Below |t| < 1e-4 the cubic Taylor polynomial
    1 - t^2/6 + t^4/120 is exact to double precision and avoids 0/0.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    small = np.abs(arr) < 1e-4
    safe = np.where(small, 1.0, arr)
    out = np.sin(safe) / safe
    if small.any():
        tiny = arr[small]
        s2 = tiny * tiny
        out[small] = 1.0 - s2 / 6.0 + s2 * s2 / 120.0
    return shaped_like(out, t)


# Canonical smoothing profile: |xi(t)| <= min(1, 1/|t|) everywhere.
xi = sinc


@dataclass(frozen=True)
class SincKernelSpec:
    """Oversampled sinc interpolation kernel parameters.

    power: smoothing order N >= 0 (N = 0 recovers plain Shannon).
    a: half-width of each smoothing factor, > 0.
    c: band edge of the functions being reconstructed, > 0.
    """

    power: int
    a: float
    c: float

    def __post_init__(self):
        if not isinstance(self.power, int) or isinstance(self.power, bool):
            raise TypeError(f"power must be an int, got {self.power!r}")
        if self.power < 0:
            raise ValueError(f"power must be >= 0, got {self.power}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "c", float(self.c))
        if not self.a > 0.0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if not self.c > 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")

    @property
    def b(self) -> float:
        """Total band of the interpolation kernel: c + 2*power*a."""
        return self.c + 2.0 * self.power * self.a


def reproducing_kernel(spec: InnerFunctionSpec, z, w):
    """Kernel k_z evaluated at w; w may be a scalar or an ndarray.

    Both arguments must have nonnegative imaginary part.  The real-real
    diagonal z == w is rejected: the 0/0 limit there equals kernel_norm_sq
    and callers must use that instead.
    """
    zz = complex(z)
    ww = np.asarray(w, dtype=complex)
    if zz.imag < 0.0 or np.any(ww.imag < 0.0):
        raise ValueError("kernel arguments must satisfy Im >= 0")
    if zz.imag == 0.0:
        hit = (ww.imag == 0.0) & (ww.real == zz.real)
        if np.any(hit):
            raise DegenerateDiagonalError(
                f"kernel diagonal at real point {zz.real}; use kernel_norm_sq")
    qz = np.conj(evaluate(spec, zz))
    num = 1.0 - qz * evaluate(spec, ww)
    den = ww - np.conj(zz)
    out = (0.5j / math.pi) * num / den
    return shaped_like(out, w)


def kernel_norm_sq(spec: InnerFunctionSpec, x):
    """Squared norm of the kernel anchored at real x: phase derivative / 2pi."""
    arr = np.asarray(x, dtype=float)
    out = phase_derivative(spec, arr) / TWO_PI
    return shaped_like(out, x)


def pw_oversample_kernel(kspec: SincKernelSpec, t):
    """Per-sample interpolation kernel ((c+Na)/b) * sinc(at)^N * sinc((c+Na)t).

    The prefactor (c+Na)/b makes the kernel's transform equal 1/(2b) times
    the smoothing window on the band, which is the constant that actually
    reproduces band-c functions from spacing-pi/b samples; with power = 0 it
    collapses to sinc(ct).
    """
    arr = np.asarray(t, dtype=float)
    edge = kspec.c + kspec.power * kspec.a
    out = (edge / kspec.b) * sinc(kspec.a * arr) ** kspec.power * sinc(edge * arr)
    return shaped_like(out, t)


def xi_product_integral(a: float, b: float) -> float:
    """Integral of sinc^2(x-a) * sinc^2(x-b) over the line.

    Evaluated by adaptive quadrature on [min(a,b)-R, max(a,b)+R] with
    R = 1900.  Beyond that window both factors are bounded by their distance
    to the nearer shift, so each omitted tail is at most 2/(3 R^3) < 1e-10.
    Raises QuadratureError when the quadrature falls short of 5e-10.
    """
    return _xi_integrals([(a, b)], 1)[0]


def xi_power_product_integral(a: float, b: float, m: int) -> float:
    """Integral of sinc^{2m}(x-a) * sinc^{2m}(x-b) for m >= 2.

    The integrand decays like |x|^(-4m), so a radius of 40 keeps each tail
    below R^(1-4m)/(4m-1) < 1e-11.  Raises QuadratureError when the
    quadrature falls short of 1e-9.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    return _xi_integrals([(a, b)], m)[0]


def _xi_integrals(pairs, m: int) -> list:
    """xi_product_integral (m = 1) or xi_power_product_integral at each
    (a, b) of pairs, in one lockstep quadrature that gives each value the
    bits it has alone (the integrand is elementwise); raises the
    QuadratureError of the first pair that falls short."""
    what, radius, abs_tol = (("xi_product_integral", 1900.0, 5e-10) if m == 1
                             else ("xi_power_product_integral", 40.0, 1e-9))
    ends = np.array(pairs, dtype=float).reshape(-1, 2)
    k = 2 * m

    def rows(keys, counts, x):
        reps = np.asarray(counts) * x.shape[1]
        return (sinc(x.ravel() - np.repeat(ends[keys, 0], reps)) ** k
                * sinc(x.ravel() - np.repeat(ends[keys, 1], reps)) ** k)

    mids, halves = 0.5 * (ends[:, 0] + ends[:, 1]), 0.5 * np.abs(ends[:, 1] - ends[:, 0])
    jobs = ((i, mid + quadrature.two_sided_panels(half + radius, inner=half + 20.0))
            for i, (mid, half) in enumerate(zip(mids, halves)))
    done = dict(quadrature._lockstep(jobs, rows, abs_tol))
    return [float(done[i].require_converged(what).value) for i in range(len(ends))]


# sqrt(pi) * 2^(2m+1) * Gamma(m - 1/2) / Gamma(m), reduced to rational
# multiples of pi for the supported orders.
_HIGHER_POWER_CONST = {2: 16.0 * math.pi, 3: 48.0 * math.pi}


def higher_power_bound(m: int, gap: float) -> float:
    """Closed-form upper bound for xi_power_product_integral at separation gap."""
    try:
        const = _HIGHER_POWER_CONST[m]
    except (KeyError, TypeError):
        raise ValueError(f"unsupported power m={m!r}; supported: {sorted(_HIGHER_POWER_CONST)}")
    g = float(gap)
    return const / (1.0 + g * g) ** m
