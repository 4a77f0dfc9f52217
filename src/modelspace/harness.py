"""Test-function corpus: kernel combinations with certified norms.

Functions are finite combinations f = sum_j alpha_j k_{w_j} of reproducing
kernels anchored in the open upper half-plane.  Such combinations admit exact
derivatives, and their tails are rational-times-unimodular with computable
leading coefficients, so p-th power mass outside a finite window can be
estimated analytically with a certified uncertainty instead of chasing slow
1/x decay with quadrature alone.

The generator is a 64-bit splitmix stream with fixed mixing constants, so
corpora reproduce bit-identically from (seed, count) across platforms.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .inner import (TWO_PI, InnerFunctionSpec, derivative_sup_norm, evaluate, phase_arrays,
                    phase_derivative, shaped_like, to_dict)

# Relative certification target for p-th power mass (interior + analytic tail).
NORM_REL_TOL = 1e-6

# Samples of one period of the periodic tail factor g, and e^{i theta} on them.
_TAIL_SAMPLES = 2048
_TAIL_WAVE = np.exp(1j * np.linspace(0.0, TWO_PI, _TAIL_SAMPLES, endpoint=False))

# Points of one Gauss-Kronrod panel, and the bytes of keys, Theta and phi'
# values and index that one panel table preallocates.
_ROW = quadrature._XK.size
_PANEL_BUDGET = 3 * 2**19

# Most samples of one window-sup sum: 48 in each delta-window over [-640, 640].
_WINDOW_SAMPLES = 2**20

# Points whose kernel terms one step of a kernel sum forms at once.
_TERM_BLOCK = 1024

# Rates c at or below this count as 0; the error of a spec whose K_Theta is {0}.
_ZERO_RATE = 1e-12
_ONLY_ZERO = "c = 0 and no zeros make Theta a unimodular constant: its model space holds only 0"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

__all__ = ["SplitMix64", "LpNormError", "DecayProfile", "KernelCombination",
           "random_model_function", "lp_norm", "derivative_lp_norm",
           "bernstein_check", "sup_sample_check", "spec_hash", "corpus_manifest"]


class LpNormError(ArithmeticError):
    """The p-th power mass cannot be certified (divergent or too slow a tail)."""


class SplitMix64:
    """Deterministic 64-bit splitmix stream.

    state advances by the golden-ratio increment; output is the standard
    30/27/31 xor-shift multiply finalizer.  uniform() maps the top 53 bits
    to [0, 1); gaussian_pair() is a Box-Muller transform of two uniforms.
    """

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_uint(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_uint() >> 11) * 2.0**-53

    def gaussian_pair(self):
        # 1 - u keeps the log argument in (0, 1]
        r = math.sqrt(-2.0 * math.log(1.0 - self.uniform()))
        ang = TWO_PI * self.uniform()
        return r * math.cos(ang), r * math.sin(ang)


@dataclass(frozen=True)
class DecayProfile:
    """Tail expansion of f (or f') on the real line, in the phase phi of Theta.

    With L(theta) = lead_a - lead_b e^{i theta} and
    L1(theta) = next_a - next_b e^{i theta}, for |x| > reach

        2 pi |x|^order |f(x)| = |L(phi(x)) + L1(phi(x)) / x + E(x)|,
        |E(x)| <= rest / (x^2 (1 - reach / |x|)^3).

    lead_* and next_* are the leading and next Laurent coefficients; reach
    is the largest modulus of an anchor or a zero of Theta.  next_scale is a
    coarser single bound: |f| deviates from |L(phi(x))| / (2 pi |x|^order)
    by at most next_scale / (2 pi |x|^{order+1}) once |x| dominates the
    anchors; the window-sup envelope and the fallback tail bound use it.
    """

    order: int
    lead_a: complex
    lead_b: complex
    next_scale: float
    next_a: complex
    next_b: complex
    rest: float
    reach: float


# Odd per-column multipliers of the panel table's row hash.
_ROW_MIX = np.array([SplitMix64(k).next_uint() | 1 for k in range(_ROW)], dtype=np.uint64)


class _PanelTable:
    """Theta and phi' of one spec at 15-point Kronrod rows, keyed by the
    exact bits of each row.

    The certified norms of one lockstep pass start from the same panels and
    only bisect them, so most rows recur; _certified_masses keeps a table for
    that pass, or shares the one a corpus command passes down to all its
    passes, only for a spec with zeros (without them Theta is one
    exponential, and a table would only cost memory).  Theta and phi' bits
    of a point do not depend on the batch it is evaluated in, so a stored
    row holds exactly what a fresh evaluation returns.  A row is stored with
    its Theta and phi' both.  A row hashes to one cell of a direct-mapped
    index with about 4 to 8 cells per stored row; a hit needs the stored key
    to match the row bit for bit.  Row 0 holds the all-zero row and every
    free cell points at it.  Keys, values and index are preallocated within
    _PANEL_BUDGET bytes.  A miss whose cell is taken, or that comes once
    every row is taken, is evaluated and not stored.
    """

    def __init__(self, spec: InnerFunctionSpec):
        self.spec = spec
        # int32 index cells take at most 1/16 of the budget, the rows the rest
        bits = max(1, (_PANEL_BUDGET // 64).bit_length() - 1)
        rows = max(2, (_PANEL_BUDGET - (4 << bits)) // (_ROW * (8 + 16 + 8)))
        self.shift = np.uint64(64 - bits)
        self.index = np.zeros(1 << bits, dtype=np.int32)
        self.keys = np.zeros((rows, _ROW), dtype=np.uint64)
        self.theta = np.empty((rows, _ROW), dtype=complex)
        self.dphi = np.empty((rows, _ROW))
        self.theta[0], self.dphi[0] = self._fresh(np.zeros((1, _ROW)))
        self.size = 1

    def _fresh(self, x: np.ndarray):
        return evaluate(self.spec, x), phase_derivative(self.spec, x)

    def values(self, x: np.ndarray):
        """(Theta, phi') at the rows of x, a C-contiguous (n, _ROW) float
        array, flattened."""
        bits = x.view(np.uint64)
        # multiplicative hash: the top bits of the wrapped products pick the cell
        cell = ((bits @ _ROW_MIX) >> self.shift).astype(np.intp)
        slot = self.index.take(cell)
        missed = (self.keys.take(slot, axis=0) != bits).any(axis=1)
        if missed.any():
            # the first miss at each free cell is stored, so a row that
            # recurs in the batch is evaluated once and hits from then on
            miss = np.flatnonzero(missed)
            miss = miss[slot[miss] == 0]
            new = miss[np.unique(cell[miss], return_index=True)[1]][:len(self.keys) - self.size]
            if new.size:
                end = self.size + new.size
                self.index[cell[new]] = np.arange(self.size, end)
                self.keys[self.size:end] = bits[new]
                self.theta[self.size:end], self.dphi[self.size:end] = self._fresh(x[new])
                self.size = end
                slot = self.index.take(cell)
                missed = (self.keys.take(slot, axis=0) != bits).any(axis=1)
        theta, dphi = self.theta.take(slot, axis=0), self.dphi.take(slot, axis=0)
        if missed.any():
            theta[missed], dphi[missed] = self._fresh(x[missed])
        return theta.reshape(-1), dphi.reshape(-1)


@dataclass(eq=False)
class KernelCombination:
    """f = sum_j coefficients[j] * k_{anchors[j]} with anchors in Im > 0."""

    spec: InnerFunctionSpec
    anchors: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=complex)
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.anchors.ndim != 1 or self.anchors.size == 0:
            raise ValueError("anchors must be a nonempty 1-d sequence")
        if self.coefficients.shape != self.anchors.shape:
            raise ValueError("coefficients and anchors must have matching length")
        if np.any(self.anchors.imag <= 0.0):
            raise ValueError("anchors must lie strictly in the upper half-plane")
        _refuse_degenerate(self.spec)
        self._wbar = np.conj(self.anchors)
        self._qbar = np.conj(evaluate(self.spec, self.anchors))
        self._drift = _phase_drift(self.spec)
        self._reach = max([float(np.max(np.abs(self.anchors)))]
                          + [abs(complex(z.re, z.im)) for z in self.spec.zeros])

    def __call__(self, z):
        """f at points of any shape; z is flattened for the kernel sums."""
        zz = np.asarray(z, dtype=complex).reshape(-1)
        return shaped_like(self._kernel_sum(zz, evaluate(self.spec, zz)), z)

    def derivative(self, x):
        """Exact derivative on the real line via Theta' = i phi' Theta, at
        points of any shape."""
        xs = np.asarray(x, dtype=float).reshape(-1)
        theta, dph = evaluate(self.spec, xs), phase_derivative(self.spec, xs)
        return shaped_like(self._kernel_sum(xs, theta, dph), x)

    def _kernel_sum(self, z: np.ndarray, theta: np.ndarray, dph=None) -> np.ndarray:
        """f at the flat points z from Theta there, or f' from Theta and phi'.

        The K x n kernel terms fill one buffer _TERM_BLOCK points at a time
        and keep their bits, as each elementwise step rounds alike at any
        position; the (1 x K) @ (K x n) product rounds by n, so a caller gets
        the bits of f on a batch only by handing that whole batch here."""
        terms = np.empty((self.anchors.size, z.size), dtype=complex)
        for lo in range(0, z.size, _TERM_BLOCK):
            at = slice(lo, lo + _TERM_BLOCK)
            den = z[None, at] - self._wbar[:, None]
            num = 1.0 - self._qbar[:, None] * theta[None, at]
            if dph is not None:
                dtheta = 1j * dph[at] * theta[at]
                num, den = -self._qbar[:, None] * dtheta[None, :] * den - num, den**2
            np.divide(num, den, out=terms[:, at])
        sums = (self.coefficients[None, :] @ terms)[0]
        return np.multiply(0.5j / math.pi, sums, out=sums)

    def _moments(self):
        """Moments s_k = sum alpha wbar^k and t_k = sum alpha qbar wbar^k, k <= 3,
        and bounds u_k = sum |alpha| (1 + |q|) |w|^k, v_k = sum |alpha| |q| |w|^k."""
        al = self.coefficients
        s = [complex(np.sum(al * self._wbar**k)) for k in range(4)]
        t = [complex(np.sum(al * self._qbar * self._wbar**k)) for k in range(4)]
        aw = np.abs(al) * np.abs(self._wbar) ** np.arange(4)[:, None]
        u = aw @ (1.0 + np.abs(self._qbar))
        v = aw @ np.abs(self._qbar)
        return s, t, u, v

    def _cancelling(self, s, t, u) -> bool:
        return max(abs(s[0]), abs(t[0])) <= 1e-9 * max(float(u[0]), 1e-300)

    def decay_profile(self) -> DecayProfile:
        # 1/(x - wbar) = sum_{k<K} wbar^k / x^{k+1} + wbar^K / (x^K (x - wbar)):
        # two terms go to lead_* and next_*, the remainder to rest
        s, t, u, _ = self._moments()
        if self._cancelling(s, t, u):
            extra = abs(s[2]) + abs(t[2]) + 2.0 * self._drift * abs(t[1])
            return DecayProfile(2, s[1], t[1], float(extra), s[2], t[2],
                                float(u[3]), self._reach)
        extra = abs(s[1]) + abs(t[1]) + 2.0 * self._drift * abs(t[0])
        return DecayProfile(1, s[0], t[0], float(extra), s[1], t[1],
                            float(u[2]), self._reach)

    def derivative_profile(self) -> DecayProfile:
        """Tail profile of f'; needs c > 0 so the leading term i c Theta survives.

        f' = (i / 2 pi) sum alpha [-i phi' qbar Theta / (x - wbar)
                                   - (1 - qbar Theta) / (x - wbar)^2]
        with 0 <= phi' - c <= drift / (|x| - reach)^2; rest collects the
        Laurent remainders of both kernel terms and the phi' - c part.
        """
        c = self.spec.c
        if c <= _ZERO_RATE:
            raise LpNormError("derivative tail certification requires exponential type c > 0")
        s, t, u, v = self._moments()
        if self._cancelling(s, t, u):
            extra = c * abs(t[2]) + 2.0 * (abs(s[1]) + abs(t[1])) \
                + 2.0 * self._drift * (1.0 + c) * abs(t[1])
            rest = c * v[3] + self._drift * v[1] + 3.0 * u[2]
            return DecayProfile(2, 0.0, 1j * c * t[1], float(extra), -2.0 * s[1],
                                1j * c * t[2] - 2.0 * t[1], float(rest), self._reach)
        if abs(t[0]) <= 1e-9 * max(float(u[0]), 1e-300):
            raise LpNormError(
                "partial moment cancellation: derivative tail has no certified leading form")
        extra = c * abs(t[1]) + abs(s[0]) + abs(t[0]) \
            + 2.0 * self._drift * (1.0 + c) * abs(t[0])
        rest = c * v[2] + self._drift * v[0] + 2.0 * u[1]
        return DecayProfile(1, 0.0, 1j * c * t[0], float(extra), -s[0],
                            1j * c * t[1] - t[0], float(rest), self._reach)


def _refuse_degenerate(spec: InnerFunctionSpec):
    """ValueError for a spec without zeros whose c is 0 or counts as 0."""
    if not spec.zeros and spec.c <= _ZERO_RATE:
        raise ValueError(_ONLY_ZERO if spec.is_degenerate else
                         f"c = {spec.c!r} is at or below the threshold {_ZERO_RATE:g} where c "
                         "counts as 0: with no zeros its model space counts as holding only 0")


def _phase_drift(spec: InnerFunctionSpec) -> float:
    """drift = 2 sum m v: 0 <= phi'(x) - c <= drift / (|x| - reach)^2 for |x| > reach."""
    return 2.0 * sum(z.mult * z.im for z in spec.zeros)


def _tail_samples(profile: DecayProfile, spec: InnerFunctionSpec, p: float) -> np.ndarray:
    """g(theta) = (|A - B e^{i theta}| / 2pi)^p on _TAIL_SAMPLES points of one period."""
    a, b = profile.lead_a, profile.lead_b
    if spec.c <= _ZERO_RATE:
        # phase freezes at tau in both tails (Blaschke swing is a multiple of 2pi)
        return np.array([(abs(a - b * np.exp(1j * spec.tau)) / TWO_PI) ** p])
    return (np.abs(a - b * _TAIL_WAVE) / TWO_PI) ** p


def _alias_bounds(la: float, lb: float, p: float, n: int):
    """(mean, coefficient) aliasing bounds for the n-point DFT of g, or None.

    g = Q^{p/2} / (2 pi)^p with Q(theta) = (A - B e^{i theta})(conj A - conj B e^{-i theta})
    is analytic in the strip |Im theta| < sigma = |log(la / lb)|, where
    Re Q > 0, and |g| <= M = (2 (la^2 + lb^2))^{p/2} / (2 pi)^p up to its
    edges, so the Fourier coefficients obey |ghat_k| <= M e^{-sigma |k|}.
    The sample mean then misses gbar by at most 2 M e^{-sigma n} / (1 - e^{-sigma n}).
    The DFT coefficients below n/2, with the ones above left out and weights
    |k|^-j <= 1, miss by at most 8 M e^{-sigma n / 2} / (1 - e^{-sigma})
    (for sigma n >= 1.1; None below, which covers la ~ lb).  A constant g
    (la lb = 0) and an even integer p (a trigonometric polynomial) alias
    nothing.  The bounds are for exact arithmetic; the DFT itself rounds at
    about eps max|g|.
    """
    if la * lb == 0.0 or p % 2.0 == 0.0:
        return 0.0, 0.0
    sigma = abs(math.log(la / lb))
    if sigma * n < 1.1:
        return None
    big = (2.0 * (la * la + lb * lb)) ** (0.5 * p) / TWO_PI**p
    return (2.0 * big * math.exp(-sigma * n) / -math.expm1(-sigma * n),
            8.0 * big * math.exp(-0.5 * sigma * n) / -math.expm1(-sigma))


def _sharp_tail_terms(g: np.ndarray, profile: DecayProfile, spec: InnerFunctionSpec,
                      p: float, radius: float):
    """Terms bounding |tail mass - gbar * 2 R^{1-m} / (m - 1)|, or None.

    On |x| > R the profile gives |f|^p = |x|^-m [g(phi) + h1(phi) / x + r(x)]
    with h1 = p |L|^{p-2} Re(conj(L) L1) / (2 pi)^p and |r| <= rho2 / x^2,
    from the second-order Taylor bound of |L + eps|^p, |eps| <= eta / |x|.
    Also phi' >= c and |phi''| <= bend / |x|^3 there.  The terms:

      boundary  one integration by parts of (g - gbar)(phi) |x|^-m, with G
                the zero-mean antiderivative of g - gbar taken from the DFT
                of the samples g, leaves the explicit end values
                R^-m [G(phi(-R)) / phi'(-R) - G(phi(R)) / phi'(R)]; their
                magnitude is the term.
      osc_rest  the integral left over holds G, which has zero mean; a
                second integration by parts (H' = G) bounds it with max|G|
                and max|H| at O(R^{-m-1}).
      laurent   the mean of h1 times 1/x cancels between the two tails; its
                oscillating part is bounded by one integration by parts, with
                the centred antiderivative G1 <= pi max|h1|.
      power     the integral of rho2 |x|^{-m-2} over both tails.
      sampling  the DFT aliasing bounds on gbar and on G(phi(+-R)); they
                are also folded into max|G|, max|H|.

    None when c = 0, R <= reach, the |.|^p expansion fails (p < 2 and
    min|L| <= eta / R, e.g. |lead_a| ~ |lead_b| at p = 1) or the aliasing
    bound is too weak.
    """
    c, big_r, n = spec.c, radius, g.size
    if c <= _ZERO_RATE or not big_r > profile.reach:
        return None
    m = p * profile.order
    la, lb = abs(profile.lead_a), abs(profile.lead_b)
    lmin, lmax = abs(la - lb), la + lb
    l1 = abs(profile.next_a) + abs(profile.next_b)
    kappa = 1.0 / (1.0 - profile.reach / big_r)
    rest = profile.rest * kappa**3
    eta = l1 + rest / big_r
    if p < 2.0:
        if not eta / big_r < lmin:
            return None
        curv = (lmin - eta / big_r) ** (p - 2.0)
    else:
        curv = (lmax + eta / big_r) ** (p - 2.0)
    aliasing = _alias_bounds(la, lb, p, n)
    if aliasing is None:
        return None
    mean_alias, alias = aliasing
    bend = 2.0 * _phase_drift(spec) * kappa**3
    k = np.arange(1, n // 2)
    coef = np.fft.rfft(g)[1:n // 2] / n
    g_max = 2.0 * float(np.sum(np.abs(coef) / k)) + alias
    h_max = 2.0 * float(np.sum(np.abs(coef) / (k * k))) + alias
    phis, dphis = phase_arrays(spec, np.array([-big_r, big_r]))
    waves = np.exp(1j * np.fmod(phis, TWO_PI)[:, None] * k)
    ends = 2.0 * (waves @ (coef / (1j * k))).real / dphis
    decay = big_r**-m
    h1_max = p * lmax ** (p - 1.0) * l1 / TWO_PI**p
    rho2 = (p * lmax ** (p - 1.0) * rest + 0.5 * p * max(1.0, p - 1.0) * curv * eta**2) \
        / TWO_PI**p
    return {
        "boundary": abs(ends[0] - ends[1]) * decay,
        "osc_rest": 2.0 * decay / (c * c * big_r) * (
            g_max * bend / ((m + 2.0) * big_r)
            + h_max * m * (2.0 + 2.0 * bend / ((m + 3.0) * c * big_r**2))),
        "laurent": 2.0 * math.pi * h1_max * decay / big_r * (
            2.0 / c + bend / ((m + 3.0) * c * c * big_r**2)),
        "power": 2.0 * rho2 * decay / (big_r * (m + 1.0)),
        "sampling": 2.0 * decay * (alias / c + mean_alias * big_r / (m - 1.0)),
    }


def _tail_uncertainty(g: np.ndarray, profile: DecayProfile, spec: InnerFunctionSpec,
                      p: float, radius: float) -> float:
    """The smaller of the sum of _sharp_tail_terms and the coarse bound.

    The coarse bound is the spread of g over periods of 2 pi / c plus a
    next-order Laurent bound built from next_scale.  It takes over where the
    sharp terms do not apply or are larger, which happens as |lead_a|
    approaches |lead_b| at p < 2 (the curvature of |.|^p and the aliasing
    of g both grow without bound there).
    """
    m = p * profile.order
    osc = 0.0
    gamp = float(g.max() - g.min())
    if spec.c > _ZERO_RATE and gamp > 0.0:
        osc = 2.0 * gamp * (TWO_PI / spec.c) * radius**-m
    lead_mag = 1.1 * (abs(profile.lead_a) + abs(profile.lead_b)) / TWO_PI
    corr = 8.0 * p * lead_mag ** (p - 1.0) * (profile.next_scale / TWO_PI) \
        * radius**-m / m
    terms = _sharp_tail_terms(g, profile, spec, p, radius)
    if terms is None:
        return osc + corr
    return min(osc + corr, sum(terms.values()))


def _mass_panels(spec: InnerFunctionSpec, radius: float) -> np.ndarray:
    """Geometric panels out to the first radius, two periods of Theta beyond.

    Past the first radius |f|^p is a slowly decaying oscillation of period
    2 pi / c.  Geometric panels there span hundreds of periods, where the
    Kronrod and Gauss rules alias alike and their difference can vanish by
    accident (two such panels at R = 32000 were each off by 1.2e-9 against
    an estimate of 3e-14), so the annulus starts from panels GK15 resolves.
    """
    first = _RADII[0]
    if radius <= first or spec.c <= _ZERO_RATE:
        return quadrature.two_sided_panels(radius, inner=16.0)
    count = int(math.ceil((radius - first) * spec.c / (2.0 * TWO_PI)))
    edges = np.linspace(first, radius, count + 1)
    right = np.column_stack([edges[:-1], edges[1:]])
    return np.vstack([-right[::-1, ::-1], quadrature.two_sided_panels(first, inner=16.0), right])


def _with_tail(res, profile: DecayProfile, spec: InnerFunctionSpec, p: float, radius: float):
    """(mass, uncertainty): the interior quadrature res on [-radius, radius]
    plus both tails as gbar * integral of |x|^-m over |x| > radius, gbar the
    periodic mean of g(theta) = (|A - B e^{i theta}| / 2pi)^p.  The
    uncertainty adds the quadrature error estimate and the tail bound of
    _tail_uncertainty; LpNormError when the samples or that bound overflow,
    or when the mass is below the smallest normal double: then |f|^p has
    underflowed, and no relative budget bounds what was lost."""
    m = p * profile.order
    try:
        with np.errstate(over="raise", invalid="raise"):
            g = _tail_samples(profile, spec, p)
            gbar = float(g.mean())
            tail = 2.0 * gbar * radius ** (1.0 - m) / (m - 1.0)
            unc = res.error_bound + _tail_uncertainty(g, profile, spec, p, radius)
    except (OverflowError, FloatingPointError):
        raise LpNormError(f"tail bound at p = {p:g} overflows at radius {radius:.0f}") from None
    mass = float(np.real(res.value)) + tail
    if mass < np.finfo(float).tiny:
        raise LpNormError(f"mass {mass:.3e} at p = {p:g} underflows at radius {radius:.0f}")
    return mass, unc


def _certified_at(mass: float, unc: float, radius: float, quad_err: float) -> bool:
    """Whether (mass, unc) at radius certifies; LpNormError when the quadrature
    error alone exceeds the budget, which no larger radius mends, or at the
    last radius, naming the quadrature error and the tail bound that unc sums."""
    if unc <= NORM_REL_TOL * mass:
        return True
    if quad_err > NORM_REL_TOL * mass:
        raise LpNormError(f"quadrature error {quad_err:.3e} exceeds the budget {NORM_REL_TOL:.0e} "
                          f"* mass {mass:.3e} at radius {radius:.0f}")
    if radius == _RADII[-1]:
        raise LpNormError(
            f"uncertainty {unc:.3e} (quadrature error {quad_err:.3e}, tail bound "
            f"{unc - quad_err:.3e}) still above {NORM_REL_TOL:.0e} * mass {mass:.3e} "
            f"at radius {_RADII[-1]:.0f}")
    return False


def _p_mass(values_fn, profile: DecayProfile, spec: InnerFunctionSpec, p: float,
            radius: float):
    """Certified integral of values_fn = |f|^p over the line: (mass,
    uncertainty, quadrature result) of _with_tail, the interior by adaptive
    quadrature on [-radius, radius] to _INTERIOR_TOL."""
    res = quadrature.integrate_panels(values_fn, _mass_panels(spec, radius), *_INTERIOR_TOL)
    return (*_with_tail(res, profile, spec, p, radius), res)


_RADII = (2000.0, 8000.0, 32000.0)

# Absolute floor and relative tolerance of the interior quadrature; the floor
# binds only for masses below 1e-290, so the tolerance is in effect relative.
_INTERIOR_TOL = (1e-300, 1e-10)


def _certified_mass(values_fn, profile, spec, p, radii=_RADII):
    """(mass, uncertainty, quadrature result, radius) at the first of radii,
    a tail of _RADII, that certifies."""
    for radius in radii:
        mass, unc, res = _p_mass(values_fn, profile, spec, p, radius)
        if _certified_at(mass, unc, radius, res.error_bound):
            return mass, unc, res, radius


def _mass_integrand(f: KernelCombination, p: float, derivative: bool):
    """(p, tail profile, |f|^p or |f'|^p at points) of a certified norm;
    ValueError unless p is finite and >= 1, LpNormError when that tail decays
    too slowly to integrate."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    profile = f.derivative_profile() if derivative else f.decay_profile()
    m = p * profile.order
    if m < 1.5:
        raise LpNormError(f"p-th power tail exponent {m:.3g} is too slow to integrate; "
                          "combinations need vanishing zeroth moments for p = 1")
    fn = f.derivative if derivative else f

    def values(x):
        return _power(fn(x), p, derivative)

    return p, profile, values


def _power(sums: np.ndarray, p: float, derivative: bool) -> np.ndarray:
    """|sums|^p, a norm's interior integrand; LpNormError naming p on overflow."""
    try:
        with np.errstate(over="raise"):
            return np.abs(sums) ** p
    except FloatingPointError:
        name = "|f'|^p" if derivative else "|f|^p"
        raise LpNormError(f"interior integrand {name} at p = {p:g} overflows") from None


def _certified_norm(f: KernelCombination, p: float, derivative: bool):
    """(norm, uncertainty): the certified L^p norm of f, or of f' when
    derivative is set, and the bound on its p-th power mass left out."""
    p, profile, values = _mass_integrand(f, p, derivative)
    mass, unc, _, _ = _certified_mass(values, profile, f.spec, p)
    return mass ** (1.0 / p), unc


def _panel_table(spec: InnerFunctionSpec):
    """A panel table for spec's lockstep passes, or None for a zero-free spec."""
    return _PanelTable(spec) if spec.zeros else None


def _certified_masses(items, table=None) -> list:
    """(mass, uncertainty, radius) of _certified_mass for each (f, p,
    derivative) item, with its bits, or the exception it raises; the items
    share one spec.  All are integrated at the first radius in one lockstep
    quadrature, and any that does not certify there goes on to the later
    radii of _certified_mass.
    Theta and phi' come once per group of rows, from table, the panel table
    of the items' spec that a corpus command shares between its passes, or
    else from one that lives for this pass if the spec has zeros (a
    zero-free Theta is one exponential, which a table would only cost
    memory to store); the kernel sums, which round by batch, run on each
    integral's own rows.
    """
    spec = items[0][0].spec if items else None
    if any(f.spec != spec for f, _, _ in items):
        raise ValueError("certified masses of one pass need a common spec")
    if table is None and items:
        table = _panel_table(spec)
    out, setups = [None] * len(items), {}
    for k, (f, p, derivative) in enumerate(items):
        try:
            setups[k] = _mass_integrand(f, p, derivative)
        except (ValueError, ArithmeticError) as exc:
            out[k] = exc

    def rows(keys, counts, x):
        flat = x.reshape(-1)
        theta, dphi = table.values(x) if table else (evaluate(spec, flat),
                                                     phase_derivative(spec, flat))
        vals = np.empty(flat.size)
        start = 0
        for k, count in zip(keys, counts):
            f, _, derivative = items[k]
            end = start + count * _ROW
            sums = f._kernel_sum(flat[start:end], theta[start:end],
                                 dphi[start:end] if derivative else None)
            try:
                vals[start:end] = _power(sums, setups[k][0], derivative)
            except LpNormError as exc:  # fails as alone; a zero integrand ends it
                out[k], vals[start:end] = exc, 0.0
            start = end
        return vals

    panels = _mass_panels(spec, _RADII[0])  # one layout for every job; _lockstep only reads it
    jobs = ((k, panels) for k in setups)
    for k, res in quadrature._lockstep(jobs, rows, *_INTERIOR_TOL):
        if out[k] is not None:
            continue
        p, profile, values = setups[k]
        radius = _RADII[0]
        try:
            mass, unc = _with_tail(res, profile, spec, p, radius)
            if not _certified_at(mass, unc, radius, res.error_bound):
                mass, unc, _, radius = _certified_mass(values, profile, spec, p, _RADII[1:])
            out[k] = (mass, unc, radius)
        except (ValueError, ArithmeticError) as exc:
            out[k] = exc
    return out


def _corpus_norms(items, table=None):
    """(norm, uncertainty) of each (f, p, derivative) item in turn, certified
    in one lockstep pass that reads Theta and phi' through table (see
    _certified_masses); reaching an item that failed raises its error."""
    for (_, p, _), outcome in zip(items, _certified_masses(items, table)):
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome[0] ** (1.0 / float(p)), outcome[1]


def lp_norm(f: KernelCombination, p: float) -> float:
    """Certified L^p norm of the combination over the real line."""
    return _certified_norm(f, p, derivative=False)[0]


def derivative_lp_norm(f: KernelCombination, p: float) -> float:
    """Certified L^p norm of the combination's derivative over the real line."""
    return _certified_norm(f, p, derivative=True)[0]


def bernstein_check(f: KernelCombination, p: float):
    """(‖f'‖_p, sup|Theta'| * ‖f‖_p); the first must not exceed the second."""
    return next(_bernstein_checks([f], [p]))


def _bernstein_checks(funcs, ps, table=None):
    """bernstein_check's pair for each p and then each member in turn.  Every
    norm is certified in one lockstep pass through table, f' before f, and a
    failure raises where checking one at a time meets it first."""
    norms = _corpus_norms([(f, p, derivative) for p in ps for f in funcs
                           for derivative in (True, False)], table)
    for _ in ps:
        for f in funcs:
            (dnorm, _), (norm, _) = next(norms), next(norms)
            yield dnorm, derivative_sup_norm(f.spec) * norm


def random_model_function(spec: InnerFunctionSpec, count: int, seed: int) -> KernelCombination:
    """Seed-deterministic combination with unit L^2 norm.

    Anchors are uniform over Re in [-5, 5], Im in [0.2, 3]; coefficients are
    complex Gaussians.  With count >= 3 the coefficients are projected onto
    the subspace with vanishing zeroth moments, which upgrades the tail from
    1/x to 1/x^2 and puts the combination in every L^p class down to p = 1.
    """
    for cand in _draws(spec, count, seed):
        norm = lp_norm(cand, 2.0)
        if norm > 1e-8:
            return KernelCombination(spec=spec, anchors=cand.anchors,
                                     coefficients=cand.coefficients / norm)


def _draws(spec: InnerFunctionSpec, count: int, seed: int):
    """The candidates of random_model_function in stream order; degenerate
    draws continue the same stream, so results stay seed-pure."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    _refuse_degenerate(spec)
    rng = SplitMix64(seed)
    while True:
        anchors = np.empty(count, dtype=complex)
        for j in range(count):
            re = -5.0 + 10.0 * rng.uniform()
            im = 0.2 + 2.8 * rng.uniform()
            anchors[j] = complex(re, im)
        coeffs = np.array([complex(*rng.gaussian_pair()) for _ in range(count)])
        if count >= 3:
            qbar = np.conj(evaluate(spec, anchors))
            cons = np.vstack([np.ones(count, dtype=complex), qbar])
            gram = cons @ cons.conj().T
            coeffs = coeffs - cons.conj().T @ np.linalg.solve(gram, cons @ coeffs)
        if np.sum(np.abs(coeffs)) > 1e-6:
            yield KernelCombination(spec=spec, anchors=anchors, coefficients=coeffs)


def _random_model_functions(spec: InnerFunctionSpec, count: int, seeds, table=None) -> list:
    """random_model_function at each seed, the first candidates' L^2 norms
    certified in one lockstep pass through table; a member whose first
    candidate is degenerate draws on alone."""
    firsts = [next(_draws(spec, count, seed)) for seed in seeds]
    norms = _corpus_norms([(f, 2.0, False) for f in firsts], table)
    return [KernelCombination(spec=spec, anchors=f.anchors, coefficients=f.coefficients / norm)
            if norm > 1e-8 else random_model_function(spec, count, seed)
            for seed, f, (norm, _) in zip(seeds, firsts, norms)]


def sup_sample_check(f: KernelCombination, delta: float, p: float):
    """Window-sup sum versus the norm/derivative budget.

    left  = (sum_k sup over [k delta, (k+1) delta) of |f|^p)^{1/p}, interior
    windows estimated by dense sampling and the far windows bounded by the
    tail envelope (over-counting, which only strengthens the check);
    right = delta^{-1/p} ‖f‖_p + delta^{1-1/p} ‖f'‖_p.
    """
    return next(_sup_sample_checks([f], [delta], [p]))


def _sup_sample_checks(funcs, deltas, ps, table=None):
    """(left, right) of sup_sample_check for each member, delta and distinct
    p in turn.  Each ‖f‖_p and ‖f'‖_p is certified once, all in one lockstep
    pass through table, |f| is sampled once per member and delta, and a
    failure raises where checking one at a time meets it first."""
    ps = list(dict.fromkeys(float(p) for p in ps))
    norms = _corpus_norms([(f, p, derivative) for f in funcs for p in ps
                           for derivative in (False, True)], table)
    for f in funcs:
        budget = {}
        for delta in map(float, deltas):
            lefts = _window_sup_sums(f, delta, ps)
            for p in ps:
                left = next(lefts)
                if p not in budget:
                    budget[p] = next(norms)[0], next(norms)[0]
                norm, dnorm = budget[p]
                yield left, delta ** (-1.0 / p) * norm + delta ** (1.0 - 1.0 / p) * dnorm


# the window-sup sum samples |f| 48 times in each window of [-640, 640] and
# bounds the windows beyond by the tail envelope
_HULL, _PER_WINDOW = 640.0, 48


def _window_count(delta: float) -> int:
    """Windows on each side of the window-sup sample grid at delta; ValueError
    when the grid needs more than _WINDOW_SAMPLES samples or overflows."""
    windows = _HULL / delta  # infinite for a subnormal delta
    k0 = max(2, math.ceil(windows)) if windows < math.inf else math.inf
    if 2 * k0 * _PER_WINDOW > _WINDOW_SAMPLES:
        raise ValueError(f"window-sup sum at delta = {delta!r} needs {2 * k0 * _PER_WINDOW} "
                         f"samples, more than {_WINDOW_SAMPLES}")
    if not 2.0 * k0 * delta < math.inf:
        raise ValueError(f"window-sup sum at delta = {delta!r} overflows its sample grid")
    return k0


def _window_sup_sums(f: KernelCombination, delta: float, ps):
    """The left side of sup_sample_check at each p of ps in turn, from one
    sampling of |f| on delta's grid, taken when the first p needs it.  For
    each p: ValueError before any sampling when it needs more than
    _WINDOW_SAMPLES samples or its sample grid overflows, LpNormError when a
    p-th power overflows."""
    fx = None
    for p in ps:
        if not (0.0 < delta < math.inf and 1.0 <= p < math.inf):
            raise ValueError("delta must be positive and p >= 1, both finite")
        profile = f.decay_profile()
        m = p * profile.order
        if m < 1.5:
            raise LpNormError("window-sup sum needs an integrable tail exponent")
        k0, per = _window_count(delta), _PER_WINDOW
        if fx is None:
            fx = np.abs(f(-k0 * delta + np.arange(2 * k0 * per) * (delta / per)))
        env = 1.05 * (abs(profile.lead_a) + abs(profile.lead_b)
                      + profile.next_scale / _HULL) / TWO_PI
        try:
            with np.errstate(over="raise", invalid="raise"):
                interior = float((fx**p).reshape(2 * k0, per).max(axis=1).sum())
            tail = 2.0 * env**p * delta**-m * (k0 - 1.0) ** (1.0 - m) / (m - 1.0)
        except (OverflowError, FloatingPointError):
            raise LpNormError(f"window-sup sum at p = {p:g} and delta = {delta!r} "
                              "overflows") from None
        yield (interior + tail) ** (1.0 / p)


def spec_hash(spec: InnerFunctionSpec) -> str:
    blob = json.dumps(to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def corpus_manifest(spec: InnerFunctionSpec, seed: int, count: int, size: int) -> dict:
    """Reproducibility record for a generated corpus (JSON-ready)."""
    return {
        "generator": "splitmix64",
        "seed": int(seed),
        "count": int(count),
        "size": int(size),
        "inner": to_dict(spec),
        "spec_hash": spec_hash(spec),
    }
