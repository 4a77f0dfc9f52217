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
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .inner import (TWO_PI, InnerFunctionSpec, derivative_sup_norm, evaluate, phase,
                    phase_arrays, phase_derivative, to_dict)

# Relative certification target for p-th power mass (interior + analytic tail).
NORM_REL_TOL = 1e-6

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

__all__ = ["SplitMix64", "LpNormError", "DecayProfile", "KernelCombination",
           "GridFunction", "random_model_function", "lp_norm", "derivative",
           "derivative_lp_norm", "bernstein_check", "sup_sample_check",
           "cont_formula_derivative", "to_grid_function", "hardy_kernel",
           "spec_hash", "corpus_manifest"]


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

    def complex_gaussian(self) -> complex:
        re, im = self.gaussian_pair()
        return complex(re, im)


@dataclass(frozen=True)
class DecayProfile:
    """Leading tail behavior |f(x)| ~ |lead_a - lead_b e^{i phi(x)}| / (2 pi |x|^order).

    next_scale bounds the next Laurent coefficient plus the drift of the
    Blaschke phase, so the modulus deviates from the leading form by at most
    next_scale / (2 pi |x|^{order+1}) once |x| dominates the anchors.
    """

    order: int
    lead_a: complex
    lead_b: complex
    next_scale: float


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
        self._wbar = np.conj(self.anchors)
        self._qbar = np.conj(evaluate(self.spec, self.anchors))
        # 2 * sum(mult * im): scale of the Blaschke phase still unwinding at |x|
        self._drift = 2.0 * sum(z.mult * z.im for z in self.spec.zeros)

    def __call__(self, z):
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        theta = evaluate(self.spec, zz)
        num = 1.0 - self._qbar[:, None] * theta[None, :]
        den = zz[None, :] - self._wbar[:, None]
        out = (0.5j / math.pi) * (self.coefficients[None, :] @ (num / den))[0]
        if np.ndim(z) == 0:
            return complex(out[0])
        return out.reshape(np.shape(z))

    def derivative(self, x):
        """Exact derivative on the real line via Theta' = i phi' Theta."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        dph = phase_derivative(self.spec, xs)
        theta = evaluate(self.spec, xs)
        dtheta = 1j * dph * theta
        den = xs[None, :] - self._wbar[:, None]
        num = 1.0 - self._qbar[:, None] * theta[None, :]
        terms = (-self._qbar[:, None] * dtheta[None, :] * den - num) / den**2
        out = (0.5j / math.pi) * (self.coefficients[None, :] @ terms)[0]
        if np.ndim(x) == 0:
            return complex(out[0])
        return out.reshape(np.shape(x))

    def _moments(self, k_max: int = 3):
        al = self.coefficients
        s = [complex(np.sum(al * self._wbar**k)) for k in range(k_max + 1)]
        t = [complex(np.sum(al * self._qbar * self._wbar**k)) for k in range(k_max + 1)]
        scale = float(np.sum(np.abs(al) * (1.0 + np.abs(self._qbar))))
        return s, t, scale

    def is_cancelling(self) -> bool:
        """True when both zeroth moments vanish, giving 1/x^2 tail decay."""
        s, t, scale = self._moments(0)
        return max(abs(s[0]), abs(t[0])) <= 1e-9 * max(scale, 1e-300)

    def decay_profile(self) -> DecayProfile:
        s, t, scale = self._moments()
        if max(abs(s[0]), abs(t[0])) <= 1e-9 * max(scale, 1e-300):
            extra = abs(s[2]) + abs(t[2]) + 2.0 * self._drift * abs(t[1])
            return DecayProfile(2, s[1], t[1], float(extra))
        extra = abs(s[1]) + abs(t[1]) + 2.0 * self._drift * abs(t[0])
        return DecayProfile(1, s[0], t[0], float(extra))

    def derivative_profile(self) -> DecayProfile:
        """Tail profile of f'; needs c > 0 so the leading term i c Theta survives."""
        c = self.spec.c
        if c <= 1e-12:
            raise LpNormError("derivative tail certification requires exponential type c > 0")
        s, t, scale = self._moments()
        scale = max(scale, 1e-300)
        if max(abs(s[0]), abs(t[0])) <= 1e-9 * scale:
            extra = c * abs(t[2]) + 2.0 * (abs(s[1]) + abs(t[1])) \
                + 2.0 * self._drift * (1.0 + c) * abs(t[1])
            return DecayProfile(2, 0.0, 1j * c * t[1], float(extra))
        if abs(t[0]) <= 1e-9 * scale:
            raise LpNormError(
                "partial moment cancellation: derivative tail has no certified leading form")
        extra = c * abs(t[1]) + abs(s[0]) + abs(t[0]) \
            + 2.0 * self._drift * (1.0 + c) * abs(t[0])
        return DecayProfile(1, 0.0, 1j * c * t[0], float(extra))


def hardy_kernel(w: complex, x):
    """Unprojected half-plane kernel (i/2pi)/(x - conj(w)); test probe only."""
    ww = complex(w)
    xs = np.asarray(x, dtype=complex)
    out = (0.5j / math.pi) / (xs - np.conj(ww))
    if np.ndim(x) == 0:
        return complex(out)
    return out


def _tail_profile_stats(profile: DecayProfile, spec: InnerFunctionSpec, p: float):
    """Mean, max and spread of g(theta) = (|A - B e^{i theta}| / 2pi)^p."""
    a, b = profile.lead_a, profile.lead_b
    if spec.c <= 1e-12:
        # phase freezes at tau in both tails (Blaschke swing is a multiple of 2pi)
        g = float((abs(a - b * np.exp(1j * spec.tau)) / TWO_PI) ** p)
        return g, g, 0.0
    theta = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    g = (np.abs(a - b * np.exp(1j * theta)) / TWO_PI) ** p
    return float(g.mean()), float(g.max()), float(g.max() - g.min())


def _probe_exponent(values_fn, radius: float) -> float:
    x1, x2 = 40.0 * radius, 400.0 * radius
    v1 = float(values_fn(np.array([x1]))[0]) + 1e-300
    v2 = float(values_fn(np.array([x2]))[0]) + 1e-300
    return math.log(v1 / v2) / math.log(x2 / x1)


def _p_mass(values_fn, profile: DecayProfile, spec: InnerFunctionSpec, p: float,
            radius: float, keep_panels: bool = False):
    """Certified integral of values_fn = |f|^p over the line.

    Interior by adaptive quadrature on [-radius, radius]; both tails from the
    decay profile.  Returns (mass, uncertainty, quadrature result), where
    uncertainty adds the quadrature error estimate, the oscillation remainder
    of the periodic tail factor, and the next-order Laurent correction.
    """
    m = p * profile.order
    if m < 1.5:
        measured = _probe_exponent(values_fn, radius)
        raise LpNormError(
            f"p-th power tail exponent {m:.3g} (measured {measured:.3g}) is too "
            "slow to integrate; combinations need vanishing zeroth moments for p = 1")
    panels = quadrature.two_sided_panels(radius, inner=16.0)
    rough = quadrature.integrate_panels(values_fn, panels, abs_tol=math.inf)
    abs_tol = max(1e-13, 1e-10 * abs(float(np.real(rough.value))))
    res = quadrature.integrate_panels(values_fn, panels, abs_tol, keep_panels=keep_panels)
    interior = float(np.real(res.value))
    gbar, gmax, gamp = _tail_profile_stats(profile, spec, p)
    tail = 2.0 * gbar * radius ** (1.0 - m) / (m - 1.0)
    osc = 0.0
    if spec.c > 1e-12 and gamp > 0.0:
        osc = 2.0 * gamp * (TWO_PI / spec.c) * radius**-m
    lead_mag = 1.1 * (abs(profile.lead_a) + abs(profile.lead_b)) / TWO_PI
    corr = 8.0 * p * lead_mag ** (p - 1.0) * (profile.next_scale / TWO_PI) \
        * radius**-m / m
    unc = res.error_bound + osc + corr
    return interior + tail, unc, res


_RADII = (2000.0, 8000.0, 32000.0)


def _certified_mass(values_fn, profile, spec, p, keep_panels=False):
    last = None
    for radius in _RADII:
        mass, unc, res = _p_mass(values_fn, profile, spec, p, radius, keep_panels)
        if unc <= NORM_REL_TOL * mass:
            return mass, unc, res, radius
        last = (mass, unc)
    raise LpNormError(
        f"tail uncertainty {last[1]:.3e} still above {NORM_REL_TOL:.0e} * mass "
        f"{last[0]:.3e} at radius {_RADII[-1]:.0f}")


def lp_norm(f: KernelCombination, p: float) -> float:
    """Certified L^p norm of the combination over the real line."""
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    profile = f.decay_profile()

    def values(x):
        return np.abs(f(x)) ** p

    mass, _, _, _ = _certified_mass(values, profile, f.spec, p)
    return mass ** (1.0 / p)


def derivative(f: KernelCombination, x):
    return f.derivative(x)


def derivative_lp_norm(f: KernelCombination, p: float) -> float:
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    profile = f.derivative_profile()

    def values(x):
        return np.abs(f.derivative(x)) ** p

    mass, _, _, _ = _certified_mass(values, profile, f.spec, p)
    return mass ** (1.0 / p)


def bernstein_check(f: KernelCombination, p: float):
    """(‖f'‖_p, sup|Theta'| * ‖f‖_p); the first must not exceed the second."""
    return derivative_lp_norm(f, p), derivative_sup_norm(f.spec) * lp_norm(f, p)


def random_model_function(spec: InnerFunctionSpec, count: int, seed: int) -> KernelCombination:
    """Seed-deterministic combination with unit L^2 norm.

    Anchors are uniform over Re in [-5, 5], Im in [0.2, 3]; coefficients are
    complex Gaussians.  With count >= 3 the coefficients are projected onto
    the subspace with vanishing zeroth moments, which upgrades the tail from
    1/x to 1/x^2 and puts the combination in every L^p class down to p = 1.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    rng = SplitMix64(seed)
    while True:
        anchors = np.empty(count, dtype=complex)
        for j in range(count):
            re = -5.0 + 10.0 * rng.uniform()
            im = 0.2 + 2.8 * rng.uniform()
            anchors[j] = complex(re, im)
        coeffs = np.array([rng.complex_gaussian() for _ in range(count)])
        if count >= 3:
            qbar = np.conj(evaluate(spec, anchors))
            cons = np.vstack([np.ones(count, dtype=complex), qbar])
            gram = cons @ cons.conj().T
            coeffs = coeffs - cons.conj().T @ np.linalg.solve(gram, cons @ coeffs)
        if np.sum(np.abs(coeffs)) > 1e-6:
            cand = KernelCombination(spec=spec, anchors=anchors, coefficients=coeffs)
            norm = lp_norm(cand, 2.0)
            if norm > 1e-8:
                return KernelCombination(spec=spec, anchors=anchors,
                                         coefficients=coeffs / norm)
        # degenerate draw; continue the same stream so results stay seed-pure


def sup_sample_check(f: KernelCombination, delta: float, p: float):
    """Window-sup sum versus the norm/derivative budget.

    left  = (sum_k sup over [k delta, (k+1) delta) of |f|^p)^{1/p}, interior
    windows estimated by dense sampling and the far windows bounded by the
    tail envelope (over-counting, which only strengthens the check);
    right = delta^{-1/p} ‖f‖_p + delta^{1-1/p} ‖f'‖_p.
    """
    delta = float(delta)
    p = float(p)
    if delta <= 0.0 or p < 1.0:
        raise ValueError("delta must be positive and p >= 1")
    profile = f.decay_profile()
    m = p * profile.order
    if m < 1.5:
        raise LpNormError("window-sup sum needs an integrable tail exponent")
    hull = 640.0
    k0 = max(2, int(math.ceil(hull / delta)))
    per = 48
    xs = -k0 * delta + np.arange(2 * k0 * per) * (delta / per)
    vals = (np.abs(f(xs)) ** p).reshape(2 * k0, per)
    interior = float(vals.max(axis=1).sum())
    env = 1.05 * (abs(profile.lead_a) + abs(profile.lead_b)
                  + profile.next_scale / hull) / TWO_PI
    tail = 2.0 * env**p * delta**-m * (k0 - 1.0) ** (1.0 - m) / (m - 1.0)
    left = (interior + tail) ** (1.0 / p)
    right = delta ** (-1.0 / p) * lp_norm(f, p) \
        + delta ** (1.0 - 1.0 / p) * derivative_lp_norm(f, p)
    return left, right


def cont_formula_derivative(f: KernelCombination, x: float, radius: float = 800.0,
                            abs_tol: float = 1e-8) -> complex:
    """Derivative via the boundary-integral identity
    f'(x) = 2 pi i * integral of f(t) k_t(x)^2 dt over the line;
    kept as a cross-check of the analytic route.

    Note k_t(x) = conj(k_x(t)), so the integrand pairs f against a
    conjugate-analytic square; conjugating the kernel factor instead would
    make the whole integrand analytic in the upper half-plane and the
    integral collapse to zero.  The kernel is evaluated in phase form
    -expm1(i(phi(x)-phi(t)))/(2 pi i (x-t)) so the near-diagonal
    cancellation costs no precision.
    """
    x = float(x)
    spec = f.spec
    px = phase(spec, x)

    def integrand(t):
        pt, _ = phase_arrays(spec, t)
        diff = x - t
        near = np.abs(diff) < 1e-12
        safe = np.where(near, 1.0, diff)
        k = (-0.5j / math.pi) * np.expm1(1j * (px.value - pt)) / safe
        k = np.where(near, px.derivative / TWO_PI, k)
        return f(t) * k ** 2

    panels = x + quadrature.two_sided_panels(radius, inner=16.0)
    res = quadrature.integrate_panels(integrand, panels, abs_tol)
    return complex(2j * math.pi * res.value)


@dataclass(eq=False)
class GridFunction:
    """Sampled |.|^p-certified function on a quadrature grid.

    nodes/weights reproduce the interior integral of |f|^p as a dot product;
    tail_bound is the certified bound on mass unaccounted for by
    norm**p (quadrature error + tail estimate uncertainty).  origin, when
    present, is the generating callable for off-grid evaluation.
    """

    domain: tuple
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    p: float
    norm: float
    tail_bound: float
    origin: KernelCombination | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if not (self.nodes.size == self.weights.size == self.values.size):
            raise ValueError("nodes, weights, values must have equal length")
        if not self.norm >= 0.0:
            raise ValueError("norm must be nonnegative")

    def evaluate(self, x):
        if self.origin is None:
            raise ValueError("grid function has no attached generator for off-grid points")
        return self.origin(x)


def to_grid_function(f: KernelCombination, p: float, meta: dict | None = None) -> GridFunction:
    """Freeze a combination into a GridFunction with certified L^p norm."""
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    profile = f.decay_profile()

    def values_fn(x):
        return np.abs(f(x)) ** p

    mass, unc, res, radius = _certified_mass(values_fn, profile, f.spec, p, keep_panels=True)
    nodes, weights = quadrature.panel_nodes_weights(res.panels)
    return GridFunction(domain=(-radius, radius), nodes=nodes, weights=weights,
                        values=f(nodes), p=p, norm=mass ** (1.0 / p),
                        tail_bound=unc, origin=f, meta=dict(meta or {}))


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
