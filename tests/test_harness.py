"""Corpus generation, certified L^p norms and derivative identities."""
import math

import numpy as np
import pytest

import oracles
from modelspace import quadrature
from modelspace.harness import (
    NORM_REL_TOL,
    GridFunction,
    KernelCombination,
    LpNormError,
    SplitMix64,
    bernstein_check,
    cont_formula_derivative,
    corpus_manifest,
    derivative_lp_norm,
    hardy_kernel,
    lp_norm,
    random_model_function,
    spec_hash,
    sup_sample_check,
    to_grid_function,
)
from modelspace.harness import _p_mass
from modelspace.inner import BlaschkeZero, InnerFunctionSpec, evaluate
from modelspace.kernel import reproducing_kernel

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------------ generator

def test_splitmix_reference_stream():
    # first outputs of the 30/27/31 finalizer stream from a zero seed
    rng = SplitMix64(0)
    assert rng.next_uint() == 0xE220A8397B1DCDAF
    assert rng.next_uint() == 0x6E789E6AA1B965F4
    assert rng.next_uint() == 0x06C45D188009454F


def test_splitmix_seed42_regression():
    rng = SplitMix64(42)
    assert rng.next_uint() == 0xBDD732262FEB6E95
    assert rng.next_uint() == 0x28EFE333B266F103
    assert rng.next_uint() == 0x47526757130F9F52


def test_splitmix_uniform_range_and_determinism():
    a = SplitMix64(123)
    b = SplitMix64(123)
    xs = [a.uniform() for _ in range(200)]
    ys = [b.uniform() for _ in range(200)]
    assert xs == ys
    assert all(0.0 <= x < 1.0 for x in xs)
    # crude uniformity check, deterministic stream so no flake risk
    assert 0.35 < sum(xs) / len(xs) < 0.65


def test_splitmix_gaussian_moments():
    rng = SplitMix64(7)
    draws = []
    for _ in range(2000):
        g1, g2 = rng.gaussian_pair()
        draws.extend((g1, g2))
    arr = np.array(draws)
    assert abs(arr.mean()) < 0.05
    assert abs(arr.std() - 1.0) < 0.05
    assert np.isfinite(arr).all()


def test_splitmix_seed_masking():
    assert SplitMix64(1 << 64).next_uint() == SplitMix64(0).next_uint()


# ----------------------------------------------------------- combinations

def test_combination_validation(spec_one):
    with pytest.raises(ValueError):
        KernelCombination(spec=spec_one, anchors=np.array([]), coefficients=np.array([]))
    with pytest.raises(ValueError):
        KernelCombination(spec=spec_one, anchors=np.array([1j, 2j]),
                          coefficients=np.array([1.0]))
    with pytest.raises(ValueError):
        KernelCombination(spec=spec_one, anchors=np.array([1.0 - 1j]),
                          coefficients=np.array([1.0]))
    with pytest.raises(ValueError):
        KernelCombination(spec=spec_one, anchors=np.array([1.0 + 0.0j]),
                          coefficients=np.array([1.0]))


def test_combination_is_kernel_sum(spec_two):
    anchors = np.array([0.5 + 1.0j, -1.0 + 0.4j])
    coeffs = np.array([1.0 - 2.0j, 0.25j])
    f = KernelCombination(spec=spec_two, anchors=anchors, coefficients=coeffs)
    for x in (0.0, 1.3, -7.0, 2.0 + 0.5j):
        want = sum(c * reproducing_kernel(spec_two, complex(w), x)
                   for w, c in zip(anchors, coeffs))
        assert f(x) == pytest.approx(want, rel=1e-12)


def test_combination_scalar_array_agree(spec_one):
    f = random_model_function(spec_one, 4, seed=31)
    xs = np.array([-3.0, 0.0, 0.5, 11.0])
    out = f(xs)
    for x, v in zip(xs, out):
        assert f(float(x)) == pytest.approx(v, rel=1e-13)


def test_derivative_matches_difference_quotient(spec_two):
    f = random_model_function(spec_two, 5, seed=19)
    for x in np.linspace(-4.0, 4.0, 17):
        fd = oracles.central_diff(f, float(x), h=1e-5)
        assert f.derivative(float(x)) == pytest.approx(fd, rel=2e-6, abs=1e-9)


def test_derivative_bits_match_phase_arrays_oracle(spec_two):
    spec_three = InnerFunctionSpec(tau=0.8, c=0.5, zeros=(
        BlaschkeZero(-1.0, 0.3, 3), BlaschkeZero(4.0, 2.0), BlaschkeZero(0.5, 0.01, 2)))
    rng = np.random.default_rng(41)
    for spec in (spec_two, spec_three):
        f = random_model_function(spec, 6, seed=43)
        for x in (rng.uniform(-30.0, 30.0, 1), rng.uniform(-30.0, 30.0, 513)):
            got = f.derivative(x)
            want = oracles.kernel_combination_derivative(f, x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_membership_orthogonal_to_shifted_hardy_kernel(spec_two):
    # the combination must be orthogonal to Theta times any analytic kernel
    f = random_model_function(spec_two, 5, seed=23)
    w = 0.7 + 1.1j

    def integrand(t):
        return f(t) * np.conj(evaluate(spec_two, t) * hardy_kernel(w, t))

    res = quadrature.integrate_panels(integrand, quadrature.two_sided_panels(4000.0), 1e-9)
    assert abs(res.value) < 1e-6


def test_reproducing_identity(spec_one, spec_two):
    # <f, k_x> recovers f(x)
    for spec, seed in ((spec_one, 41), (spec_two, 42)):
        f = random_model_function(spec, 5, seed=seed)
        for x in (0.3, -1.7):
            def integrand(t, x=x, spec=spec):
                return f(t) * np.conj(reproducing_kernel(spec, x, t))

            res = quadrature.integrate_panels(
                integrand, quadrature.two_sided_panels(4000.0), 1e-9)
            assert complex(res.value) == pytest.approx(f(x), rel=1e-5, abs=1e-8)


def test_moment_cancellation_and_profile(spec_two):
    f = random_model_function(spec_two, 5, seed=29)
    assert f.is_cancelling()
    prof = f.decay_profile()
    assert prof.order == 2
    # profile honesty at large x: modulus tracks |A - B e^{i phi}| / (2 pi x^2)
    for x in (1e4, 3e4):
        theta = evaluate(spec_two, x)
        lead = abs(prof.lead_a - prof.lead_b * theta) / (TWO_PI * x * x)
        slack = 2.0 * prof.next_scale / (TWO_PI * abs(x) ** 3) + 1e-18
        assert abs(abs(f(x)) - lead) <= slack


def test_single_kernel_profile(spec_one):
    f = KernelCombination(spec=spec_one, anchors=np.array([1j]),
                          coefficients=np.array([1.0 + 0j]))
    assert not f.is_cancelling()
    assert f.decay_profile().order == 1


def test_derivative_profile_routes(spec_one):
    cancelled = random_model_function(spec_one, 5, seed=37)
    dprof = cancelled.derivative_profile()
    assert dprof.order == 2
    # numeric check of the leading derivative modulus
    x = 2e4
    assert abs(cancelled.derivative(x)) == pytest.approx(
        abs(dprof.lead_b) / (TWO_PI * x * x), rel=1e-3)

    # anchor away from the Blaschke zero so Theta(w) != 0 and both zeroth
    # moments survive
    plain = KernelCombination(spec=spec_one, anchors=np.array([0.5 + 0.7j]),
                              coefficients=np.array([1.0 + 0j]))
    assert plain.derivative_profile().order == 1

    no_growth = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    g = KernelCombination(spec=no_growth, anchors=np.array([1j]),
                          coefficients=np.array([1.0 + 0j]))
    with pytest.raises(LpNormError):
        g.derivative_profile()


def test_derivative_profile_partial_cancellation(spec_one):
    # kill the Theta-weighted moment only: no certified leading term remains
    anchors = np.array([1.0j, 0.5 + 0.8j])
    qbar = np.conj(evaluate(spec_one, anchors))
    coeffs = np.array([1.0 + 0j, 0j])
    coeffs[1] = -coeffs[0] * qbar[0] / qbar[1]
    f = KernelCombination(spec=spec_one, anchors=anchors, coefficients=coeffs)
    with pytest.raises(LpNormError, match="partial"):
        f.derivative_profile()


# -------------------------------------------------------------- corpus draws

def test_random_model_function_deterministic(spec_two):
    f = random_model_function(spec_two, 5, seed=101)
    g = random_model_function(spec_two, 5, seed=101)
    np.testing.assert_array_equal(f.anchors, g.anchors)
    np.testing.assert_array_equal(f.coefficients, g.coefficients)
    h = random_model_function(spec_two, 5, seed=102)
    assert not np.array_equal(f.anchors, h.anchors)


def test_random_model_function_anchor_box(spec_one):
    for seed in range(8):
        f = random_model_function(spec_one, 5, seed=seed)
        assert np.all(np.abs(f.anchors.real) <= 5.0)
        assert np.all((0.2 <= f.anchors.imag) & (f.anchors.imag <= 3.0))


def test_random_model_function_unit_norm(spec_one):
    f = random_model_function(spec_one, 5, seed=55)
    assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-8)


def test_random_model_function_count_validation(spec_one):
    with pytest.raises(ValueError):
        random_model_function(spec_one, 0, seed=1)
    with pytest.raises(ValueError):
        random_model_function(spec_one, True, seed=1)
    single = random_model_function(spec_one, 1, seed=1)
    assert single.anchors.size == 1
    assert lp_norm(single, 2.0) == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------ certified norms

def test_norm_matches_kernel_closed_form(spec_two):
    # ||k_w||^2 = (1 - |Theta(w)|^2) / (4 pi Im w)
    w = 0.3 + 0.9j
    f = KernelCombination(spec=spec_two, anchors=np.array([w]),
                          coefficients=np.array([1.0 + 0j]))
    want_sq = (1.0 - abs(evaluate(spec_two, w)) ** 2) / (4.0 * math.pi * w.imag)
    # the engine certifies the squared-norm mass to 1e-6 relative
    assert lp_norm(f, 2.0) ** 2 == pytest.approx(want_sq, rel=1e-6)


def test_norm_homogeneous(spec_one):
    f = random_model_function(spec_one, 5, seed=71)
    g = KernelCombination(spec=spec_one, anchors=f.anchors,
                          coefficients=3.0 * f.coefficients)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(g, p) == pytest.approx(3.0 * lp_norm(f, p), rel=1e-9)


def test_norm_radius_escalation_consistency(spec_one):
    # the same mass must come out whatever interior radius certifies it
    f = random_model_function(spec_one, 5, seed=77)
    for p in (1.0, 2.0):
        prof = f.decay_profile()
        values = lambda x: np.abs(f(x)) ** p
        m1, u1, _ = _p_mass(values, prof, spec_one, p, 8000.0)
        m2, u2, _ = _p_mass(values, prof, spec_one, p, 32000.0)
        assert abs(m1 - m2) <= u1 + u2


def test_norm_rejects_bad_p(spec_one):
    f = random_model_function(spec_one, 5, seed=3)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    with pytest.raises(ValueError):
        derivative_lp_norm(f, 0.99)


def test_norm_p1_needs_cancellation(spec_one):
    f = KernelCombination(spec=spec_one, anchors=np.array([1j]),
                          coefficients=np.array([1.0 + 0j]))
    with pytest.raises(LpNormError, match="measured"):
        lp_norm(f, 1.0)
    # p = 2 is fine for the same function
    assert lp_norm(f, 2.0) > 0.0


def test_derivative_norm_positive(spec_two):
    f = random_model_function(spec_two, 5, seed=83)
    for p in (1.0, 2.0, 4.0):
        assert derivative_lp_norm(f, p) > 0.0


# ------------------------------------------------------- inequality utilities

def test_bernstein_check_holds_on_sample(spec_one, spec_two):
    for spec, seed in ((spec_one, 5), (spec_two, 6)):
        f = random_model_function(spec, 5, seed=seed)
        for p in (1.0, 2.0):
            lhs, rhs = bernstein_check(f, p)
            assert lhs <= rhs
            assert lhs > 0.0


def test_bernstein_ratio_scale_invariant(spec_one):
    f = random_model_function(spec_one, 5, seed=91)
    g = KernelCombination(spec=spec_one, anchors=f.anchors,
                          coefficients=5.0 * f.coefficients)
    lf, rf = bernstein_check(f, 2.0)
    lg, rg = bernstein_check(g, 2.0)
    assert lf / rf == pytest.approx(lg / rg, rel=1e-9)


def test_sup_sample_check_holds(spec_two):
    f = random_model_function(spec_two, 5, seed=97)
    for delta, p in ((0.25, 1.0), (1.0, 2.0), (2.0, 2.0)):
        left, right = sup_sample_check(f, delta, p)
        assert left <= right
        assert left > 0.0


def test_sup_sample_check_validation(spec_one):
    f = random_model_function(spec_one, 5, seed=2)
    with pytest.raises(ValueError):
        sup_sample_check(f, -1.0, 2.0)
    with pytest.raises(ValueError):
        sup_sample_check(f, 1.0, 0.5)
    plain = KernelCombination(spec=spec_one, anchors=np.array([1j]),
                              coefficients=np.array([1.0 + 0j]))
    with pytest.raises(LpNormError):
        sup_sample_check(plain, 1.0, 1.0)


def test_cont_formula_derivative_matches_exact(spec_one, spec_two):
    for spec, seed in ((spec_one, 11), (spec_two, 12)):
        f = random_model_function(spec, 5, seed=seed)
        for x in (0.0, 0.7):
            via_integral = cont_formula_derivative(f, x)
            exact = f.derivative(x)
            assert via_integral == pytest.approx(exact, rel=1e-5, abs=1e-9)


# --------------------------------------------------------------- grid freeze

def test_to_grid_function_certificate(spec_two):
    f = random_model_function(spec_two, 5, seed=14)
    for p in (1.0, 2.0):
        gf = to_grid_function(f, p, meta={"seed": 14})
        assert gf.p == p
        assert gf.meta == {"seed": 14}
        assert gf.origin is f
        # certification gate
        assert gf.tail_bound <= NORM_REL_TOL * gf.norm ** p
        # nodes/weights reproduce the interior p-mass: the gap to norm^p is
        # exactly the analytic tail estimate, small and nonnegative
        dot = float(np.sum(gf.weights * np.abs(gf.values) ** p))
        gap = gf.norm ** p - dot
        assert -1e-12 <= gap <= 1e-2 * gf.norm ** p
        assert gf.domain[1] >= 2000.0
        assert gf.evaluate(0.37) == pytest.approx(complex(f(0.37)), rel=1e-13)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(domain=(-1.0, 1.0), nodes=np.zeros(3), weights=np.zeros(2),
                     values=np.zeros(3), p=2.0, norm=1.0, tail_bound=0.0)
    with pytest.raises(ValueError):
        GridFunction(domain=(-1.0, 1.0), nodes=np.zeros(1), weights=np.zeros(1),
                     values=np.zeros(1), p=2.0, norm=-1.0, tail_bound=0.0)
    bare = GridFunction(domain=(-1.0, 1.0), nodes=np.zeros(1), weights=np.zeros(1),
                        values=np.zeros(1), p=2.0, norm=1.0, tail_bound=0.0)
    with pytest.raises(ValueError):
        bare.evaluate(0.0)


# ------------------------------------------------------------- reproducibility

def test_spec_hash_stable_and_sensitive(spec_one, spec_two):
    h1 = spec_hash(spec_one)
    assert h1 == spec_hash(spec_one)
    assert len(h1) == 16
    assert int(h1, 16) >= 0
    assert h1 != spec_hash(spec_two)


def test_corpus_manifest_contents(spec_one):
    man = corpus_manifest(spec_one, seed=9, count=5, size=20)
    assert man["generator"] == "splitmix64"
    assert man["seed"] == 9
    assert man["count"] == 5
    assert man["size"] == 20
    assert man["spec_hash"] == spec_hash(spec_one)
    assert man["inner"]["c"] == spec_one.c


def test_hardy_kernel_value():
    w = 1.0 + 2.0j
    x = 0.5
    assert hardy_kernel(w, x) == pytest.approx((0.5j / math.pi) / (x - np.conj(w)))
    arr = hardy_kernel(w, np.array([0.0, 1.0]))
    assert arr.shape == (2,)
