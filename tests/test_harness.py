"""Corpus generation, certified L^p norms and derivative identities."""
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from modelspace import harness, quadrature
from modelspace.harness import (
    NORM_REL_TOL,
    DecayProfile,
    KernelCombination,
    LpNormError,
    SplitMix64,
    bernstein_check,
    corpus_manifest,
    derivative_lp_norm,
    lp_norm,
    random_model_function,
    spec_hash,
    sup_sample_check,
)
from modelspace.harness import (_alias_bounds, _certified_mass, _certified_masses,
                                _certified_norm, _p_mass, _sharp_tail_terms, _tail_samples,
                                _tail_uncertainty)
from modelspace.inner import BlaschkeZero, InnerFunctionSpec, evaluate, phase_arrays
from modelspace.kernel import reproducing_kernel
from modelspace.quadrature import QuadratureError

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
    # f and f' against the allocating (K x n) kernel-term forms, at batch
    # sizes on both sides of every multiple of 1024 points, and f also off
    # the real line
    spec_three = InnerFunctionSpec(tau=0.8, c=0.5, zeros=(
        BlaschkeZero(-1.0, 0.3, 3), BlaschkeZero(4.0, 2.0), BlaschkeZero(0.5, 0.01, 2)))
    zero_free = InnerFunctionSpec(tau=0.3, c=2.0, zeros=())
    rng = np.random.default_rng(41)
    for spec in (spec_two, spec_three, zero_free):
        f = random_model_function(spec, 6, seed=43)
        for n in (1, 513, 1023, 1024, 1025, 3 * 1024 + 7, 18000):
            x = rng.uniform(-30.0, 30.0, n)
            z = x + 1j * rng.uniform(0.0, 3.0, n)
            for got, want in ((f.derivative(x), oracles.kernel_combination_derivative(f, x)),
                              (f(x), oracles.kernel_combination_values(f, x)),
                              (f(z), oracles.kernel_combination_values(f, z))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_kernel_sums_hold_one_buffer_of_terms(spec_one):
    # the K x n kernel terms fill one buffer block by block, and everything
    # else a call holds is O(K * 1024 + n): the peak stays below two buffers
    f = random_model_function(spec_one, 5, seed=3)
    x = np.linspace(-50.0, 50.0, 2**17)
    buffer = f.anchors.size * x.size * 16
    for call in (f, f.derivative):
        tracemalloc.start()
        try:
            call(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * buffer


def test_membership_orthogonal_to_shifted_hardy_kernel(spec_two):
    # the combination must be orthogonal to Theta times any analytic kernel
    f = random_model_function(spec_two, 5, seed=23)
    w = 0.7 + 1.1j

    def integrand(t):
        return f(t) * np.conj(evaluate(spec_two, t) * (0.5j / math.pi) / (t - np.conj(w)))

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
    assert f.decay_profile().order == 1


def test_degenerate_spec_has_only_the_zero_function(monkeypatch):
    # c = 0 and no zeros: Theta is a unimodular constant and K_Theta = {0};
    # a c at or below the threshold where c counts as 0 is refused alike
    cases = {0.0: "c = 0 and no zeros make Theta a unimodular constant: its model space",
             1e-13: "c = 1e-13 is at or below the threshold 1e-12 where c counts as 0",
             1e-12: "c = 1e-12 is at or below the threshold 1e-12 where c counts as 0"}
    # the draws refuse before they take a number from the stream
    monkeypatch.setattr(harness, "SplitMix64", None)
    for c, message in cases.items():
        spec = InnerFunctionSpec(tau=1.0, c=c)
        with pytest.raises(ValueError, match=message):
            KernelCombination(spec=spec, anchors=np.array([1j]),
                              coefficients=np.array([1.0 + 0j]))
        for count in (1, 5):
            with pytest.raises(ValueError, match=message):
                random_model_function(spec, count, seed=1)


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


def test_norm_rejects_a_nonfinite_p(spec_one):
    # an infinite p would run all three radii and fail on a nan mass
    f = random_model_function(spec_one, 5, seed=3)
    for p in (math.inf, math.nan):
        for norm in (lp_norm, derivative_lp_norm):
            with pytest.raises(ValueError, match="p must be finite and >= 1"):
                norm(f, p)


def test_norm_names_an_overflowing_tail_bound(spec_one):
    # the p-th powers in the tail bound overflow a float, whose bare
    # OverflowError would name neither p nor the radius
    f = random_model_function(spec_one, 5, seed=3)
    for norm in (lp_norm, derivative_lp_norm):
        with pytest.raises(LpNormError, match="tail bound at p = 400 overflows at radius 2000"):
            norm(f, 400.0)


def test_last_radius_error_names_quadrature_and_tail(spec_one, monkeypatch):
    # at p = 64 the mass is about 3e-14; under an absolute interior floor of
    # 1e-13 the quadrature stops with an error estimate above 1e-6 of that,
    # which no larger radius mends, so the norm fails after one interior
    # pass at the first radius
    monkeypatch.setattr(harness, "_INTERIOR_TOL", (1e-13, 1e-10))
    f = random_model_function(spec_one, 5, 2)
    passes = []
    real = quadrature.integrate_panels
    monkeypatch.setattr(quadrature, "integrate_panels",
                        lambda *args, **kwargs: passes.append(1) or real(*args, **kwargs))
    with pytest.raises(LpNormError) as exc:
        lp_norm(f, 64.0)
    assert str(exc.value) == (
        "quadrature error 2.444e-17 exceeds the budget 1e-06 * mass 2.814e-14 at radius 2000")
    assert len(passes) == 1


@pytest.mark.parametrize("p", [64.0, 100.0])
def test_large_p_norms_certify_under_the_sup_bound(spec_one, p):
    # the interior tolerance is relative, so masses of about 3e-14 (p = 64)
    # and 1e-21 (p = 100) certify, and obey ||f||_p^p <= S^(p-2) ||f||_2^2
    # for an upper bound S on |f|: a scan of step h over [-50, 50] plus h
    # times a bound on |f'| (from |q| <= 1 and |Theta'| <= c + sum 2m/v),
    # and beyond it the bound |k_a(x)| <= 1/(pi |x - Re a|)
    f = random_model_function(spec_one, 5, 2)
    weights, v = np.abs(f.coefficients) / TWO_PI, f.anchors.imag
    dphi = spec_one.c + sum(2.0 * z.mult / z.im for z in spec_one.zeros)
    h, wide = 1e-3, 50.0
    scan = float(np.abs(f(np.arange(-wide, wide + h, h))).max())
    beyond = float(np.sum(2.0 * weights / (wide - np.abs(f.anchors.real))))
    sup = max(scan + h * float(np.sum(weights * (dphi / v + 2.0 / v**2))), beyond)
    assert lp_norm(f, p) ** p <= sup ** (p - 2.0) * lp_norm(f, 2.0) ** 2


def test_an_underflowing_mass_fails_alone_and_in_lockstep(spec_one):
    # at p = 120, |g|^p and the tail mean of g = f / 1000 flush to 0; the
    # mass 0 with uncertainty 0 would certify a norm of 0 for g, whose norm
    # is about 6e-4, so the lone norms and the lockstep checks refuse it
    f = random_model_function(spec_one, 5, 2)
    g = KernelCombination(spec=spec_one, anchors=f.anchors, coefficients=1e-3 * f.coefficients)
    for check in (lp_norm, derivative_lp_norm, bernstein_check,
                  lambda g, p: sup_sample_check(g, 1.0, p)):
        with pytest.raises(LpNormError) as exc:
            check(g, 120.0)
        assert str(exc.value) == "mass 0.000e+00 at p = 120 underflows at radius 2000"


def test_tail_above_the_budget_at_every_radius_fails_at_the_last(spec_one, monkeypatch):
    # the quadrature error stays inside the budget while a forced tail bound
    # of 1 stays above it, so every radius is tried and the last one fails
    f = random_model_function(spec_one, 5, 2)
    monkeypatch.setattr(harness, "_tail_uncertainty", lambda *args: 1.0)
    with pytest.raises(LpNormError) as exc:
        lp_norm(f, 2.0)
    assert re.fullmatch(r"uncertainty 1\.000e\+00 \(quadrature error \d\.\d{3}e-\d\d, "
                        r"tail bound 1\.000e\+00\) still above 1e-06 \* mass \d\.\d{3}e[-+]\d\d "
                        r"at radius 32000", str(exc.value))


def test_huge_p_names_the_overflowing_interior_integrand(spec_one):
    # |5 f| exceeds 1 on the panels, so |f|^p overflows inside the interior
    # quadrature before any tail bound is formed; one at a time and in a
    # corpus pass the norm fails with an error naming p and the integrand,
    # and no NumPy warning
    f = random_model_function(spec_one, 5, 2)
    big = KernelCombination(spec=spec_one, anchors=f.anchors, coefficients=5.0 * f.coefficients)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm, name in ((lp_norm, "|f|^p"), (derivative_lp_norm, "|f'|^p")):
            with pytest.raises(LpNormError) as exc:
                norm(big, 1e308)
            assert str(exc.value) == f"interior integrand {name} at p = 1e+308 overflows"
        items = [(f, 2.0, False), (big, 1e308, False), (big, 1e308, True), (f, 2.0, True)]
        got = _certified_masses(items)
    assert [str(o) for o in got[1:3]] == [
        "interior integrand |f|^p at p = 1e+308 overflows",
        "interior integrand |f'|^p at p = 1e+308 overflows"]
    # the other items keep the bits they have alone
    for o, (g, p, derivative) in ((got[0], items[0]), (got[3], items[3])):
        assert (o[0] ** (1.0 / p), o[1]) == _certified_norm(g, p, derivative)


def test_norm_p1_needs_cancellation(spec_one):
    f = KernelCombination(spec=spec_one, anchors=np.array([1j]),
                          coefficients=np.array([1.0 + 0j]))
    with pytest.raises(LpNormError, match="exponent 1 is too slow"):
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
    for delta, p in ((-1.0, 2.0), (1.0, 0.5), (math.inf, 2.0), (math.nan, 2.0),
                     (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="both finite"):
            sup_sample_check(f, delta, p)
    plain = KernelCombination(spec=spec_one, anchors=np.array([1j]),
                              coefficients=np.array([1.0 + 0j]))
    with pytest.raises(LpNormError):
        sup_sample_check(plain, 1.0, 1.0)


def test_sup_sample_check_refuses_an_oversized_sampling(spec_one):
    f = random_model_function(spec_one, 5, seed=2)
    # 96 * 640e9 samples; the default deltas take at most 96 * 2560
    with pytest.raises(ValueError, match=r"needs 61440000000000 samples, more than 1048576"):
        sup_sample_check(f, 1e-9, 2.0)


def test_sup_sample_check_names_an_overflowing_power(spec_one):
    # |5 f| exceeds 1 on the sample grid, so its p-th power overflows before
    # the tail envelope's does; neither may warn or raise a bare OverflowError
    f = random_model_function(spec_one, 5, seed=2)
    big = KernelCombination(spec=spec_one, anchors=f.anchors, coefficients=5.0 * f.coefficients)
    for g in (f, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LpNormError,
                               match=r"window-sup sum at p = 1e\+308 and delta = 1.0 overflows"):
                sup_sample_check(g, 1.0, 1e308)


@pytest.mark.parametrize("delta", [1e-320, 5e-324])
def test_sup_sample_check_refuses_a_subnormal_delta(spec_one, delta):
    # 640 / delta overflows to inf, which has no ceiling to count samples by
    f = random_model_function(spec_one, 5, seed=2)
    with pytest.raises(ValueError, match=rf"delta = {delta!r} needs inf samples, more than 1048576"):
        sup_sample_check(f, delta, 2.0)


def test_sup_sample_check_refuses_an_overflowing_grid(spec_one):
    # the grid [-2 delta, 2 delta) lies past the largest float
    f = random_model_function(spec_one, 5, seed=2)
    with pytest.raises(ValueError, match=r"delta = 1e\+308 overflows its sample grid"):
        sup_sample_check(f, 1e308, 2.0)
    left, right = sup_sample_check(f, 1e306, 2.0)
    assert math.isfinite(left) and math.isfinite(right)


def cont_formula_derivative(f: KernelCombination, x: float) -> complex:
    """Derivative via the boundary-integral identity
    f'(x) = 2 pi i * integral of f(t) k_t(x)^2 dt over the line, a
    cross-check of the analytic route (also used by A5).

    Note k_t(x) = conj(k_x(t)), so the integrand pairs f against a
    conjugate-analytic square; conjugating the kernel factor instead would
    make the whole integrand analytic in the upper half-plane and the
    integral collapse to zero.  The kernel is evaluated in phase form
    -expm1(i(phi(x)-phi(t)))/(2 pi i (x-t)) so the near-diagonal
    cancellation costs no precision.  The integral runs over
    [x - 800, x + 800] to abs_tol 1e-8; raises QuadratureError when the
    quadrature falls short of it.
    """
    x = float(x)
    spec = f.spec
    px, dpx = phase_arrays(spec, x)

    def integrand(t):
        pt, _ = phase_arrays(spec, t)
        diff = x - t
        near = np.abs(diff) < 1e-12
        safe = np.where(near, 1.0, diff)
        k = (-0.5j / math.pi) * np.expm1(1j * (px - pt)) / safe
        k = np.where(near, dpx / TWO_PI, k)
        return f(t) * k ** 2

    panels = x + quadrature.two_sided_panels(800.0, inner=16.0)
    res = quadrature.integrate_panels(integrand, panels, 1e-8).require_converged(
        "cont_formula_derivative")
    return complex(2j * math.pi * res.value)


def test_cont_formula_derivative_matches_exact(spec_one, spec_two):
    for spec, seed in ((spec_one, 11), (spec_two, 12)):
        f = random_model_function(spec, 5, seed=seed)
        for x in (0.0, 0.7):
            via_integral = cont_formula_derivative(f, x)
            exact = f.derivative(x)
            assert via_integral == pytest.approx(exact, rel=1e-5, abs=1e-9)


# ------------------------------------------------------------ norm certificate

def test_certified_norm_certificate(spec_two):
    f = random_model_function(spec_two, 5, seed=14)
    for p in (1.0, 2.0):
        norm, tail_bound = _certified_norm(f, p, derivative=False)
        # certification gate
        assert tail_bound <= NORM_REL_TOL * norm ** p
        # the interior quadrature reproduces the p-mass: the gap to the
        # certified mass is exactly the analytic tail estimate, small and
        # nonnegative
        mass, unc, res, radius = _certified_mass(lambda x: np.abs(f(x)) ** p,
                                                 f.decay_profile(), spec_two, p)
        gap = mass - float(res.value)
        assert -1e-12 <= gap <= 1e-2 * mass
        assert unc >= res.error_bound
        assert radius >= 2000.0
        assert norm ** p == pytest.approx(mass, rel=1e-15)
        assert norm == lp_norm(f, p)
        assert tail_bound == unc


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


def test_combination_accepts_2d_points(spec_two):
    f = random_model_function(spec_two, 5, seed=23)
    x = np.linspace(-4.0, 4.0, 24).reshape(4, 6)
    assert np.array_equal(f(x), f(x.ravel()).reshape(4, 6))
    assert np.array_equal(f.derivative(x), f.derivative(x.ravel()).reshape(4, 6))
    z = x + 0.5j
    assert np.array_equal(f(z), f(z.ravel()).reshape(4, 6))


# ------------------------------------------------------ sharp analytic tail

def _random_tail_spec(rng):
    zeros = tuple(
        BlaschkeZero(rng.uniform(-6.0, 6.0), rng.uniform(0.2, 2.0), int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(0, 4))))
    return InnerFunctionSpec(tau=rng.uniform(0.0, 2.0 * math.pi),
                             c=rng.uniform(0.5, 2.0), zeros=zeros)


def _tail_specs(spec_one, spec_two, spec_pw):
    from test_clark import _dense_layout
    rng = np.random.default_rng(2024)
    return [spec_one, spec_two, spec_pw, _dense_layout()] + [
        _random_tail_spec(rng) for _ in range(8)]


def _profile_and_values(f, kind, p):
    if kind == "f":
        return f.decay_profile(), lambda x: np.abs(f(x)) ** p
    return f.derivative_profile(), lambda x: np.abs(f.derivative(x)) ** p


def test_profile_next_terms_and_rest_bound(spec_one, spec_two, spec_pw):
    # 2 pi x^order f / i = L + L1 / x + E with |E| <= rest / (x^2 (1 - reach/|x|)^3);
    # checked on the complex value, which pins L1 to within rest / |x|
    for spec in (spec_one, spec_two, spec_pw):
        cancelled = random_model_function(spec, 5, seed=41)
        plain = KernelCombination(spec=spec, anchors=np.array([0.5 + 0.7j, -1.0 + 2.0j]),
                                  coefficients=np.array([1.0 + 0.5j, -0.3 + 0j]))
        for f in (cancelled, plain):
            for kind in ("f", "d"):
                prof = f.decay_profile() if kind == "f" else f.derivative_profile()
                fn = f if kind == "f" else f.derivative
                for x in (-400.0, -60.0, 45.0, 300.0):
                    theta = evaluate(spec, x)
                    lead = prof.lead_a - prof.lead_b * theta
                    nxt = prof.next_a - prof.next_b * theta
                    got = TWO_PI * x ** prof.order * fn(x) / 1j
                    rest = prof.rest / (x * x * (1.0 - prof.reach / abs(x)) ** 3)
                    assert abs(got - (lead + nxt / x)) <= rest + 1e-12 * abs(lead)


def test_tail_bound_honest_against_far_radius(spec_one, spec_two, spec_pw):
    # the uncertainty at R = 2000 must cover the change to R = 32000
    for spec in _tail_specs(spec_one, spec_two, spec_pw):
        f = random_model_function(spec, 5, seed=7)
        for kind in ("f", "d"):
            for p in (1.0, 2.0, 4.0):
                prof, values = _profile_and_values(f, kind, p)
                m1, u1, _ = _p_mass(values, prof, spec, p, 2000.0)
                m2, u2, _ = _p_mass(values, prof, spec, p, 32000.0)
                assert abs(m1 - m2) <= u1 + u2, (spec, kind, p)
                assert u1 <= NORM_REL_TOL * m1


def test_cancelling_p1_corpus_certifies_at_first_radius(spec_one, spec_two, spec_pw):
    for si, spec in enumerate((spec_one, spec_two, spec_pw)):
        for i in range(8):
            f = random_model_function(spec, 5, seed=10000 * (si + 1) + i)
            assert f.decay_profile().order == 2
            for kind in ("f", "d"):
                prof, values = _profile_and_values(f, kind, 1.0)
                mass, unc, _, radius = _certified_mass(values, prof, spec, 1.0)
                assert radius == 2000.0
                assert unc <= NORM_REL_TOL * mass


def _first_radius_mass_formula(values, prof, spec, p, radius=2000.0):
    """The mass formula before the sharp tail bound: interior on the
    geometric panels plus gbar * 2 R^{1-m} / (m - 1)."""
    m = p * prof.order
    panels = quadrature.two_sided_panels(radius, inner=16.0)
    rough = quadrature.integrate_panels(values, panels, abs_tol=math.inf)
    abs_tol = max(1e-13, 1e-10 * abs(float(np.real(rough.value))))
    interior = float(np.real(quadrature.integrate_panels(values, panels, abs_tol).value))
    theta = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    g = (np.abs(prof.lead_a - prof.lead_b * np.exp(1j * theta)) / TWO_PI) ** p
    return interior + 2.0 * float(g.mean()) * radius ** (1.0 - m) / (m - 1.0)


def test_p2_and_p4_masses_bit_identical_to_old_formula(spec_one, spec_two, spec_pw):
    for spec in (spec_one, spec_two, spec_pw):
        f = random_model_function(spec, 5, seed=19)
        for kind in ("f", "d"):
            for p in (2.0, 4.0):
                prof, values = _profile_and_values(f, kind, p)
                mass, _, _, radius = _certified_mass(values, prof, spec, p)
                assert radius == 2000.0
                assert mass == _first_radius_mass_formula(values, prof, spec, p)


@pytest.mark.parametrize("name", ["spec_pw", "spec_one"])
def test_sharp_tail_terms_match_closed_form(name, request):
    # p = 2: g - gbar = -2 Re(gamma e^{i theta}) / (2 pi)^2 with gamma = conj(A) B
    # is one harmonic, so G = -2 Im(gamma e^{i theta}) / (2 pi)^2 exactly and
    # max|G| = max|H| = 2 |gamma| / (2 pi)^2; no aliasing at an even p.
    spec = request.getfixturevalue(name)
    f = random_model_function(spec, 5, seed=3)
    prof = f.decay_profile()
    p, radius, c = 2.0, 2000.0, spec.c
    m = p * prof.order
    terms = _sharp_tail_terms(_tail_samples(prof, spec, p), prof, spec, p, radius)
    gamma = np.conj(prof.lead_a) * prof.lead_b
    scale = TWO_PI ** -p
    kappa = 1.0 / (1.0 - prof.reach / radius)
    bend = 4.0 * sum(z.mult * z.im for z in spec.zeros) * kappa ** 3

    def end(x):
        value, derivative = phase_arrays(spec, x)
        return -2.0 * (gamma * np.exp(1j * value)).imag * scale / derivative

    decay = radius ** -m
    # the terms are about 1e-14, so every comparison is relative only
    assert terms["boundary"] == pytest.approx(
        abs(end(-radius) - end(radius)) * decay, rel=1e-9, abs=0.0)
    amp = 2.0 * abs(gamma) * scale
    assert terms["osc_rest"] == pytest.approx(
        2.0 * decay / (c * c * radius) * amp * (
            bend / ((m + 2.0) * radius)
            + m * (2.0 + 2.0 * bend / ((m + 3.0) * c * radius ** 2))), rel=1e-9, abs=0.0)
    la, lb = abs(prof.lead_a), abs(prof.lead_b)
    l1 = abs(prof.next_a) + abs(prof.next_b)
    rest = prof.rest * kappa ** 3
    eta = l1 + rest / radius
    h1_max = 2.0 * (la + lb) * l1 * scale
    assert terms["laurent"] == pytest.approx(
        2.0 * math.pi * h1_max * decay / radius * (
            2.0 / c + bend / ((m + 3.0) * c * c * radius ** 2)), rel=1e-12, abs=0.0)
    rho2 = (2.0 * (la + lb) * rest + eta ** 2) * scale
    assert terms["power"] == pytest.approx(
        2.0 * rho2 * decay / (radius * (m + 1.0)), rel=1e-12, abs=0.0)
    assert terms["sampling"] == 0.0


def test_alias_bounds_cover_coarse_sampling():
    # the mean and G from n samples of g against a 2^16-sample reference:
    # 2 sum_{k<n/2} |c_k - ghat_k| / k + 2 sum_{k>=n/2} |ghat_k| / k <= alias
    def coefficients(la, lb, p, n):
        theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return np.fft.rfft((np.abs(la - lb * np.exp(1j * theta)) / TWO_PI) ** p) / n

    for la, lb, p in ((1.0, 0.8, 1.0), (0.3, 1.0, 1.0), (1.0, 0.95, 1.0), (1.0, 0.6, 1.5),
                      (1.0, 0.7, 3.0)):
        exact = coefficients(la, lb, p, 1 << 16)
        for n in (16, 32, 64, 128):
            bounds = _alias_bounds(la, lb, p, n)
            if bounds is None:
                continue
            mean_alias, alias = bounds
            coarse = coefficients(la, lb, p, n)
            half = n // 2
            miss = np.sum(np.abs(coarse[1:half] - exact[1:half]) / np.arange(1, half)) \
                + np.sum(np.abs(exact[half:]) / np.arange(half, exact.size))
            # the bounds are for exact arithmetic; the DFTs round at eps of max g
            rounding = 1e-14 * ((la + lb) / TWO_PI) ** p
            assert 2.0 * miss <= alias + rounding
            assert abs(coarse[0] - exact[0]) <= mean_alias + rounding
    assert _alias_bounds(1.0, 0.0, 1.0, 2048) == (0.0, 0.0)
    assert _alias_bounds(1.0, 0.7, 4.0, 2048) == (0.0, 0.0)
    assert _alias_bounds(1.0, 1.0, 1.0, 2048) is None


def test_sharp_tail_falls_back_where_expansion_fails(spec_one):
    # |lead_a| = |lead_b|: |A - B e^{i theta}| touches 0, so |.|^1 has no
    # expansion there; the coarse bound takes over
    prof = DecayProfile(2, 1.0 + 0j, 1.0 + 0j, 3.0, 0.5 + 0j, 0.5j, 10.0, 4.0)
    g = _tail_samples(prof, spec_one, 1.0)
    assert _sharp_tail_terms(g, prof, spec_one, 1.0, 2000.0) is None
    # spread of g over periods of 2 pi / c, plus 8 p |lead|^{p-1} next_scale / (2 pi) R^-m / m
    coarse = (2.0 * float(g.max() - g.min()) * TWO_PI / spec_one.c * 2000.0 ** -2.0
              + 8.0 * (3.0 / TWO_PI) * 2000.0 ** -2.0 / 2.0)
    assert _tail_uncertainty(g, prof, spec_one, 1.0, 2000.0) == pytest.approx(
        coarse, rel=1e-12, abs=0.0)
    # |lead_a| / |lead_b| = 1.001: the expansion applies, but its aliasing
    # and curvature terms exceed the coarse bound, which is used instead
    near = DecayProfile(2, 1.0 + 0j, 0.999 + 0j, 3.0, 0.5 + 0j, 0.5j, 10.0, 4.0)
    g = _tail_samples(near, spec_one, 1.0)
    coarse = (2.0 * float(g.max() - g.min()) * TWO_PI / spec_one.c * 2000.0 ** -2.0
              + 8.0 * (3.0 / TWO_PI) * 2000.0 ** -2.0 / 2.0)
    assert sum(_sharp_tail_terms(g, near, spec_one, 1.0, 2000.0).values()) > coarse
    assert _tail_uncertainty(g, near, spec_one, 1.0, 2000.0) == pytest.approx(
        coarse, rel=1e-12, abs=0.0)
    # inside the anchors' reach, and with c = 0, the expansion is not used either
    far = DecayProfile(2, 1.0 + 0j, 0.2 + 0j, 3.0, 0.5 + 0j, 0.5j, 10.0, 4000.0)
    assert _sharp_tail_terms(_tail_samples(far, spec_one, 1.0), far, spec_one, 1.0,
                             2000.0) is None
    frozen = InnerFunctionSpec(tau=0.3, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    assert _sharp_tail_terms(_tail_samples(far, frozen, 1.0), far, frozen, 1.0,
                             8000.0) is None


def test_quadrature_failure_raises_in_callers(spec_one, monkeypatch):
    f = random_model_function(spec_one, 5, seed=11)
    real = quadrature.integrate_panels

    def short(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(quadrature, "integrate_panels", short)
    with pytest.raises(QuadratureError, match="cont_formula_derivative"):
        cont_formula_derivative(f, 0.3)


# ---------------------------------------------------- shared panel table

def _corpus_spec(name, request):
    if name == "dense":
        from test_clark import _dense_layout
        return _dense_layout()
    return request.getfixturevalue(name)


def _norm_bits(funcs, order):
    """(norm, uncertainty) bits of f and f' for p = 1, 2, 4, members in order."""
    out = {}
    for i in order:
        for p in (1.0, 2.0, 4.0):
            for derivative in (False, True):
                out[i, p, derivative] = np.array(
                    _certified_norm(funcs[i], p, derivative)).view(np.uint64).tolist()
    return out


def _tables(monkeypatch):
    """Every _PanelTable built from here on, in order."""
    built = []
    real = harness._PanelTable

    def counted(spec):
        built.append(real(spec))
        return built[-1]

    monkeypatch.setattr(harness, "_PanelTable", counted)
    return built


def _pass_bits(funcs, order):
    """_norm_bits of the members in order, all certified in one lockstep pass."""
    keys = [(i, p, derivative) for i in order for p in (1.0, 2.0, 4.0)
            for derivative in (False, True)]
    masses = _certified_masses([(funcs[i], p, derivative) for i, p, derivative in keys])
    return {key: np.array([mass ** (1.0 / key[1]), unc]).view(np.uint64).tolist()
            for key, (mass, unc, _) in zip(keys, masses)}


@pytest.mark.parametrize("tau, c", [(0.0, 2.0), (0.7, 1.5)])
def test_spec_without_zeros_takes_no_panel_table(tau, c, monkeypatch):
    # a zero-free Theta is one exponential: each group of rows evaluates it
    # afresh, with the bits of one norm at a time
    spec = InnerFunctionSpec(tau=tau, c=c)
    funcs = [random_model_function(spec, 5, seed=s) for s in (7, 8)]
    plain = _norm_bits(funcs, [0, 1])
    built = _tables(monkeypatch)
    assert _pass_bits(funcs, [1, 0]) == plain
    assert built == []


def test_panel_table_full_after_a_few_rows_keeps_bits(spec_two, monkeypatch):
    funcs = [random_model_function(spec_two, 5, seed=s) for s in (7, 8)]
    plain = _norm_bits(funcs, [0, 1])
    monkeypatch.setattr(harness, "_PANEL_BUDGET", 3000)
    built = _tables(monkeypatch)
    assert _pass_bits(funcs, [1, 0]) == plain
    (table,) = built
    assert len(table.keys) == table.size == 5


def _count_theta_points(monkeypatch):
    points = [0]
    real = harness.evaluate

    def counted(spec, z):
        points[0] += int(np.size(z))
        return real(spec, z)

    monkeypatch.setattr(harness, "evaluate", counted)
    return points


def test_panel_table_lives_for_one_lockstep_pass(spec_two, monkeypatch):
    import gc
    import weakref

    f = random_model_function(spec_two, 5, seed=7)
    built = _tables(monkeypatch)
    lp_norm(f, 2.0)
    derivative_lp_norm(f, 2.0)
    assert built == []
    _certified_masses([(f, 2.0, False), (f, 2.0, True)])
    (table,) = built
    kept = weakref.ref(table)
    del table, built[:]
    gc.collect()
    assert kept() is None


def test_norm_outside_a_corpus_command_evaluates_theta_at_every_point(spec_two, monkeypatch):
    f = random_model_function(spec_two, 5, seed=7)
    points = _count_theta_points(monkeypatch)
    integrand = [0]
    real = quadrature.integrate_panels

    def counted(fn, *args, **kwargs):
        def values(x):
            integrand[0] += int(np.size(x))
            return fn(x)
        return real(values, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_panels", counted)
    lp_norm(f, 2.0)
    derivative_lp_norm(f, 2.0)
    assert points[0] >= integrand[0] > 0


def test_cli_drops_the_panel_table(tmp_path, monkeypatch):
    import gc
    import json

    from modelspace.cli import main

    points = _count_theta_points(monkeypatch)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "command": "certify-bernstein",
        "inner": {"c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 0.5}]},
        "params": {"p": [2], "size": 3}}), encoding="utf-8")
    runs = []
    for _ in range(2):
        points[0] = 0
        assert main(["--config", str(config), "--out", str(tmp_path)]) == 0
        runs.append(points[0])
        gc.collect()
        assert not any(isinstance(o, harness._PanelTable) for o in gc.get_objects())
    assert runs[0] == runs[1] > 0


def test_corpus_passes_share_one_panel_table(spec_two, monkeypatch):
    # the normalisation pass and a later norm pass start from the same
    # panels: through one table the later pass evaluates Theta at fewer
    # points, with the bits of a pass on a table of its own
    seeds = [5, 1005, 2005]
    items = lambda funcs: [(f, p, derivative) for p in (1.0, 2.0) for f in funcs
                           for derivative in (True, False)]
    alone = harness._random_model_functions(spec_two, 5, seeds)
    want = [np.array(n).view(np.uint64).tolist() for n in harness._corpus_norms(items(alone))]
    points = _count_theta_points(monkeypatch)
    list(harness._corpus_norms(items(alone)))
    unshared = points[0]
    built = _tables(monkeypatch)
    table = harness._panel_table(spec_two)
    funcs = harness._random_model_functions(spec_two, 5, seeds, table)
    points[0] = 0
    got = [np.array(n).view(np.uint64).tolist() for n in harness._corpus_norms(items(funcs), table)]
    assert got == want and built == [table]
    assert 0 < points[0] < unshared
    assert harness._panel_table(InnerFunctionSpec(c=1.0)) is None


@pytest.mark.parametrize("command, params", [
    ("certify-bernstein", {"p": [2]}),
    ("certify-sieve", {"p": [2], "deltas": [0.5]}),
    ("lemma-checks", {"p": [2], "deltas": [1.0], "pairs": 1, "m_pairs": 1}),
])
def test_corpus_command_builds_one_panel_table(tmp_path, monkeypatch, command, params):
    import json

    from modelspace.cli import main

    built = _tables(monkeypatch)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "command": command, "measure": {"atoms": [{"x": 0.0, "mass": 1.0}]},
        "inner": {"c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 0.5}]},
        "params": {"size": 2, **params}}), encoding="utf-8")
    assert main(["--config", str(config), "--out", str(tmp_path)]) in (0, 2)
    (table,) = built
    assert table.size > 1
