"""Acceptance gate: seven certified end-to-end criteria, one summary line each.

Each test prints a single PASS/FAIL line with its headline metrics and then
asserts the criterion, including its runtime budget.  Corpora are seeded, so
every number here is reproducible bit-for-bit.
"""
import math
import time

import numpy as np
import pytest

from modelspace import sieve
from modelspace.clark import solve_nodes
from modelspace.harness import (
    bernstein_check,
    lp_norm,
    random_model_function,
)
from modelspace.inner import derivative_sup_norm, enlarge, phase_arrays
from test_harness import cont_formula_derivative
from modelspace.kernel import SincKernelSpec, sinc, xi_power_product_integral, \
    xi_product_integral, higher_power_bound
from modelspace.reconstruct import (
    clark_reconstruct,
    model_oversample_reconstruct,
    plancherel_norm,
    pw_oversample_reconstruct,
    sample_function,
    shannon_reconstruct,
    truncate_samples,
)

TWO_PI = 2.0 * math.pi

CORPUS_SIZE = 50
ANCHORS_PER_FUNCTION = 5


@pytest.fixture(scope="module")
def corpus(all_specs):
    """50 seeded unit-norm combinations per spec, shared by A4/A5/A6."""
    return [
        [random_model_function(spec, ANCHORS_PER_FUNCTION, seed=10000 * (si + 1) + i)
         for i in range(CORPUS_SIZE)]
        for si, spec in enumerate(all_specs)
    ]


def _report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'} {detail} ({elapsed:.1f}s)")


def test_a1_clark_plancherel(all_specs):
    t0 = time.perf_counter()
    xs = np.linspace(-3.0, 3.0, 101)
    worst_rel = 0.0
    worst_pl = 0.0
    for si, spec in enumerate(all_specs):
        grid = solve_nodes(spec, 0.0, -300, 300)
        for j in range(20):
            f = random_model_function(spec, ANCHORS_PER_FUNCTION, seed=1000 * (si + 1) + j)
            samples = sample_function(f, grid)
            truth = f(xs)
            rec = clark_reconstruct(samples, spec, xs)
            rel = float(np.max(np.abs(rec - truth)) / np.max(np.abs(truth)))
            worst_rel = max(worst_rel, rel)
            l2 = lp_norm(f, 2.0)
            pl = abs(plancherel_norm(samples) - l2) / l2
            worst_pl = max(worst_pl, pl)
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-5 and worst_pl < 1e-3 and elapsed < 60.0
    _report("A1", ok, f"sup_rel={worst_rel:.2e} plancherel_gap={worst_pl:.2e}", elapsed)
    assert worst_rel < 1e-5
    assert worst_pl < 1e-3
    assert elapsed < 60.0


def test_a2_oversampling_decay(spec_one):
    t0 = time.perf_counter()
    windows = np.array([25, 50, 100, 200, 400])

    # banded target offset from the grid so every sample contributes
    c = 1.0
    shift = 0.4
    target = lambda x: sinc(c * (np.asarray(x, dtype=float) - shift))
    xs = np.linspace(-1.0, 1.0, 101)

    def uniform_sup_err(reconstructor, b, window):
        nodes = np.arange(-window, window + 1) * (math.pi / b)
        return float(np.max(np.abs(reconstructor(target(nodes), xs) - target(xs))))

    shannon_errs = np.array([
        uniform_sup_err(lambda s, x: shannon_reconstruct(s, c, x), c, k) for k in windows])
    kspec = SincKernelSpec(power=2, a=0.5, c=c)
    over_errs = np.array([
        uniform_sup_err(lambda s, x: pw_oversample_reconstruct(s, kspec, x), kspec.b, k)
        for k in windows])

    shannon_slope = float(np.polyfit(np.log(windows), np.log(shannon_errs), 1)[0])
    over_slope = float(np.polyfit(np.log(windows), np.log(over_errs), 1)[0])
    strictly_smaller = bool(np.all(over_errs[windows >= 50] < shannon_errs[windows >= 50]))

    # node-grid pair: plain kernel expansion vs damped oversampled expansion
    f = random_model_function(spec_one, ANCHORS_PER_FUNCTION, seed=42)
    xg = np.linspace(-3.0, 3.0, 101)
    truth = f(xg)
    base_grid = solve_nodes(spec_one, 0.0, -400, 400)
    base_samples = sample_function(f, base_grid)
    big = enlarge(spec_one, 1.0)
    big_grid = solve_nodes(big, 0.0, -400, 400)
    big_samples = sample_function(f, big_grid)
    clark_errs = []
    model_errs = []
    for k in windows:
        rec_c = clark_reconstruct(truncate_samples(base_samples, int(k)), spec_one, xg)
        clark_errs.append(float(np.max(np.abs(rec_c - truth))))
        rec_m = model_oversample_reconstruct(
            truncate_samples(big_samples, int(k)), spec_one, 1.0, 2, xg)
        model_errs.append(float(np.max(np.abs(rec_m - truth))))
    clark_slope = float(np.polyfit(np.log(windows), np.log(clark_errs), 1)[0])
    model_slope = float(np.polyfit(np.log(windows), np.log(model_errs), 1)[0])
    slope_gain = clark_slope - model_slope

    elapsed = time.perf_counter() - t0
    ok = (-1.4 <= shannon_slope <= -0.6 and over_slope <= -1.7 and strictly_smaller
          and slope_gain >= 1.0 and elapsed < 120.0)
    _report("A2", ok,
            f"shannon_slope={shannon_slope:.2f} oversampled_slope={over_slope:.2f} "
            f"model_slope_gain={slope_gain:.2f}", elapsed)
    assert -1.4 <= shannon_slope <= -0.6
    assert over_slope <= -1.7
    assert strictly_smaller
    assert slope_gain >= 1.0
    assert elapsed < 120.0


def test_a3_product_integral_bounds():
    t0 = time.perf_counter()
    from modelspace.harness import SplitMix64

    rng = SplitMix64(314159)
    min_margin = math.inf
    for _ in range(50):
        a = -15.0 + 30.0 * rng.uniform()
        gap = 30.0 * rng.uniform()
        val = xi_product_integral(a, a + gap)
        min_margin = min(min_margin, 8.0 * math.pi / (4.0 + gap * gap) - val)

    # diagonal value against an independent composite-Simpson oracle
    import oracles
    g = lambda x: sinc(x) ** 4
    oracle = oracles.simpson_richardson(g, -3000.0, 3000.0, n=1 << 19)
    diag = xi_product_integral(0.0, 0.0)
    diag_gap = abs(diag - oracle)

    min_margin_m2 = math.inf
    for _ in range(20):
        a = -10.0 + 20.0 * rng.uniform()
        gap = 12.0 * rng.uniform()
        val = xi_power_product_integral(a, a + gap, 2)
        min_margin_m2 = min(min_margin_m2, higher_power_bound(2, gap) - val)

    elapsed = time.perf_counter() - t0
    ok = (min_margin >= 0.0 and diag_gap < 1e-8 and min_margin_m2 >= 0.0
          and elapsed < 30.0)
    _report("A3", ok,
            f"min_margin={min_margin:.3f} diag_gap={diag_gap:.1e} "
            f"min_margin_m2={min_margin_m2:.3f}", elapsed)
    assert min_margin >= 0.0
    assert diag_gap < 1e-8
    assert min_margin_m2 >= 0.0
    assert elapsed < 30.0


def test_a4_embedding_certification(all_specs, corpus_measures, corpus):
    t0 = time.perf_counter()
    deltas = (0.1, 0.5, 1.0, 2.0)
    p_values = (1.0, 2.0)
    tol = 1e-9

    densities = {(mi, d): sieve.d_mu(mu, d).value
                 for mi, mu in enumerate(corpus_measures) for d in deltas}
    violations = 0
    checks = 0
    worst_frac = 0.0
    pw_violations = 0
    for si, spec in enumerate(all_specs):
        dsup = derivative_sup_norm(spec)
        for f in corpus[si]:
            for p in p_values:
                norm = lp_norm(f, p)
                for mi, mu in enumerate(corpus_measures):
                    ratio = sieve.empirical_embedding_ratio(f, mu, p, norm)
                    for d in deltas:
                        bound = (1.0 + d * dsup) ** p * densities[(mi, d)]
                        checks += 1
                        if ratio > bound + tol * max(1.0, bound):
                            violations += 1
                        worst_frac = max(worst_frac, ratio / bound)
                        if si == 0 and p == 2.0:
                            # exponential-only spec: sharper band-limited bound,
                            # band edge = half the exponential type
                            sharp = sieve.donoho_logan_bound_p2(
                                spec.c / 2.0, d, densities[(mi, d)])
                            if ratio > sharp + tol * max(1.0, sharp):
                                pw_violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and pw_violations == 0 and elapsed < 300.0
    _report("A4", ok,
            f"checks={checks} violations={violations} pw_violations={pw_violations} "
            f"max_ratio/bound={worst_frac:.3f}", elapsed)
    assert violations == 0
    assert pw_violations == 0
    assert elapsed < 300.0


def test_a5_bernstein_certification(all_specs, corpus):
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for si, spec in enumerate(all_specs):
        for f in corpus[si]:
            for p in (1.0, 2.0, 4.0):
                lhs, rhs = bernstein_check(f, p)
                worst = max(worst, lhs / rhs)
                if lhs > rhs * (1.0 + 1e-9):
                    violations += 1

    # boundary-integral derivative spot checks
    spot_rel = 0.0
    pairs = 0
    xs_probe = (0.3, -0.8, 1.1)
    for si, spec in enumerate(all_specs):
        for f in corpus[si][:3]:
            for x in xs_probe:
                if pairs >= 25:
                    break
                exact = f.derivative(x)
                via = cont_formula_derivative(f, x)
                spot_rel = max(spot_rel, abs(via - exact) / abs(exact))
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and spot_rel < 1e-4 and pairs == 25 and elapsed < 120.0
    _report("A5", ok,
            f"max_ratio={worst:.3f} violations={violations} "
            f"cont_formula_max_rel={spot_rel:.1e}", elapsed)
    assert violations == 0
    assert spot_rel < 1e-4
    assert pairs == 25
    assert elapsed < 120.0


def _adapted_scan(mu, spec, delta, step=1e-5):
    # independent oracle: dense left endpoints, right endpoint from inverse
    # interpolation of the phase on the same fine grid
    lo, hi = mu.support_hull()
    pad = delta / spec.c + 1.0
    xs = np.arange(lo - pad, hi + pad, step)
    phi, _ = phase_arrays(spec, xs)
    a = np.arange(lo - pad, hi + step, step)
    phi_a, _ = phase_arrays(spec, a)
    b = np.interp(phi_a + delta, phi, xs)
    length = b - a
    return float(np.max(mu.window_mass(a, length) / length))


def test_a6_adapted_density(all_specs, corpus_measures, corpus):
    t0 = time.perf_counter()
    deltas = (0.1, 0.5, 1.0)
    spec_pw, spec_one, spec_two = all_specs

    # exact reduction for the linear-phase spec
    linear_gap = 0.0
    for mu in corpus_measures:
        for d in deltas:
            adapted = sieve.d_mu_theta(mu, spec_pw, d).value
            flat = sieve.d_mu(mu, d / spec_pw.c).value
            linear_gap = max(linear_gap, abs(adapted - flat))

    # sweep against the dense-scan oracle for the Blaschke specs
    scan_rel = 0.0
    adapted_density = {}
    for si, spec in ((1, spec_one), (2, spec_two)):
        for mi, mu in enumerate(corpus_measures):
            for d in deltas:
                val = sieve.d_mu_theta(mu, spec, d).value
                adapted_density[(si, mi, d)] = val
                scan = _adapted_scan(mu, spec, d)
                scan_rel = max(scan_rel, abs(val - scan) / scan)

    # measured constant in ratio <= (1 + C delta)^p D^Theta, reported only
    measured_c = -math.inf
    worst_quotient = 0.0
    p = 2.0
    for si, spec in ((1, spec_one), (2, spec_two)):
        for f in corpus[si][:10]:
            norm = lp_norm(f, p)
            for mi, mu in enumerate(corpus_measures):
                ratio = sieve.empirical_embedding_ratio(f, mu, p, norm)
                for d in deltas:
                    quotient = ratio / adapted_density[(si, mi, d)]
                    worst_quotient = max(worst_quotient, quotient)
                    measured_c = max(measured_c, (quotient ** (1.0 / p) - 1.0) / d)
    elapsed = time.perf_counter() - t0
    ok = (linear_gap < 1e-12 and scan_rel < 1e-6
          and math.isfinite(worst_quotient) and elapsed < 120.0)
    _report("A6", ok,
            f"linear_gap={linear_gap:.1e} scan_rel={scan_rel:.1e} "
            f"max_ratio/density={worst_quotient:.3f} measured_C={measured_c:.3f}",
            elapsed)
    assert linear_gap < 1e-12
    assert scan_rel < 1e-6
    assert math.isfinite(worst_quotient)
    assert elapsed < 120.0


def test_a7_node_solver(all_specs):
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_spacing_slack = math.inf
    specs = list(all_specs) + [enlarge(all_specs[2], 1.0)]
    for spec in specs:
        dsup = derivative_sup_norm(spec)
        for gamma in (0.0, 1.0, math.pi):
            grid = solve_nodes(spec, gamma, -300, 300)
            vals, _ = phase_arrays(spec, grid.nodes)
            targets = gamma + TWO_PI * grid.indices
            worst_resid = max(worst_resid, float(np.max(np.abs(vals - targets))))
            spacing = float(np.min(np.diff(grid.nodes)))
            worst_spacing_slack = min(
                worst_spacing_slack, spacing - (TWO_PI / dsup - 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst_resid < 1e-10 and worst_spacing_slack >= 0.0 and elapsed < 10.0
    _report("A7", ok,
            f"max_residual={worst_resid:.1e} spacing_slack={worst_spacing_slack:.3e}",
            elapsed)
    assert worst_resid < 1e-10
    assert worst_spacing_slack >= 0.0
    assert elapsed < 10.0
