"""Phase-crossing node solving, grid certification and the node CSV report."""
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modelspace import clark, cli, quadrature
from modelspace.clark import (
    RESIDUAL_TOL,
    NoNodesError,
    SamplingGrid,
    invert_phase,
    node_spacing_bounds,
    solve_nodes,
)
from modelspace.inner import (BlaschkeZero, InnerFunctionSpec, evaluate, phase_arrays,
                              phase_derivative, to_dict)
from modelspace.kernel import kernel_norm_sq, reproducing_kernel

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------- exact node grids

def test_nodes_linear_phase():
    spec = InnerFunctionSpec(tau=0.0, c=2.0, zeros=())
    grid = solve_nodes(spec, 0.0, -5, 5)
    np.testing.assert_allclose(grid.nodes, math.pi * np.arange(-5, 6), atol=1e-12)
    np.testing.assert_allclose(grid.weights, np.full(11, 1.0 / math.pi), rtol=1e-14)
    assert len(grid) == 11


def test_nodes_linear_phase_with_gamma():
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=())
    grid = solve_nodes(spec, math.pi, 0, 3)
    np.testing.assert_allclose(grid.nodes, math.pi + TWO_PI * np.arange(4), atol=1e-12)


def test_nodes_share_boundary_value(spec_two):
    gamma = 1.0
    grid = solve_nodes(spec_two, gamma, -40, 40)
    vals = evaluate(spec_two, grid.nodes)
    np.testing.assert_allclose(vals, np.exp(1j * gamma) * np.ones(len(grid)), atol=1e-9)


def test_residuals_certified_independently(spec_two):
    gamma = 2.5
    grid = solve_nodes(spec_two, gamma, -200, 200)
    vals, _ = phase_arrays(spec_two, grid.nodes)
    targets = gamma + TWO_PI * grid.indices
    resid = float(np.max(np.abs(vals - targets)))
    assert resid <= RESIDUAL_TOL
    assert grid.residual_bound <= RESIDUAL_TOL
    assert resid <= grid.residual_bound + 1e-16


def test_weights_equal_kernel_norms(spec_two):
    grid = solve_nodes(spec_two, 0.5, -30, 30)
    np.testing.assert_allclose(grid.weights, kernel_norm_sq(spec_two, grid.nodes), rtol=1e-12)
    assert np.all(grid.weights > 0.0)


# -------------------------------------------------------------- phase inverse

@given(t=st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=60)
def test_invert_phase_is_right_inverse(t, spec_two):
    x = invert_phase(spec_two, t)
    val, _ = phase_arrays(spec_two, np.array([x]))
    assert val[0] == pytest.approx(t, abs=1e-9)


def test_invert_phase_array_matches_scalar(spec_one):
    ts = np.array([-7.0, 0.0, 2.5, 31.0])
    xs = invert_phase(spec_one, ts)
    assert xs.shape == ts.shape
    for t, x in zip(ts, xs):
        assert invert_phase(spec_one, float(t)) == pytest.approx(x, abs=1e-12)


def _dense_layout(count=32, seed=1):
    """Zeros on a Latin hypercube over Re in [-100, 100], Im in [0.25, 2]."""
    rng = random.Random(seed)
    heights = list(range(count))
    rng.shuffle(heights)
    zeros = tuple(BlaschkeZero(round(-100.0 + 200.0 * (k + rng.random()) / count, 6),
                               round(0.25 + 1.75 * (heights[k] + rng.random()) / count, 6))
                  for k in range(count))
    return InnerFunctionSpec(tau=0.0, c=1.0, zeros=zeros)


def _random_spec(rng):
    zeros = tuple(BlaschkeZero(rng.uniform(-20.0, 20.0), rng.uniform(0.01, 3.0),
                               int(rng.integers(1, 4)))
                  for _ in range(int(rng.integers(1, 6))))
    return InnerFunctionSpec(tau=rng.uniform(-3.0, 3.0), c=rng.uniform(0.05, 4.0), zeros=zeros)


def _assert_matches_bisection(spec, targets):
    """Within 2 ulp(x) plus twice the rounding scale of phi over phi'.

    phi is a sum of terms up to |tau|, c|x| and 2 pi M, so it is rounded on
    the scale eps (|tau| + c|x| + 2 pi M); both solvers stop at that noise,
    which near x = 0 spans many ulp(x).
    """
    got = invert_phase(spec, targets)
    want = oracles.bisect_invert_phase(spec, targets)
    noise = np.finfo(float).eps * (abs(spec.tau) + spec.c * np.abs(want)
                                   + TWO_PI * spec.total_multiplicity)
    tol = 2.0 * (np.spacing(np.abs(want)) + noise / phase_derivative(spec, want))
    assert np.all(np.abs(got - want) <= tol)
    return got


def test_invert_phase_gives_each_target_the_same_bits_in_any_batch():
    # the lockstep adapted-density search and the panel table rest on this
    rng = np.random.default_rng(11)
    for spec in (_random_spec(rng), _random_spec(rng), _dense_layout()):
        parts = [rng.uniform(-400.0, 400.0, n) for n in (1, 7, clark._CHUNK - 3, 300)]
        whole = invert_phase(spec, np.concatenate(parts))
        alone = np.concatenate([invert_phase(spec, part) for part in parts])
        assert whole.view(np.uint64).tolist() == alone.view(np.uint64).tolist()


def test_invert_phase_matches_bisection_oracle(spec_one, spec_two):
    nodes = 0.7 + TWO_PI * np.arange(-5000, 5001)
    for spec in (spec_one, spec_two, _dense_layout()):
        got = _assert_matches_bisection(spec, nodes)
        assert np.mean(got == oracles.bisect_invert_phase(spec, nodes)) > 0.95
    rng = np.random.default_rng(7)
    for _ in range(8):
        _assert_matches_bisection(_random_spec(rng), rng.uniform(-500.0, 500.0, 2000))


def test_invert_phase_hard_specs():
    thin = InnerFunctionSpec(tau=0.3, c=1.0, zeros=(BlaschkeZero(1.0, 1e-3),))
    triple = InnerFunctionSpec(tau=-1.0, c=0.5, zeros=(BlaschkeZero(-2.0, 0.2, 3),))
    far = InnerFunctionSpec(tau=0.0, c=0.05, zeros=(BlaschkeZero(0.0, 1.0),
                                                    BlaschkeZero(1e4, 0.5)))
    for spec in (thin, triple, far):
        lo, _ = phase_arrays(spec, -1e5)
        hi, _ = phase_arrays(spec, 2e4)
        # across each zero, where the phase climbs by 2 pi m within a few v
        near = [phase_arrays(spec, z.re + z.im * np.linspace(-20.0, 20.0, 401))[0]
                for z in spec.zeros]
        # and in both tails and on a sweep between them
        targets = np.sort(np.concatenate([lo - np.geomspace(1.0, 1e3, 8),
                                          np.linspace(lo, hi, 4001),
                                          hi + np.geomspace(1.0, 1e3, 8), *near]))
        x = _assert_matches_bisection(spec, targets)
        assert np.all(np.diff(x) >= 0.0)
        # residual at the rounding of phi plus one ulp(x) step of phi
        vals, ders = phase_arrays(spec, x)
        noise = np.finfo(float).eps * (abs(spec.tau) + spec.c * np.abs(x)
                                       + TWO_PI * spec.total_multiplicity)
        assert np.all(np.abs(vals - targets) <= 2.0 * (noise + ders * np.spacing(np.abs(x))))


def test_invert_phase_keeps_target_shape(spec_two):
    ts = np.linspace(-40.0, 40.0, 12)
    flat = invert_phase(spec_two, ts)
    assert flat.shape == (12,)
    grid = invert_phase(spec_two, ts.reshape(3, 4))
    assert grid.shape == (3, 4) and np.array_equal(grid.ravel(), flat)
    single = invert_phase(spec_two, float(ts[5]))
    assert isinstance(single, float) and single == flat[5]
    assert invert_phase(spec_two, np.array([ts[5]])).shape == (1,)


def test_invert_phase_chunks_give_the_same_bits(spec_two, monkeypatch):
    ts = np.linspace(-400.0, 400.0, 1001)
    whole = invert_phase(spec_two, ts)
    monkeypatch.setattr(clark, "_CHUNK", 7)
    assert np.array_equal(invert_phase(spec_two, ts), whole)


def test_invert_phase_reports_nonconvergence(spec_two, monkeypatch):
    monkeypatch.setattr(clark, "_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="unconverged"):
        invert_phase(spec_two, np.linspace(-10.0, 10.0, 5))


def test_invert_phase_rejects_nonfinite_targets(spec_two):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            invert_phase(spec_two, np.array([0.0, bad]))


def test_invert_phase_requires_growth():
    blaschke_only = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    with pytest.raises(NoNodesError):
        invert_phase(blaschke_only, 0.3)


# ------------------------------------------------------------------- spacing

def test_spacing_linear_phase_exact():
    spec = InnerFunctionSpec(tau=0.0, c=2.0, zeros=())
    grid = solve_nodes(spec, 0.0, -10, 10)
    lo, hi = node_spacing_bounds(grid)
    assert lo == pytest.approx(math.pi, rel=1e-12)
    assert hi == pytest.approx(math.pi, rel=1e-12)


def test_spacing_respects_phase_derivative_floor(spec_one, spec_two):
    for spec in (spec_one, spec_two):
        grid = solve_nodes(spec, 0.0, -100, 100)
        lo, hi = node_spacing_bounds(grid)
        from modelspace.inner import derivative_sup_norm
        assert lo >= TWO_PI / derivative_sup_norm(spec) - 1e-12
        assert hi >= lo


def test_spacing_floor_violation_detected():
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=())
    fake = SamplingGrid(spec=spec, gamma=0.0, indices=np.arange(3),
                        nodes=np.array([0.0, 1.0, 2.0]), weights=np.ones(3))
    # true spacing floor for c=1 is 2 pi; these nodes are packed tighter
    with pytest.raises(RuntimeError):
        node_spacing_bounds(fake)


def test_spacing_needs_two_nodes(spec_one):
    grid = solve_nodes(spec_one, 0.0, 0, 0)
    with pytest.raises(ValueError):
        node_spacing_bounds(grid)


@given(g1=st.floats(min_value=0.0, max_value=6.28), g2=st.floats(min_value=0.0, max_value=6.28))
@settings(max_examples=25)
def test_grids_interlace(g1, g2, spec_two):
    # for gamma < gamma' each node of the gamma' grid sits strictly between
    # consecutive nodes of the gamma grid
    lo, hi = sorted((g1, g2))
    if hi - lo < 1e-6:
        return
    a = solve_nodes(spec_two, lo, -5, 5)
    b = solve_nodes(spec_two, hi, -5, 5)
    assert np.all(a.nodes < b.nodes)
    assert np.all(b.nodes[:-1] < a.nodes[1:])


# -------------------------------------------------------------- orthogonality

def _kernel_inner_product(spec, xn, xm, radius=20000.0):
    # interior quadrature plus the analytic mean of the 2/(4 pi^2 x^2) tail
    def f(x):
        return reproducing_kernel(spec, xn, x) * np.conj(reproducing_kernel(spec, xm, x))

    res = quadrature.integrate_panels(f, quadrature.two_sided_panels(radius), 1e-8)
    tail = 1.0 / (math.pi ** 2 * radius)
    return res.value + tail, res.error_bound


def test_clark_kernels_are_orthogonal(spec_two, spec_pw):
    for spec, pairs in ((spec_two, [(-1, 1), (0, 3)]), (spec_pw, [(0, 1)])):
        grid = solve_nodes(spec, 0.7, -4, 4)
        pos = {int(n): x for n, x in zip(grid.indices, grid.nodes)}
        for n, m in pairs:
            xn, xm = pos[n], pos[m]
            val, qerr = _kernel_inner_product(spec, xn, xm)
            scale = math.sqrt(kernel_norm_sq(spec, xn) * kernel_norm_sq(spec, xm))
            assert abs(val) / scale < 1e-6 + qerr / scale


def test_kernel_vanishes_at_other_nodes(spec_two):
    grid = solve_nodes(spec_two, 0.7, -4, 4)
    x0 = grid.nodes[4]
    others = np.delete(grid.nodes, 4)
    vals = reproducing_kernel(spec_two, x0, others)
    assert float(np.max(np.abs(vals))) < 1e-12


# ------------------------------------------------------------------- solving

def test_solve_nodes_argument_validation(spec_one):
    with pytest.raises(ValueError):
        solve_nodes(spec_one, -0.1, 0, 1)
    with pytest.raises(ValueError):
        solve_nodes(spec_one, TWO_PI, 0, 1)
    with pytest.raises(TypeError):
        solve_nodes(spec_one, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        solve_nodes(spec_one, 0.0, 3, 2)
    blaschke_only = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    with pytest.raises(NoNodesError):
        solve_nodes(blaschke_only, 0.0, 0, 1)


def test_solve_nodes_refuses_a_window_past_the_node_limit(spec_one, monkeypatch):
    # refused before numpy is asked for the indices
    monkeypatch.setattr(np, "arange", None)
    with pytest.raises(ValueError, match="^2000000000001 nodes exceed the limit of 4194304$"):
        solve_nodes(spec_one, 0.0, -10**12, 10**12)


def test_solve_nodes_large_window(spec_one):
    # |phi| reaches 1.9e6 here, where one ulp is 2.3e-10 > RESIDUAL_TOL
    grid = solve_nodes(spec_one, 0.0, -300000, 300000)
    assert len(grid) == 600001
    top = np.spacing(TWO_PI * 300000.0)
    assert grid.residual_bound <= 4.0 * top
    vals, _ = phase_arrays(spec_one, grid.nodes)
    assert np.max(np.abs(vals - TWO_PI * grid.indices)) == grid.residual_bound


def test_residual_tolerance_keeps_floor_on_small_windows():
    assert clark._residual_tolerance(TWO_PI * np.arange(-20860, 20861)) == RESIDUAL_TOL
    assert clark._residual_tolerance(np.array([2.0 ** 20])) == 4.0 * np.spacing(2.0 ** 20)


def test_grid_validation():
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=())
    ok = dict(spec=spec, gamma=0.0, indices=np.arange(2),
              nodes=np.array([0.0, 7.0]), weights=np.ones(2))
    SamplingGrid(**ok)
    with pytest.raises(ValueError):
        SamplingGrid(**{**ok, "nodes": np.array([7.0, 0.0])})
    with pytest.raises(ValueError):
        SamplingGrid(**{**ok, "weights": np.array([1.0, 0.0])})
    with pytest.raises(ValueError):
        SamplingGrid(**{**ok, "indices": np.arange(3)})
    with pytest.raises(ValueError):
        SamplingGrid(spec=spec, gamma=0.0, indices=np.array([], dtype=int),
                     nodes=np.array([]), weights=np.array([]))


# ------------------------------------------------------- node CSV via the CLI

def _nodes_report(tmp_path, spec, gamma, n_min, n_max):
    """Lines of the nodes report for the grid solve_nodes(spec, gamma, n_min, n_max)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "nodes", "inner": to_dict(spec),
                                "params": {"gamma": gamma, "n_min": n_min, "n_max": n_max}}),
                    encoding="utf-8")
    assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 0
    return (tmp_path / "nodes.csv").read_text(encoding="utf-8").split("\n")


def test_grid_csv_format(spec_two, tmp_path):
    grid = solve_nodes(spec_two, 1.0, -2, 2)
    lines = _nodes_report(tmp_path, spec_two, 1.0, -2, 2)
    headers = [l for l in lines if l.startswith("# ")]
    assert "# gamma=1" in headers and "# command=nodes" in headers
    body = lines[lines.index("n,x_n,weight") + 1:-1]
    assert len(body) == 5
    # 17 significant digits round-trip exactly
    for row, n, x, w in zip(body, grid.indices, grid.nodes, grid.weights):
        sn, sx, sw = row.split(",")
        assert int(sn) == n
        assert float(sx) == x
        assert float(sw) == w


@pytest.mark.parametrize("block", [5, 8192])
def test_grid_csv_rows_match_per_row_format(spec_two, block, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_BLOCK", block)
    grid = solve_nodes(spec_two, 2.5, -40, 7)
    lines = _nodes_report(tmp_path, spec_two, 2.5, -40, 7)
    body = lines[lines.index("n,x_n,weight") + 1:-1]
    want = [f"{int(n)},{x:.17g},{w:.17g}"
            for n, x, w in zip(grid.indices, grid.nodes, grid.weights)]
    assert body == want and body[0].startswith("-40,")


def test_grid_csv_deterministic(spec_one, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    runs = [[l for l in _nodes_report(out, spec_one, 0.25, -3, 3)
             if not l.startswith("# generated_at=")] for out in (a, b)]
    assert runs[0] == runs[1]
