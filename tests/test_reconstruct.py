"""Interpolation routes: cardinal series, oversampled sinc, kernel expansions."""
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from modelspace import reconstruct
from modelspace.clark import solve_nodes
from modelspace.harness import KernelCombination, random_model_function
from modelspace.inner import BlaschkeZero, InnerFunctionSpec, enlarge
from modelspace.kernel import SincKernelSpec, kernel_norm_sq, reproducing_kernel, sinc
from modelspace.reconstruct import (
    GridSpecMismatchError,
    SampleSet,
    clark_reconstruct,
    model_oversample_reconstruct,
    plancherel_norm,
    pw_oversample_reconstruct,
    sample_function,
    shannon_reconstruct,
    truncate_samples,
)


def uniform_samples(f, count, b):
    half = (count - 1) // 2
    return f(np.arange(-half, half + 1) * (math.pi / b))


# ------------------------------------------------------------ cardinal series

def test_shannon_is_cardinal():
    # canonical sample vectors come back exactly at the nodes
    b = 2.0
    samples = np.zeros(7)
    samples[2] = 1.0  # node k = -1
    nodes = np.arange(-3, 4) * (math.pi / b)
    out = shannon_reconstruct(samples, b, nodes)
    np.testing.assert_allclose(out, np.eye(7)[2], atol=1e-15)


def test_shannon_reconstructs_band_limited_function():
    f = lambda x: sinc(x) ** 2  # band [-2, 2], triangle spectrum
    b = 2.0
    samples = uniform_samples(f, 601, b)
    for x in (0.3, -1.77, 2.5):
        assert shannon_reconstruct(samples, b, x) == pytest.approx(f(x), abs=2e-6)


def test_shannon_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_reconstruct(np.ones(4), 1.0, 0.0)  # even count
    with pytest.raises(ValueError):
        shannon_reconstruct(np.ones(5), 0.0, 0.0)


def test_uniform_nodes_obey_the_node_limit(monkeypatch):
    # refused before numpy is asked for the nodes
    monkeypatch.setattr(np, "arange", None)
    with pytest.raises(ValueError, match="^2000000000001 nodes exceed the limit of 4194304$"):
        reconstruct._uniform_nodes(2 * 10**12 + 1, 1.0)


def test_shannon_vector_query():
    samples = uniform_samples(lambda x: sinc(x) ** 2, 201, 2.0)
    xs = np.linspace(-1.0, 1.0, 9)
    out = shannon_reconstruct(samples, 2.0, xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert shannon_reconstruct(samples, 2.0, float(x)) == pytest.approx(v)


# ------------------------------------------------------------- oversampled pw

def test_pw_oversample_matches_target():
    f = lambda x: sinc(x) ** 2
    ks = SincKernelSpec(power=2, a=0.5, c=2.0)  # b = 4, spacing pi/4
    samples = uniform_samples(f, 601, ks.b)
    for x in (0.3, -1.2, 5.0):
        assert pw_oversample_reconstruct(samples, ks, x) == pytest.approx(f(x), abs=1e-7)
    # exactness also at a sampling node, where the kernel is not cardinal
    node = 12 * math.pi / ks.b
    assert pw_oversample_reconstruct(samples, ks, node) == pytest.approx(f(node), abs=1e-7)


def test_pw_oversample_power_zero_is_shannon():
    ks = SincKernelSpec(power=0, a=1.0, c=2.0)
    samples = uniform_samples(lambda x: sinc(x) ** 2, 101, 2.0)
    xs = np.linspace(-2.0, 2.0, 11)
    np.testing.assert_allclose(
        pw_oversample_reconstruct(samples, ks, xs),
        shannon_reconstruct(samples, 2.0, xs),
        rtol=1e-13,
    )


def test_pw_oversample_truncation_beats_shannon():
    # same function, same window count: smoothed kernel truncates better
    f = lambda x: sinc(x) ** 2
    shannon_err = abs(shannon_reconstruct(uniform_samples(f, 101, 2.0), 2.0, 0.31) - f(0.31))
    ks = SincKernelSpec(power=2, a=0.5, c=2.0)
    over_err = abs(pw_oversample_reconstruct(uniform_samples(f, 101, ks.b), ks, 0.31) - f(0.31))
    assert over_err < shannon_err


# ------------------------------------------------------------ kernel expansion

def test_clark_reconstruct_kernel_combination(spec_two):
    f = random_model_function(spec_two, 5, seed=11)
    grid = solve_nodes(spec_two, 0.0, -300, 300)
    samples = sample_function(f, grid)
    xs = np.linspace(-3.0, 3.0, 21)
    rec = clark_reconstruct(samples, spec_two, xs)
    np.testing.assert_allclose(rec, f(xs), atol=2e-8)


def test_clark_exact_at_nodes(spec_two):
    f = random_model_function(spec_two, 4, seed=5)
    grid = solve_nodes(spec_two, 1.5, -50, 50)
    samples = sample_function(f, grid)
    x = float(grid.nodes[50])
    assert clark_reconstruct(samples, spec_two, x) == pytest.approx(
        complex(samples.values[50]), abs=1e-12)


def test_clark_zero_samples_give_zero(spec_one):
    grid = solve_nodes(spec_one, 0.0, -10, 10)
    samples = SampleSet(grid=grid, values=np.zeros(21))
    assert clark_reconstruct(samples, spec_one, 0.37) == 0.0


def test_clark_spec_mismatch(spec_one, spec_two):
    grid = solve_nodes(spec_one, 0.0, -10, 10)
    samples = SampleSet(grid=grid, values=np.zeros(21))
    with pytest.raises(GridSpecMismatchError):
        clark_reconstruct(samples, spec_two, 0.0)


def test_clark_linearity(spec_one):
    fa = random_model_function(spec_one, 3, seed=1)
    fb = random_model_function(spec_one, 3, seed=2)
    grid = solve_nodes(spec_one, 0.0, -40, 40)
    sa = sample_function(fa, grid)
    sb = sample_function(fb, grid)
    mix = SampleSet(grid=grid, values=1.5 * sa.values - 2j * sb.values)
    xs = np.linspace(-2.0, 2.0, 7)
    np.testing.assert_allclose(
        clark_reconstruct(mix, spec_one, xs),
        1.5 * clark_reconstruct(sa, spec_one, xs) - 2j * clark_reconstruct(sb, spec_one, xs),
        rtol=1e-12, atol=1e-15,
    )


def test_clark_agrees_with_shifted_cardinal_series():
    # exponential-only inner function: the kernel expansion at gamma = 0 is
    # termwise the cardinal series of e^{-i c0 x} f at band c0, re-modulated
    c0 = 1.0
    spec = InnerFunctionSpec(tau=0.0, c=2.0 * c0, zeros=())
    f = random_model_function(spec, 5, seed=21)
    grid = solve_nodes(spec, 0.0, -200, 200)
    samples = sample_function(f, grid)
    xs = np.linspace(-2.0, 2.0, 17)
    direct = clark_reconstruct(samples, spec, xs)
    g_samples = samples.values * np.exp(-1j * c0 * grid.nodes)
    via_shannon = np.exp(1j * c0 * xs) * shannon_reconstruct(g_samples, c0, xs)
    np.testing.assert_allclose(direct, via_shannon, rtol=1e-10, atol=1e-13)


# ----------------------------------------------------------- model oversample

def test_model_oversample_reconstructs(spec_one):
    f = random_model_function(spec_one, 5, seed=9)
    big = enlarge(spec_one, 1.0)
    grid = solve_nodes(big, 0.0, -300, 300)
    samples = sample_function(f, grid)
    xs = np.linspace(-3.0, 3.0, 13)
    rec = model_oversample_reconstruct(samples, spec_one, 1.0, 2, xs)
    np.testing.assert_allclose(rec, f(xs), atol=1e-10)


def test_model_oversample_m1(spec_one):
    f = random_model_function(spec_one, 4, seed=13)
    big = enlarge(spec_one, 0.5)
    grid = solve_nodes(big, 0.0, -300, 300)
    samples = sample_function(f, grid)
    x = 0.41
    rec = model_oversample_reconstruct(samples, spec_one, 0.5, 1, x)
    assert rec == pytest.approx(f(x), abs=1e-6)


def test_model_oversample_grid_must_be_enlarged(spec_one):
    f = random_model_function(spec_one, 3, seed=3)
    base_grid = solve_nodes(spec_one, 0.0, -20, 20)
    samples = sample_function(f, base_grid)
    with pytest.raises(GridSpecMismatchError):
        model_oversample_reconstruct(samples, spec_one, 1.0, 2, 0.0)
    big_grid = solve_nodes(enlarge(spec_one, 1.0), 0.0, -20, 20)
    ok = sample_function(f, big_grid)
    with pytest.raises(GridSpecMismatchError):
        # over_c disagrees with the grid's enlargement
        model_oversample_reconstruct(ok, spec_one, 2.0, 2, 0.0)
    with pytest.raises(ValueError):
        model_oversample_reconstruct(ok, spec_one, -1.0, 2, 0.0)
    with pytest.raises(ValueError):
        model_oversample_reconstruct(ok, spec_one, 1.0, 0, 0.0)


# -------------------------------------------------------------------- samples

def test_sample_set_shape_checked(spec_one):
    grid = solve_nodes(spec_one, 0.0, -5, 5)
    with pytest.raises(ValueError):
        SampleSet(grid=grid, values=np.zeros(7))


def test_truncate_samples(spec_one):
    grid = solve_nodes(spec_one, 0.0, -20, 20)
    f = random_model_function(spec_one, 3, seed=8)
    samples = sample_function(f, grid)
    small = truncate_samples(samples, 5)
    assert len(small.grid) == 11
    assert np.all(np.abs(small.grid.indices) <= 5)
    np.testing.assert_array_equal(small.values, samples.values[15:26])
    with pytest.raises(ValueError):
        truncate_samples(
            SampleSet(grid=solve_nodes(spec_one, 0.0, 7, 9), values=np.zeros(3)), 2)


def test_truncation_error_decreases(spec_two):
    f = random_model_function(spec_two, 5, seed=17)
    grid = solve_nodes(spec_two, 0.0, -320, 320)
    samples = sample_function(f, grid)
    xs = np.linspace(-2.0, 2.0, 33)
    errs = []
    for window in (40, 80, 160, 320):
        rec = clark_reconstruct(truncate_samples(samples, window), spec_two, xs)
        errs.append(float(np.max(np.abs(rec - f(xs)))))
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-7


# ------------------------------------------------------------------ plancherel

def test_plancherel_single_kernel(spec_two):
    grid = solve_nodes(spec_two, 0.7, -30, 30)
    x0 = float(grid.nodes[30])
    vals = reproducing_kernel(spec_two, x0, np.where(grid.nodes == x0, x0 + 1.0, grid.nodes))
    vals[30] = kernel_norm_sq(spec_two, x0)  # diagonal limit
    samples = SampleSet(grid=grid, values=vals)
    # ||k_x0|| from the node sums equals sqrt(w_0)
    assert plancherel_norm(samples) == pytest.approx(math.sqrt(grid.weights[30]), rel=1e-9)


def test_plancherel_matches_unit_norm(spec_two):
    f = random_model_function(spec_two, 5, seed=3)  # unit L^2 norm by construction
    grid = solve_nodes(spec_two, 0.0, -300, 300)
    assert plancherel_norm(sample_function(f, grid)) == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------ dense-oracle agreement

def _random_spec(rng):
    zeros = tuple(
        BlaschkeZero(rng.uniform(-6.0, 6.0), rng.uniform(0.2, 2.0), int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(0, 4))))
    return InnerFunctionSpec(tau=rng.uniform(0.0, 2.0 * math.pi),
                             c=rng.uniform(0.5, 2.0), zeros=zeros)


def _random_values(rng, count):
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


def _queries(rng, nodes):
    """57 points between nodes plus 6 exact nodes; 63 queries in all.

    The scattered points keep a quarter of a gap from the nodes: closer in,
    the dense kernel sums lose digits to cancellation (see the test of
    queries just off a node) and would no longer serve as a reference.
    """
    pick = rng.choice(np.flatnonzero(np.abs(nodes[:-1]) < 20.0), 57)
    between = nodes[pick] + rng.uniform(0.25, 0.75, 57) * (nodes[pick + 1] - nodes[pick])
    return np.concatenate([between, rng.choice(nodes[np.abs(nodes) < 15.0], 6)])


def _assert_agrees(got, want):
    assert np.shape(got) == np.shape(want)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * scale


# one query per chunk, 5 per chunk (63 = 12 * 5 + 3), and the default budget
CHUNK_QUERIES = (1, 5, None)


def _set_chunk(monkeypatch, queries, nodes):
    if queries is not None:
        monkeypatch.setattr(reconstruct, "_CHUNK_BYTES", 16 * nodes * queries)


@pytest.mark.parametrize("chunk", CHUNK_QUERIES)
@pytest.mark.parametrize("seed", range(4))
def test_band_routes_match_dense_sums(seed, chunk, monkeypatch):
    rng = np.random.default_rng(seed)
    window = int(rng.integers(50, 400))
    vals = _random_values(rng, 2 * window + 1)
    _set_chunk(monkeypatch, chunk, vals.size)
    b = rng.uniform(0.5, 3.0)
    ks = SincKernelSpec(power=int(rng.integers(0, 4)), a=rng.uniform(0.2, 1.0),
                        c=rng.uniform(0.5, 2.0))
    cases = ((shannon_reconstruct, oracles.dense_shannon, b, b),
             (pw_oversample_reconstruct, oracles.dense_pw_oversample, ks, ks.b))
    for route, oracle, param, band in cases:
        xs = _queries(rng, np.arange(-window, window + 1) * (math.pi / band))
        _assert_agrees(route(vals, param, xs), oracle(vals, param, xs))
        grid_2d = xs[:60].reshape(3, 20)
        _assert_agrees(route(vals, param, grid_2d), oracle(vals, param, grid_2d))
        got = route(vals, param, float(xs[-1]))
        assert isinstance(got, complex)
        assert got == pytest.approx(oracle(vals, param, float(xs[-1])), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("chunk", CHUNK_QUERIES)
@pytest.mark.parametrize("seed", range(4))
def test_kernel_routes_match_dense_sums(seed, chunk, monkeypatch):
    rng = np.random.default_rng(100 + seed)
    spec = _random_spec(rng)
    window = int(rng.integers(50, 400))
    gamma = rng.uniform(0.0, 2.0 * math.pi)
    over_c = rng.uniform(0.3, 2.0)
    m = int(rng.integers(1, 4))
    _set_chunk(monkeypatch, chunk, 2 * window + 1)
    grid = solve_nodes(spec, gamma, -window, window)
    big_grid = solve_nodes(enlarge(spec, over_c), gamma, -window, window)
    cases = (
        (lambda s, x: clark_reconstruct(s, spec, x),
         lambda s, x: oracles.dense_clark(s, spec, x), grid),
        (lambda s, x: model_oversample_reconstruct(s, spec, over_c, m, x),
         lambda s, x: oracles.dense_model_oversample(s, spec, over_c, m, x), big_grid),
    )
    for route, oracle, g in cases:
        samples = SampleSet(grid=g, values=_random_values(rng, len(g)))
        xs = _queries(rng, g.nodes)
        _assert_agrees(route(samples, xs), oracle(samples, xs))
        on_nodes = xs[-6:]
        idx = np.searchsorted(g.nodes, on_nodes)
        np.testing.assert_allclose(route(samples, on_nodes), samples.values[idx],
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(samples.values)))
        grid_2d = xs[:60].reshape(3, 4, 5)
        _assert_agrees(route(samples, grid_2d), oracle(samples, grid_2d))
        got = route(samples, float(xs[0]))
        assert isinstance(got, complex)
        assert got == pytest.approx(oracle(samples, float(xs[0])), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cauchy_sum_matches_allocating_loop_bits(order, monkeypatch):
    rng = np.random.default_rng(order)
    nodes = np.sort(rng.uniform(-50.0, 50.0, 301))
    xs = rng.uniform(-40.0, 40.0, 23)
    rows = rng.normal(size=(3, 301)) + 1j * rng.normal(size=(3, 301))
    budget = 16 * nodes.size * 5  # 5 queries per chunk; the last chunk holds 3
    monkeypatch.setattr(reconstruct, "_CHUNK_BYTES", budget)
    sums, j, n = reconstruct._cauchy_sum(nodes, rows, xs, order, 0.5)
    want = oracles.allocating_cauchy_sum(nodes, rows, xs, order, j, n, budget)
    assert j.size > 0
    np.testing.assert_array_equal(sums.view(np.uint64), want.view(np.uint64))


def test_cauchy_sum_memory_is_budget_plus_linear():
    rng = np.random.default_rng(7)
    nodes = np.sort(rng.uniform(-3e4, 3e4, 20001))
    xs = np.linspace(-50.0, 50.0, 1001)  # about 20 chunks of 52 queries
    rows = rng.normal(size=(2, nodes.size)) + 0j
    tracemalloc.start()
    try:
        reconstruct._cauchy_sum(nodes, rows, xs, 2, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two chunk buffers fill the budget; rows, sums and pairs are O(N + M)
    assert peak <= reconstruct._CHUNK_BYTES + 2**20


@pytest.mark.parametrize("route", ["clark", "model_oversample"])
def test_kernel_expansion_accurate_just_off_a_node(spec_two, route):
    # 1 - conj(Theta(x_n)) Theta(x) cancels next to a node; the exact phase
    # difference keeps the removable diagonal accurate down to the fill radius
    f = random_model_function(spec_two, 5, seed=4)
    if route == "clark":
        grid = solve_nodes(spec_two, 1.3, -1000, 1000)
        rec = lambda x: clark_reconstruct(sample_function(f, grid), spec_two, x)
    else:
        grid = solve_nodes(enlarge(spec_two, 1.0), 1.3, -1000, 1000)
        rec = lambda x: model_oversample_reconstruct(sample_function(f, grid), spec_two, 1.0, 2, x)
    nodes = grid.nodes[np.abs(grid.nodes) < 3.0]
    for delta in (1e-11, 1e-9, 1e-7, 1e-5):
        xs = np.concatenate([nodes + delta, nodes - delta])
        assert np.max(np.abs(rec(xs) - f(xs))) <= 1e-12, delta


def test_kernel_expansions_memory_bounded(spec_two):
    f = random_model_function(spec_two, 5, seed=2)
    grid = solve_nodes(spec_two, 0.5, -30000, 30000)
    big_grid = solve_nodes(enlarge(spec_two, 1.0), 0.5, -30000, 30000)
    samples = sample_function(f, grid)
    big_samples = sample_function(f, big_grid)
    xs = np.linspace(-50.0, 50.0, 1001)
    for run in (lambda: clark_reconstruct(samples, spec_two, xs),
                lambda: model_oversample_reconstruct(big_samples, spec_two, 1.0, 2, xs)):
        tracemalloc.start()
        try:
            rec = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.max(np.abs(rec - f(xs))) < 1e-8
