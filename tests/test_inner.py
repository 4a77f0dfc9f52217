"""Inner-function evaluation, phase bookkeeping and sup of the phase derivative."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modelspace import inner, quadrature
from modelspace.inner import (
    BlaschkeZero,
    InnerFunctionSpec,
    derivative_sup_norm,
    enlarge,
    evaluate,
    from_dict,
    phase_arrays,
    phase_derivative,
    phase_difference,
    to_dict,
)

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
rates = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
heights = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)


def zero_strategy():
    return st.builds(
        BlaschkeZero,
        re=finite,
        im=heights,
        mult=st.integers(min_value=1, max_value=3),
    )


def spec_strategy(min_zeros=0):
    return st.builds(
        InnerFunctionSpec,
        tau=finite,
        c=rates,
        zeros=st.lists(zero_strategy(), min_size=min_zeros, max_size=4).map(tuple),
    )


# ---------------------------------------------------------------- evaluation

def test_pure_exponential_values():
    spec = InnerFunctionSpec(tau=0.0, c=2.0, zeros=())
    assert evaluate(spec, 0.0) == pytest.approx(1.0)
    assert evaluate(spec, math.pi) == pytest.approx(1.0, abs=1e-14)
    assert evaluate(spec, math.pi / 4.0) == pytest.approx(1j, abs=1e-14)


def test_single_blaschke_values():
    spec = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    assert evaluate(spec, 0.0) == pytest.approx(-1.0)
    assert evaluate(spec, 1j) == pytest.approx(0.0)
    # (x - i)/(x + i) at x=1 is -i * (1 - i)/(1 - i) rotated: compute directly
    assert evaluate(spec, 1.0) == pytest.approx((1.0 - 1j) / (1.0 + 1j))


def test_rotation_factor():
    base = InnerFunctionSpec(tau=0.0, c=1.0, zeros=(BlaschkeZero(0.5, 2.0),))
    rot = InnerFunctionSpec(tau=0.7, c=1.0, zeros=(BlaschkeZero(0.5, 2.0),))
    x = np.linspace(-3.0, 3.0, 11)
    np.testing.assert_allclose(
        evaluate(rot, x), np.exp(0.7j) * evaluate(base, x), rtol=1e-13
    )


@given(spec=spec_strategy(), x=finite)
def test_unimodular_on_axis(spec, x):
    assert abs(abs(evaluate(spec, x)) - 1.0) < 1e-12


@given(spec=spec_strategy(min_zeros=1), re=finite, im=heights)
def test_contractive_upper_half_plane(spec, re, im):
    assert abs(evaluate(spec, complex(re, im))) < 1.0 + 1e-12


def test_degenerate_flag():
    assert InnerFunctionSpec(tau=1.0, c=0.0, zeros=()).is_degenerate
    assert not InnerFunctionSpec(tau=0.0, c=0.1, zeros=()).is_degenerate
    assert not InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0, 1),)).is_degenerate


def test_array_scalar_agreement():
    spec = InnerFunctionSpec(tau=0.3, c=1.5, zeros=(BlaschkeZero(-1.0, 0.5, 2),))
    xs = np.array([-2.0, 0.0, 0.25, 7.0])
    vals = evaluate(spec, xs)
    for x, v in zip(xs, vals):
        assert evaluate(spec, float(x)) == pytest.approx(v, rel=1e-14)


def _kernel_specs():
    """Seeded specs with multiplicities 1-3, plus the zero-free case."""
    rng = np.random.default_rng(20)
    specs = [InnerFunctionSpec(tau=0.4, c=1.5, zeros=())]
    for mult in (1, 2, 3):
        for _ in range(3):
            zeros = tuple(BlaschkeZero(rng.uniform(-20.0, 20.0), rng.uniform(0.01, 3.0),
                                       int(rng.integers(1, mult + 1)))
                          for _ in range(int(rng.integers(1, 6))))
            zeros += (BlaschkeZero(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 2.0), mult),)
            specs.append(InnerFunctionSpec(tau=rng.uniform(-3.0, 3.0),
                                           c=rng.uniform(0.0, 4.0), zeros=zeros))
    return specs


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_evaluate_bits_match_per_zero_product():
    rng = np.random.default_rng(21)
    for spec in _kernel_specs():
        for size in (1, 2, 3, 64, 1001):
            x = rng.uniform(-40.0, 40.0, size)
            z = x + 1j * rng.uniform(0.0, 3.0, size)
            for pts in (x, z, z.reshape(1, -1)):
                assert _same_bits(evaluate(spec, pts), oracles.blaschke_product(spec, pts))
        # a scalar gives the bits of the same point inside an array
        x = rng.uniform(-40.0, 40.0, 16)
        z = x + 1j * rng.uniform(0.0, 3.0, 16)
        for pts in (x, z):
            arr = oracles.blaschke_product(spec, pts)
            for p, want in zip(pts.tolist(), arr):
                got = evaluate(spec, p)
                assert isinstance(got, complex) and _same_bits(got, want)


def test_phase_derivative_bits_match_phase_arrays():
    rng = np.random.default_rng(22)
    for spec in _kernel_specs():
        for x in (rng.uniform(-40.0, 40.0, 257), rng.uniform(-40.0, 40.0, (3, 7))):
            want_val, want_der = oracles.summed_phase_arrays(spec, x)
            val, der = phase_arrays(spec, x)
            assert _same_bits(val, want_val) and _same_bits(der, want_der)
            assert _same_bits(phase_derivative(spec, x), der)
        x = float(rng.uniform(-40.0, 40.0))
        got = phase_derivative(spec, x)
        assert np.ndim(got) == 0 and got == oracles.summed_phase_arrays(spec, x)[1]


def _block_specs():
    """Specs with 1, 2, 32 and 33 zeros, multiplicities 1-3, and a c = 0
    spec with zeros."""
    rng = np.random.default_rng(23)
    specs = []
    for count, c in ((1, 1.5), (2, 0.7), (32, 2.0), (33, 1.0), (5, 0.0)):
        zeros = tuple(BlaschkeZero(rng.uniform(-100.0, 100.0), rng.uniform(0.05, 3.0),
                                   int(rng.integers(1, 4))) for _ in range(count))
        specs.append(InnerFunctionSpec(tau=rng.uniform(-3.0, 3.0), c=c, zeros=zeros))
    return specs


@pytest.mark.parametrize("spec", _block_specs(), ids=lambda s: f"{len(s.zeros)}-zeros-c{s.c:g}")
def test_phase_blocks_match_the_per_zero_sums(spec):
    # every batch size around the block edges, both outputs alone and together
    rng = np.random.default_rng(24)
    block = max(inner._MIN_BLOCK, inner._BLOCK_TERMS // len(spec.zeros))
    for size in (0, 1, 2, block - 1, block, block + 1, 3 * block + 7):
        x = rng.uniform(-150.0, 150.0, size)
        want_val, want_der = oracles.summed_phase_arrays(spec, x)
        val, der = phase_arrays(spec, x)
        assert _same_bits(val, want_val) and _same_bits(der, want_der)
        assert _same_bits(inner._phase_values(spec, x), want_val)
        assert _same_bits(phase_derivative(spec, x), want_der)
    x = rng.uniform(-150.0, 150.0, (3, block // 2 + 5))
    want_val, want_der = oracles.summed_phase_arrays(spec, x)
    val, der = phase_arrays(spec, x)
    assert _same_bits(val, want_val) and _same_bits(der, want_der)
    for point in rng.uniform(-150.0, 150.0, 4).tolist():
        want_val, want_der = oracles.summed_phase_arrays(spec, point)
        val, der = phase_arrays(spec, point)
        assert np.ndim(val) == np.ndim(der) == 0
        assert _same_bits(val, want_val) and _same_bits(der, want_der)
        assert _same_bits(phase_derivative(spec, point), want_der)


def test_zero_free_phase_is_linear_with_constant_derivative():
    spec = InnerFunctionSpec(tau=0.4, c=1.5)
    x = np.array([[-2.0, 0.0], [0.5, 3.0]])
    val, der = phase_arrays(spec, x)
    assert _same_bits(val, 0.4 + 1.5 * x) and _same_bits(der, np.full_like(x, 1.5))
    assert np.ndim(phase_derivative(spec, 2.0)) == 0 and phase_derivative(spec, 2.0) == 1.5


def test_stored_zero_columns_leave_the_spec_value_alone():
    import copy
    import dataclasses
    import pickle

    zeros = (BlaschkeZero(-1.0, 0.5, 2), BlaschkeZero(3.0, 1.25))
    spec = InnerFunctionSpec(tau=0.3, c=1.5, zeros=zeros)
    twin = InnerFunctionSpec(tau=0.3, c=1.5, zeros=zeros)
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    assert [f.name for f in dataclasses.fields(spec)] == ["tau", "c", "zeros"]
    assert dataclasses.asdict(spec) == dataclasses.asdict(twin)
    x = np.linspace(-5.0, 5.0, 11)
    for other in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec),
                  dataclasses.replace(spec)):
        assert other == spec and hash(other) == hash(spec)
        assert all(not col.flags.writeable for col in other._columns)
        assert _same_bits(phase_arrays(other, x), phase_arrays(spec, x))
    moved = dataclasses.replace(spec, c=2.5)
    assert moved != spec
    assert _same_bits(phase_arrays(moved, x), oracles.summed_phase_arrays(moved, x))
    with pytest.raises(ValueError):
        spec._columns[0][0, 0] = 1.0
    assert InnerFunctionSpec(c=1.0)._columns == ()


@pytest.mark.parametrize("seed", range(8))
def test_theta_and_phase_derivative_bits_do_not_depend_on_the_batch(seed):
    # the harness panel table stores rows evaluated in one batch and hands
    # them out in another, so each point's bits must not depend on its batch
    rng = np.random.default_rng(seed)
    zeros = tuple(BlaschkeZero(rng.uniform(-100.0, 100.0), rng.uniform(0.05, 3.0),
                               int(rng.integers(1, 4)))
                  for _ in range(int(rng.integers(0, 33))))
    spec = InnerFunctionSpec(tau=rng.uniform(0.0, 2.0 * math.pi), c=rng.uniform(0.0, 4.0),
                             zeros=zeros)
    # whole 15-point Kronrod rows, formed as the quadrature forms them
    mid = rng.uniform(-150.0, 150.0, 240)
    half = np.exp(rng.uniform(math.log(1e-6), math.log(300.0), 240))
    rows = mid[:, None] + half[:, None] * quadrature._XK[None, :]
    theta = evaluate(spec, rows).view(np.uint64)
    dphi = phase_derivative(spec, rows).view(np.uint64)
    assert _same_bits(evaluate(spec, rows.ravel()).view(np.uint64), theta.reshape(-1))
    for share in (0.004, 0.05, 0.3, 0.9):
        pick = rng.random(len(rows)) < share
        pick[int(rng.integers(len(rows)))] = True
        assert _same_bits(evaluate(spec, rows[pick]).view(np.uint64), theta[pick])
        assert _same_bits(phase_derivative(spec, rows[pick]).view(np.uint64), dphi[pick])


# --------------------------------------------------------------------- phase

def test_phase_linear_case():
    spec = InnerFunctionSpec(tau=0.0, c=2.0, zeros=())
    value, derivative = phase_arrays(spec, math.pi)
    assert value == pytest.approx(2.0 * math.pi)
    assert derivative == pytest.approx(2.0)


def test_phase_derivative_single_zero():
    # phi'(x) = 2 v / ((x-u)^2 + v^2), maximal value 2/v at x = u
    spec = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    assert phase_arrays(spec, 0.0)[1] == pytest.approx(2.0)
    assert phase_arrays(spec, 1.0)[1] == pytest.approx(1.0)


@given(spec=spec_strategy(), x=finite)
def test_phase_consistent_with_evaluate(spec, x):
    val = phase_arrays(spec, x)[0]
    assert abs(np.exp(1j * val) - evaluate(spec, x)) < 1e-10


@given(spec=spec_strategy(min_zeros=1), x=finite)
def test_phase_strictly_increasing(spec, x):
    h = 0.37
    assert phase_arrays(spec, x + h)[0] > phase_arrays(spec, x)[0]


@given(spec=spec_strategy(), x=finite)
@settings(max_examples=60)
def test_phase_derivative_matches_difference_quotient(spec, x):
    f = lambda t: phase_arrays(spec, t)[0]
    fd = oracles.central_diff(f, x, h=1e-5)
    assert phase_arrays(spec, x)[1] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_blaschke_branch_total_increase():
    # each factor climbs from -2 pi m to 0 across the axis
    spec = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(3.0, 2.0, 2),))
    far = 1e8
    lo = phase_arrays(spec, -far)[0]
    hi = phase_arrays(spec, far)[0]
    assert lo == pytest.approx(-4.0 * math.pi, abs=1e-6)
    assert hi == pytest.approx(0.0, abs=1e-6)


def test_phase_arrays_shape_and_values():
    spec = InnerFunctionSpec(tau=0.1, c=0.5, zeros=(BlaschkeZero(1.0, 1.0),))
    xs = np.linspace(-4.0, 4.0, 17)
    vals, ders = phase_arrays(spec, xs)
    assert vals.shape == xs.shape and ders.shape == xs.shape
    for x, v, d in zip(xs, vals, ders):
        alone, dalone = phase_arrays(spec, float(x))
        assert alone == pytest.approx(v) and dalone == pytest.approx(d)


def test_phase_difference_matches_phase_values():
    spec = InnerFunctionSpec(tau=0.4, c=0.7, zeros=(BlaschkeZero(1.0, 0.3, 2),
                                                     BlaschkeZero(-2.0, 1.5)))
    xs = np.linspace(-6.0, 6.0, 25)
    ys = xs[::-1] + 0.37  # pairs on both sides of each zero
    vx, _ = phase_arrays(spec, xs)
    vy, _ = phase_arrays(spec, ys)
    np.testing.assert_allclose(phase_difference(spec, xs, ys), vx - vy, rtol=0, atol=1e-13)


def test_phase_difference_keeps_precision_next_to_a_point():
    # phi(x + h) - phi(x) = phi'(x) h + phi''(x) h^2 / 2 + ..., with the
    # quadratic term below 1e-10 relative at h = 1e-10
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=(BlaschkeZero(0.0, 1.0), BlaschkeZero(2.0, 0.5)))
    xs = np.linspace(-30.0, 30.0, 61) + 0.123
    _, der = phase_arrays(spec, xs)
    h = 1e-10
    got = phase_difference(spec, xs + h, xs)
    np.testing.assert_allclose(got, der * ((xs + h) - xs), rtol=1e-9)


# --------------------------------------------- sup norm of the phase derivative

def test_sup_norm_no_zeros_is_rate():
    assert derivative_sup_norm(InnerFunctionSpec(tau=0.0, c=3.0, zeros=())) == 3.0


def test_sup_norm_single_zero_closed_form():
    spec = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(5.0, 0.25),))
    assert derivative_sup_norm(spec) == pytest.approx(8.0, rel=1e-12)


def test_sup_norm_matches_scan_oracle():
    spec = InnerFunctionSpec(
        tau=0.0, c=1.0, zeros=(BlaschkeZero(0.0, 1.0), BlaschkeZero(10.0, 1.0))
    )
    f = lambda xs: phase_arrays(spec, xs)[1]
    x0, _ = oracles.dense_scan_max(f, -15.0, 25.0, 1e-3)
    _, peak = oracles.golden_max(f, x0 - 2e-3, x0 + 2e-3)
    assert derivative_sup_norm(spec) == pytest.approx(peak, rel=1e-9)


def test_sup_norm_is_cached_per_spec(monkeypatch):
    zeros = (BlaschkeZero(0.0, 1.0), BlaschkeZero(3.0, 0.25, 2))
    derivative_sup_norm.cache_clear()
    first = derivative_sup_norm(InnerFunctionSpec(tau=0.0, c=1.0, zeros=zeros))

    def fail(spec, x):
        raise AssertionError("sup norm recomputed for an equal spec")

    monkeypatch.setattr(inner, "_phase_second_derivative", fail)
    again = derivative_sup_norm(InnerFunctionSpec(tau=0.0, c=1.0, zeros=zeros))
    assert type(again) is float and again == first
    with pytest.raises(AssertionError):
        derivative_sup_norm(InnerFunctionSpec(tau=0.0, c=2.0, zeros=zeros))


def test_sup_norm_grid_covers_zero_clusters_only(monkeypatch):
    real = inner._phase_second_derivative
    points = []

    def counted(spec, x):
        points.append(np.size(x))
        return real(spec, x)

    monkeypatch.setattr(inner, "_phase_second_derivative", counted)
    # one grid over the whole span would hold about 4e6 points
    derivative_sup_norm.cache_clear()
    spec = InnerFunctionSpec(tau=0.0, c=1.0,
                             zeros=(BlaschkeZero(0.0, 1e-2), BlaschkeZero(1e4, 1e-2)))
    assert derivative_sup_norm(spec) > 200.0
    assert sum(points) <= 1e4
    # one grid over the whole span would hold about 4e9 points
    derivative_sup_norm.cache_clear()
    spec = InnerFunctionSpec(tau=0.0, c=1.0,
                             zeros=(BlaschkeZero(0.0, 1e-3), BlaschkeZero(1e6, 1e-3)))
    f = lambda xs: phase_arrays(spec, xs)[1]
    peaks = []
    for u in (0.0, 1e6):
        x0, _ = oracles.dense_scan_max(f, u - 1e-2, u + 1e-2, 1e-6)
        peaks.append(oracles.golden_max(f, x0 - 2e-6, x0 + 2e-6)[1])
    assert derivative_sup_norm(spec) == pytest.approx(max(peaks), rel=1e-12)
    derivative_sup_norm.cache_clear()


def test_sup_norm_bisection_stops_at_float_spacing(monkeypatch):
    real = inner._phase_second_derivative
    calls = []

    def counted(spec, x):
        calls.append(np.size(x))
        return real(spec, x)

    monkeypatch.setattr(inner, "_phase_second_derivative", counted)
    # brackets near 1e6 stop shrinking at a float spacing of 1.2e-10, far
    # above the width target of 1e-12: 1 grid pass and 31 bisection rounds
    derivative_sup_norm.cache_clear()
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=(BlaschkeZero(1e6, 1.0),))
    assert derivative_sup_norm(spec) == oracles.full_round_sup_norm(spec)
    assert len(calls) == 32
    derivative_sup_norm.cache_clear()


def test_sup_norm_bits_match_full_rounds(spec_one, spec_two):
    rng = np.random.default_rng(11)
    # 32 zeros on a Latin hypercube over Re in [-100, 100], Im in [0.25, 2]
    heights = rng.permutation(32)
    dense = InnerFunctionSpec(tau=0.0, c=1.0, zeros=tuple(
        BlaschkeZero(-100.0 + 200.0 * (k + rng.random()) / 32,
                     0.25 + 1.75 * (heights[k] + rng.random()) / 32) for k in range(32)))
    far = InnerFunctionSpec(tau=0.0, c=1.0,
                            zeros=(BlaschkeZero(0.0, 1e-3), BlaschkeZero(1e6, 1e-3)))
    randoms = [InnerFunctionSpec(
        tau=rng.uniform(-3.0, 3.0), c=rng.uniform(0.05, 4.0),
        zeros=tuple(BlaschkeZero(rng.uniform(-10.0, 10.0) * 10.0 ** rng.integers(0, 6),
                                 rng.uniform(0.05, 3.0), int(rng.integers(1, 4)))
                    for _ in range(int(rng.integers(1, 5))))) for _ in range(40)]
    for spec in [spec_one, spec_two, dense, far] + randoms:
        derivative_sup_norm.cache_clear()
        assert derivative_sup_norm(spec) == oracles.full_round_sup_norm(spec), spec
    derivative_sup_norm.cache_clear()


@given(spec=spec_strategy(min_zeros=1), x=finite)
@settings(max_examples=60)
def test_sup_norm_dominates_pointwise(spec, x):
    assert derivative_sup_norm(spec) >= phase_arrays(spec, x)[1] - 1e-9


# ------------------------------------------------------------------- enlarge

def test_enlarge_adds_rate():
    spec = InnerFunctionSpec(tau=0.2, c=2.0, zeros=(BlaschkeZero(0.0, 1.0),))
    big = enlarge(spec, 1.0)
    assert big == InnerFunctionSpec(tau=0.2, c=3.0, zeros=spec.zeros)
    # multiplicativity on the axis: Theta times e^{i x}
    factor = InnerFunctionSpec(tau=0.0, c=1.0, zeros=())
    x = 1.3
    assert evaluate(big, x) == pytest.approx(evaluate(spec, x) * evaluate(factor, x))


@given(spec=spec_strategy(), extra_c=rates, x=finite)
@settings(max_examples=60)
def test_enlarge_increases_phase_derivative(spec, extra_c, x):
    big = enlarge(spec, extra_c)
    assert phase_arrays(big, x)[1] >= phase_arrays(spec, x)[1]


def test_enlarge_rejects_negative_rate():
    with pytest.raises(ValueError):
        enlarge(InnerFunctionSpec(tau=0.0, c=1.0, zeros=()), -0.5)


# ---------------------------------------------------------------- validation

def test_zero_validation():
    with pytest.raises(ValueError):
        BlaschkeZero(0.0, 0.0)
    with pytest.raises(ValueError):
        BlaschkeZero(0.0, -1.0)
    with pytest.raises(ValueError):
        BlaschkeZero(0.0, 1.0, mult=0)
    with pytest.raises(ValueError):
        BlaschkeZero(0.0, 1.0, mult=True)
    with pytest.raises(ValueError):
        BlaschkeZero(math.inf, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        InnerFunctionSpec(tau=0.0, c=-1.0, zeros=())
    with pytest.raises(ValueError):
        InnerFunctionSpec(tau=math.nan, c=1.0, zeros=())
    with pytest.raises(ValueError):
        InnerFunctionSpec(tau=0.0, c=1.0, zeros=("not a zero",))


def test_total_multiplicity():
    spec = InnerFunctionSpec(
        tau=0.0, c=0.0, zeros=(BlaschkeZero(0, 1, 2), BlaschkeZero(1, 1, 3))
    )
    assert spec.total_multiplicity == 5


# ------------------------------------------------------------- dict round trip

def test_dict_round_trip():
    spec = InnerFunctionSpec(
        tau=0.25, c=1.75, zeros=(BlaschkeZero(-1.0, 0.5, 2), BlaschkeZero(3.0, 1.0))
    )
    assert from_dict(to_dict(spec)) == spec


def test_from_dict_defaults():
    assert from_dict({"c": 1.0}) == InnerFunctionSpec(tau=0.0, c=1.0, zeros=())


def test_from_dict_diagnostics_name_the_field():
    with pytest.raises(ValueError, match=r"inner\.c"):
        from_dict({"c": "fast"})
    with pytest.raises(ValueError, match=r"inner\.zeros\[1\]\.im"):
        from_dict({"zeros": [{"im": 1.0}, {"re": 0.0}]})
    with pytest.raises(ValueError, match=r"inner\.zeros\[0\]\.mult"):
        from_dict({"zeros": [{"im": 1.0, "mult": 1.5}]})
    with pytest.raises(ValueError, match="unknown"):
        from_dict({"c": 1.0, "speed": 2.0})
    with pytest.raises(ValueError, match=r"custom\.tau"):
        from_dict({"tau": None}, where="custom")


def test_from_dict_rejects_bool_and_bad_domain():
    with pytest.raises(ValueError):
        from_dict({"c": True})
    with pytest.raises(ValueError, match=r"zeros\[0\]"):
        from_dict({"zeros": [{"re": 0.0, "im": -2.0}]})
