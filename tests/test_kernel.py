"""Reproducing kernels, sinc smoothing kernels and product-integral bounds."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modelspace import quadrature
from modelspace.inner import BlaschkeZero, InnerFunctionSpec, phase_arrays
from modelspace.kernel import (
    DegenerateDiagonalError,
    SincKernelSpec,
    higher_power_bound,
    kernel_norm_sq,
    pw_oversample_kernel,
    reproducing_kernel,
    sinc,
    xi,
    xi_power_product_integral,
    xi_product_integral,
)
from modelspace.quadrature import QuadratureError

reals = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------- sinc

def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert sinc(math.pi / 2.0) == pytest.approx(2.0 / math.pi)
    assert sinc(-1.3) == sinc(1.3)


def test_sinc_taylor_stub_is_continuous():
    # values straddling the series/direct switchover must agree closely
    for t in (9.999e-5, 1.0001e-4):
        assert sinc(t) == pytest.approx(math.sin(t) / t, rel=1e-15)


def test_sinc_bits_match_full_taylor_expression():
    # the stub is now computed only where it is used; the bits must not move
    rng = np.random.default_rng(7)
    t = np.concatenate([
        rng.standard_normal(20000) * 10.0 ** rng.integers(-12, 3, 20000),
        rng.uniform(-2e-4, 2e-4, 20000),
        [0.0, -0.0, 1e-4, -1e-4, np.nextafter(1e-4, 0.0), np.nextafter(-1e-4, 0.0),
         1e-300, -1e-300, 5e-324, -5e-324, 1e-160, 3.0, math.pi, 1e8],
    ])
    small = np.abs(t) < 1e-4
    safe = np.where(small, 1.0, t)
    old = np.where(small, 1.0 - t * t / 6.0 + t**4 / 120.0, np.sin(safe) / safe)
    np.testing.assert_array_equal(sinc(t).view(np.uint64), old.view(np.uint64))
    assert all(sinc(float(v)) == w for v, w in zip(t[-14:], old[-14:]))


def test_sinc_array_matches_scalar():
    ts = np.array([-2.0, -1e-6, 0.0, 1e-5, 0.5, 40.0])
    out = sinc(ts)
    assert out.shape == ts.shape
    for t, v in zip(ts, out):
        assert sinc(float(t)) == v


@given(reals)
def test_sinc_envelope(t):
    cap = 1.0 if abs(t) < 1.0 else 1.0 / abs(t)
    assert abs(sinc(t)) <= cap + 1e-15


def test_xi_is_the_sinc_profile():
    assert xi is sinc


# ------------------------------------------------------------ SincKernelSpec

def test_kernel_spec_band():
    ks = SincKernelSpec(power=2, a=1.0, c=2.0)
    assert ks.b == 6.0
    assert SincKernelSpec(power=0, a=1.0, c=2.0).b == 2.0


def test_kernel_spec_validation():
    with pytest.raises(TypeError):
        SincKernelSpec(power=1.5, a=1.0, c=1.0)
    with pytest.raises(TypeError):
        SincKernelSpec(power=True, a=1.0, c=1.0)
    with pytest.raises(ValueError):
        SincKernelSpec(power=-1, a=1.0, c=1.0)
    with pytest.raises(ValueError):
        SincKernelSpec(power=1, a=0.0, c=1.0)
    with pytest.raises(ValueError):
        SincKernelSpec(power=1, a=1.0, c=-2.0)


# --------------------------------------------------------- reproducing kernel

def test_kernel_closed_form_single_zero():
    # k_i(i) = (1 - |Theta(i)|^2) / (4 pi Im(i)) with Theta(i) = 0 here
    spec = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    val = reproducing_kernel(spec, 1j, 1j)
    assert val == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-15)


def test_kernel_norm_sq_examples():
    spec = InnerFunctionSpec(tau=0.0, c=2.0 * math.pi, zeros=())
    assert kernel_norm_sq(spec, 0.0) == pytest.approx(1.0)
    one = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    assert kernel_norm_sq(one, 0.0) == pytest.approx(1.0 / math.pi)


def test_kernel_norm_sq_is_diagonal_limit():
    spec = InnerFunctionSpec(tau=0.1, c=1.0, zeros=(BlaschkeZero(0.5, 0.8),))
    x = 0.7
    eps = 1e-7
    approx = reproducing_kernel(spec, x, x + eps)
    assert approx.real == pytest.approx(kernel_norm_sq(spec, x), rel=1e-5)


def test_kernel_diagonal_rejected_on_axis():
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=())
    with pytest.raises(DegenerateDiagonalError):
        reproducing_kernel(spec, 0.5, 0.5)
    with pytest.raises(DegenerateDiagonalError):
        reproducing_kernel(spec, 0.5, np.array([0.1, 0.5]))
    # fine off the axis
    assert np.isfinite(reproducing_kernel(spec, 0.5 + 1j, 0.5 + 1j).real)


def test_kernel_rejects_lower_half_plane():
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=())
    with pytest.raises(ValueError):
        reproducing_kernel(spec, -1j, 0.0)
    with pytest.raises(ValueError):
        reproducing_kernel(spec, 0.0, np.array([1.0 - 0.5j]))


@given(
    z=st.tuples(reals, st.floats(min_value=0.1, max_value=4.0)),
    w=st.tuples(reals, st.floats(min_value=0.1, max_value=4.0)),
)
@settings(max_examples=60)
def test_kernel_hermitian_symmetry(z, w):
    spec = InnerFunctionSpec(
        tau=0.4, c=1.3, zeros=(BlaschkeZero(1.0, 0.7), BlaschkeZero(-2.0, 1.5, 2))
    )
    zz = complex(*z)
    ww = complex(*w)
    assert reproducing_kernel(spec, zz, ww) == pytest.approx(
        np.conj(reproducing_kernel(spec, ww, zz)), rel=1e-12, abs=1e-15
    )


@given(x=reals, t=reals)
@settings(max_examples=80)
def test_kernel_pointwise_bound_on_axis(x, t):
    # |k_x(t)| <= ||k_x|| ||k_t|| = sqrt(phi'(x) phi'(t)) / 2 pi
    spec = InnerFunctionSpec(tau=0.0, c=1.0, zeros=(BlaschkeZero(0.0, 1.0),))
    if abs(t - x) < 1e-6:
        # near-diagonal accuracy is covered by the norm_sq limit test
        return
    val = abs(reproducing_kernel(spec, x, t))
    cap = math.sqrt(kernel_norm_sq(spec, x) * kernel_norm_sq(spec, t))
    assert val <= cap + 1e-12


def test_kernel_vector_argument():
    spec = InnerFunctionSpec(tau=0.0, c=2.0, zeros=())
    ws = np.array([0.3, 1.0 + 0.5j, -4.0])
    out = reproducing_kernel(spec, 2.0 + 1.0j, ws)
    assert out.shape == ws.shape
    for w, v in zip(ws, out):
        assert reproducing_kernel(spec, 2.0 + 1.0j, complex(w)) == pytest.approx(v)


def test_pw_kernel_matches_sinc_formula():
    # exponential-only spec: k_x(t) = (c/2pi) e^{i c (t-x)/ ...}; check modulus
    c = 2.0
    spec = InnerFunctionSpec(tau=0.0, c=c, zeros=())
    x, t = 0.25, 1.75
    val = reproducing_kernel(spec, x, t)
    want = (c / TWO_PI) * sinc(0.5 * c * (t - x)) * np.exp(0.5j * c * (t - x))
    assert val == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------- interpolation kernel

def test_oversample_kernel_center_and_band():
    ks = SincKernelSpec(power=2, a=1.0, c=2.0)
    # center value is (c + Na)/b
    assert pw_oversample_kernel(ks, 0.0) == pytest.approx(4.0 / 6.0)


def test_oversample_kernel_power_zero_is_sinc():
    ks = SincKernelSpec(power=0, a=1.0, c=2.0)
    ts = np.linspace(-5.0, 5.0, 41)
    np.testing.assert_allclose(pw_oversample_kernel(ks, ts), sinc(2.0 * ts), rtol=1e-14)


def test_oversample_kernel_decay_envelope():
    ks = SincKernelSpec(power=2, a=1.0, c=2.0)
    edge = ks.c + ks.power * ks.a
    for t in (3.0, 10.0, 57.0):
        cap = (edge / ks.b) / (ks.a * t) ** ks.power / (edge * t)
        assert abs(pw_oversample_kernel(ks, t)) <= cap + 1e-15


def test_oversample_kernel_scalar_array_agree():
    ks = SincKernelSpec(power=1, a=0.5, c=1.0)
    ts = np.array([-2.0, 0.0, 0.31])
    out = pw_oversample_kernel(ks, ts)
    for t, v in zip(ts, out):
        assert pw_oversample_kernel(ks, float(t)) == v


# ---------------------------------------------------------- product integrals

def test_xi_product_diagonal_value():
    # integral of sinc^4 over the line is 2 pi / 3
    want = 2.0 * math.pi / 3.0
    got = xi_product_integral(0.0, 0.0)
    assert got == pytest.approx(want, abs=1e-8)
    # shift invariance
    assert xi_product_integral(5.5, 5.5) == pytest.approx(want, abs=1e-8)


def test_xi_product_matches_simpson_oracle():
    a, b = 0.3, 2.1
    f = lambda x: sinc(x - a) ** 2 * sinc(x - b) ** 2
    want = oracles.simpson_richardson(f, -60.0, 60.0, n=1 << 14)
    # oracle truncation at 60 leaves a tail below 2/(3*60^3)
    assert xi_product_integral(a, b) == pytest.approx(want, abs=1e-5)


def test_xi_product_symmetry_and_positivity():
    assert xi_product_integral(1.0, 4.0) == pytest.approx(xi_product_integral(4.0, 1.0), rel=1e-9)
    assert xi_product_integral(0.0, 25.0) > 0.0


@given(a=st.floats(min_value=-15.0, max_value=15.0), gap=st.floats(min_value=0.0, max_value=30.0))
@settings(max_examples=25)
def test_xi_product_closed_form_bound(a, gap):
    val = xi_product_integral(a, a + gap)
    assert val <= 8.0 * math.pi / (4.0 + gap * gap) + 1e-9


def test_xi_power_product_values():
    # sinc^8 integral: pi * 151/315  (Fourier convolution of B-spline weights)
    want = math.pi * 151.0 / 315.0
    assert xi_power_product_integral(0.0, 0.0, 2) == pytest.approx(want, abs=1e-7)


def test_xi_power_product_bound_sampled():
    for a, gap in [(0.0, 0.0), (-3.0, 1.5), (2.0, 7.0), (1.0, 11.5)]:
        val = xi_power_product_integral(a, a + gap, 2)
        assert val <= higher_power_bound(2, gap) + 1e-9


def test_xi_power_rejects_small_order():
    with pytest.raises(ValueError):
        xi_power_product_integral(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        xi_power_product_integral(0.0, 1.0, 2.0)


def test_higher_power_bound_table():
    assert higher_power_bound(2, 0.0) == pytest.approx(16.0 * math.pi)
    assert higher_power_bound(3, 1.0) == pytest.approx(48.0 * math.pi / 8.0)
    with pytest.raises(ValueError):
        higher_power_bound(4, 1.0)
    with pytest.raises(ValueError):
        higher_power_bound("2", 1.0)


def test_product_integrals_raise_when_quadrature_falls_short(monkeypatch):
    real = quadrature._lockstep

    def short(*args, **kwargs):
        for key, res in real(*args, **kwargs):
            yield key, dataclasses.replace(res, converged=False)

    monkeypatch.setattr(quadrature, "_lockstep", short)
    with pytest.raises(QuadratureError, match="xi_product_integral"):
        xi_product_integral(0.0, 1.5)
    with pytest.raises(QuadratureError, match="xi_power_product_integral"):
        xi_power_product_integral(0.0, 1.5, 2)
