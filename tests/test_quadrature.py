"""Batched adaptive Gauss-Kronrod integrator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from modelspace import quadrature
from modelspace.quadrature import (
    QuadratureError,
    integrate,
    integrate_panels,
    two_sided_panels,
)


def test_polynomial_exact():
    # Gauss-Kronrod 15 integrates low-degree polynomials to machine precision
    for k in range(0, 12):
        res = integrate(lambda x, k=k: x ** k, 0.0, 1.0, abs_tol=1e-12)
        assert res.value == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_gaussian_integral():
    res = integrate(lambda x: np.exp(-x * x), -10.0, 10.0, abs_tol=1e-12)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert res.error_bound < 1e-10


def test_complex_integrand():
    res = integrate(lambda x: np.exp(1j * x), 0.0, math.pi, abs_tol=1e-12)
    assert res.value == pytest.approx(2j, abs=1e-12)
    assert isinstance(res.value, complex)


def test_oscillatory_vs_simpson_oracle():
    f = lambda x: np.sin(7.3 * x) ** 2 / (1.0 + x * x)
    want = oracles.simpson_richardson(f, -8.0, 8.0, n=1 << 15)
    res = integrate(f, -8.0, 8.0, abs_tol=1e-11)
    assert res.value == pytest.approx(want, abs=1e-9)


def test_needle_is_refined():
    # spike visible to the initial rule but under-resolved: forces refinement
    f = lambda x: np.exp(-((x - 0.123) ** 2) * 100.0)
    res = integrate(f, -50.0, 50.0, abs_tol=1e-13)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 10.0, rel=1e-9)
    assert res.panel_count > 30


def test_error_bound_is_honest():
    for f, a, b, exact in [
        (lambda x: np.cos(3.0 * x), 0.0, 2.0, math.sin(6.0) / 3.0),
        (lambda x: 1.0 / (1.0 + x * x), -30.0, 30.0, 2.0 * math.atan(30.0)),
    ]:
        res = integrate(f, a, b, abs_tol=1e-9)
        assert abs(res.value - exact) <= max(res.error_bound, 1e-12)


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 2.0, -2.0)


def test_nonfinite_range_rejected():
    # hi - lo overflows for the widest finite range
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308), (math.nan, 1.0),
                   (0.0, math.nan)):
        with pytest.raises(ValueError, match="not finite"):
            integrate(lambda x: x, lo, hi)


def test_max_panels_cap_respected(monkeypatch):
    # hostile integrand: refinement stops once the round-start count reaches
    # the cap, so the final count exceeds it by at most one doubling
    monkeypatch.setattr(quadrature, "MAX_PANELS", 500)
    f = lambda x: np.sin(1000.0 * x) / (1e-3 + np.abs(x))
    res = integrate(f, -1.0, 1.0, abs_tol=0.0)
    assert res.panel_count <= 2 * 500
    assert math.isfinite(res.error_bound)


@given(st.floats(min_value=0.5, max_value=40.0), st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=40)
def test_translation_invariance(width, shift):
    f = lambda x: np.exp(-((x - shift) ** 2))
    g = lambda x: np.exp(-(x ** 2))
    a = integrate(f, shift - width, shift + width, abs_tol=1e-12).value
    b = integrate(g, -width, width, abs_tol=1e-12).value
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_two_sided_panels_cover_and_symmetric():
    panels = two_sided_panels(2000.0)
    assert panels[0, 0] == -2000.0
    assert panels[-1, 1] == 2000.0
    # contiguous
    np.testing.assert_allclose(panels[1:, 0], panels[:-1, 1])
    # mirror symmetry
    np.testing.assert_allclose(panels, -panels[::-1, ::-1])
    widths = panels[:, 1] - panels[:, 0]
    assert widths.min() > 0.0


def test_integrate_panels_on_two_sided_layout():
    panels = two_sided_panels(600.0)
    res = integrate_panels(lambda x: 1.0 / (1.0 + x * x), panels, abs_tol=1e-11)
    assert res.value == pytest.approx(2.0 * math.atan(600.0), rel=1e-11)


def test_integrate_panels_reports_nonconvergence(monkeypatch):
    # an inverse square-root singularity needs far more than 32 panels
    f = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.pi))
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "MAX_PANELS", 32)
        starved = integrate_panels(f, np.array([[0.0, 1.0]]), abs_tol=1e-10)
    assert not starved.converged
    assert starved.error_bound > 1e-10
    with pytest.raises(QuadratureError, match="singular"):
        starved.require_converged("singular")
    smooth = integrate_panels(lambda x: np.exp(-x * x), np.array([[-8.0, 8.0]]), abs_tol=1e-12)
    assert smooth.converged
    assert smooth.require_converged("smooth") is smooth
    assert integrate_panels(f, np.array([[0.0, 1.0]]), abs_tol=math.inf).converged
    # no panels: nothing to integrate
    empty = integrate_panels(f, np.zeros((0, 2)), abs_tol=1e-10)
    assert (empty.value, empty.error_bound, empty.panel_count, empty.converged) == (0.0, 0.0, 0, True)


def test_long_range_initial_panels_capped():
    # four initial panels per unit of length would be 4e6 here; the
    # panelling stays within MAX_INITIAL_PANELS
    res = integrate(lambda x: np.exp(-x), 0.0, 1e6, abs_tol=1e-10)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_relative_tolerance_is_the_rough_pass_folded_in():
    # the tolerance max(floor, rel |Re I1|), I1 from the given panels, equals
    # a rough pass at infinite tolerance followed by an absolute one
    f = lambda x: np.abs(np.sin(3.0 * x) / (1.0 + x * x)) ** 1.5
    panels = two_sided_panels(400.0)
    rough = integrate_panels(f, panels, abs_tol=math.inf)
    tol = max(1e-13, 1e-10 * abs(float(np.real(rough.value))))
    two_pass = integrate_panels(f, panels, tol)
    folded = integrate_panels(f, panels, 1e-13, rel_tol=1e-10)
    assert (folded.value, folded.error_bound, folded.panel_count) == \
        (two_pass.value, two_pass.error_bound, two_pass.panel_count)


def test_lockstep_integrals_match_each_alone(monkeypatch):
    from modelspace import quadrature
    from modelspace.quadrature import _lockstep

    monkeypatch.setattr(quadrature, "_MAX_OPEN", 3)
    monkeypatch.setattr(quadrature, "_GROUP_ROWS", 40)

    shifts = np.linspace(-3.0, 3.0, 7)
    fns = [lambda x, s=s: np.exp(1j * x) / (1.0 + (x - s) ** 2) for s in shifts]
    layouts = [two_sided_panels(50.0 + 10.0 * k) for k in range(len(fns))]
    alone = [integrate_panels(f, p, 1e-12, rel_tol=1e-9) for f, p in zip(fns, layouts)]
    seen = []

    def rows(keys, counts, x):
        seen.append(len(keys))
        parts = np.split(x, np.cumsum(counts)[:-1])
        return np.concatenate([fns[k](part.ravel()) for k, part in zip(keys, parts)])

    got = dict(_lockstep(enumerate(layouts), rows, 1e-12, 1e-9))
    assert sorted(got) == list(range(len(fns)))
    for k, res in got.items():
        assert (res.value, res.error_bound, res.panel_count, res.converged) == \
            (alone[k].value, alone[k].error_bound, alone[k].panel_count, alone[k].converged)
    assert max(seen) <= 3 and max(seen) > 1


def test_lockstep_mixes_every_stopping_reason(monkeypatch):
    # one pass holds integrals that converge, hit the panel cap, stop with
    # every panel at floating-point width, or have no panels at all; each
    # keeps the result integrate_panels gives it alone
    from modelspace.quadrature import _lockstep

    monkeypatch.setattr(quadrature, "MAX_PANELS", 32)
    monkeypatch.setattr(quadrature, "_MAX_OPEN", 3)
    monkeypatch.setattr(quadrature, "_GROUP_ROWS", 4)
    step = 1.0 + 4e-14
    cases = [
        (lambda x: np.exp(-x * x), np.array([[-8.0, 8.0]])),
        (lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.pi)), np.array([[0.0, 1.0]])),
        (lambda x: np.cos(x), np.zeros((0, 2))),
        (lambda x: np.where(x < step, 0.0, 1e30), np.array([[1.0, 1.0 + 1e-13]])),
        (lambda x: 1.0 / (1.0 + x * x), np.array([[-3.0, 0.0], [0.0, 5.0]])),
        (lambda x: np.sin(x), np.zeros((0, 2))),
    ]
    alone = [integrate_panels(f, panels, 1e-12) for f, panels in cases]
    converged, capped, empty, narrow = alone[0], alone[1], alone[2], alone[3]
    assert converged.converged and converged.panel_count < 32
    assert not capped.converged and capped.panel_count >= 32
    assert empty.converged and empty.panel_count == 0
    assert not narrow.converged and narrow.panel_count == 1

    def rows(keys, counts, x):
        parts = np.split(x, np.cumsum(counts)[:-1])
        return np.concatenate([cases[k][0](part.ravel()) for k, part in zip(keys, parts)])

    got = dict(_lockstep(enumerate(panels for _, panels in cases), rows, 1e-12))
    assert sorted(got) == list(range(len(cases)))
    for k, want in enumerate(alone):
        res = got[k]
        assert np.asarray(res.value).tobytes() == np.asarray(want.value).tobytes()
        assert (res.error_bound, res.panel_count, res.converged) == \
            (want.error_bound, want.panel_count, want.converged)
