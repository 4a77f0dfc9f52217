"""Window densities (fixed-length and phase-adapted), bounds, embedding ratios."""
import dataclasses
import math

import numpy as np
import pytest

import oracles
from modelspace import quadrature
from modelspace.clark import invert_phase
from modelspace.harness import lp_norm, random_model_function
from modelspace.inner import InnerFunctionSpec, BlaschkeZero, phase_arrays
from modelspace.kernel import sinc
from modelspace.quadrature import QuadratureError
from modelspace.sieve import (
    DensityPiece,
    DensityReport,
    MassAtom,
    MeasureSpec,
    UnsupportedSpecError,
    ZeroNormError,
    d_mu,
    d_mu_theta,
    d_mu_theta_many,
    donoho_logan_bound_p1,
    donoho_logan_bound_p2,
    empirical_embedding_ratio,
    measure_from_dict,
    measure_to_dict,
    model_sieve_bound,
    nyquist_density,
)


# ------------------------------------------------------------------ measures

def test_measure_component_validation():
    with pytest.raises(ValueError):
        MassAtom(0.0, 0.0)
    with pytest.raises(ValueError):
        MassAtom(math.inf, 1.0)
    with pytest.raises(ValueError):
        DensityPiece(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DensityPiece(0.0, 1.0, -0.5)
    with pytest.raises(TypeError):
        MeasureSpec(atoms=(1.0,))
    with pytest.raises(ValueError):
        MeasureSpec(pieces=(DensityPiece(0.0, 2.0, 1.0), DensityPiece(1.0, 3.0, 1.0)))
    # touching pieces are fine
    MeasureSpec(pieces=(DensityPiece(0.0, 1.0, 1.0), DensityPiece(1.0, 2.0, 0.5)))


def test_measure_helpers():
    mu = MeasureSpec(atoms=(MassAtom(3.0, 2.0),), pieces=(DensityPiece(-1.0, 0.0, 1.0),))
    assert not mu.is_empty
    assert mu.support_hull() == (-1.0, 3.0)
    assert MeasureSpec().is_empty
    assert MeasureSpec().support_hull() is None
    zero_density = MeasureSpec(pieces=(DensityPiece(0.0, 1.0, 0.0),))
    assert zero_density.is_empty


def test_window_mass_closed_endpoints():
    mu = MeasureSpec(atoms=(MassAtom(1.0, 5.0),))
    # atom sits on either closed endpoint
    assert mu.window_mass(1.0, 0.5) == 5.0
    assert mu.window_mass(0.5, 0.5) == 5.0
    assert mu.window_mass(1.0 + 1e-12, 0.5) == 0.0


def test_window_mass_pieces_and_vectorization():
    mu = MeasureSpec(pieces=(DensityPiece(0.0, 2.0, 1.5),))
    xs = np.array([-1.0, 0.0, 1.5, 3.0])
    out = mu.window_mass(xs, 1.0)
    np.testing.assert_allclose(out, [0.0, 1.5, 0.75, 0.0])


def test_measure_dict_round_trip():
    mu = MeasureSpec(atoms=(MassAtom(0.25, 1.0), MassAtom(-3.0, 0.5)),
                     pieces=(DensityPiece(1.0, 2.5, 0.75),))
    assert measure_from_dict(measure_to_dict(mu)) == mu


def test_measure_from_dict_diagnostics():
    with pytest.raises(ValueError, match=r"measure\.atoms\[0\]"):
        measure_from_dict({"atoms": [{"x": 0.0}]})
    with pytest.raises(ValueError, match=r"cfg\.pieces\[1\]\.h"):
        measure_from_dict(
            {"pieces": [{"l": 0.0, "r": 1.0, "h": 1.0}, {"l": 2.0, "r": 3.0, "h": "big"}]},
            where="cfg")
    with pytest.raises(ValueError, match="unknown"):
        measure_from_dict({"mass": []})
    with pytest.raises(ValueError, match=r"atoms\[0\]\.mass"):
        measure_from_dict({"atoms": [{"x": 0.0, "mass": True}]})


# ------------------------------------------------------------- window density

def test_density_lebesgue():
    mu = MeasureSpec(pieces=(DensityPiece(0.0, 1.0, 1.0),))
    assert d_mu(mu, 0.25).value == pytest.approx(1.0)
    assert d_mu(mu, 1.0).value == pytest.approx(1.0)
    assert d_mu(mu, 2.0).value == pytest.approx(0.5)


def test_density_single_atom():
    mu = MeasureSpec(atoms=(MassAtom(0.0, 1.0),))
    assert d_mu(mu, 1.0).value == pytest.approx(1.0)
    assert d_mu(mu, 0.5).value == pytest.approx(2.0)


def test_density_two_atoms():
    mu = MeasureSpec(atoms=(MassAtom(0.0, 1.0), MassAtom(0.6, 1.0)))
    assert d_mu(mu, 0.5).value == pytest.approx(2.0)      # one atom per window
    assert d_mu(mu, 0.7).value == pytest.approx(2.0 / 0.7)  # both atoms fit


def test_density_split_support():
    mu = MeasureSpec(pieces=(DensityPiece(0.0, 1.0, 1.0), DensityPiece(2.0, 2.5, 1.0)))
    assert d_mu(mu, 2.0).value == pytest.approx(0.5)


def test_density_empty_measure():
    rep = d_mu(MeasureSpec(), 1.0)
    assert rep.value == 0.0
    assert rep.witness == (0.0, 1.0)


def test_density_witness_attains_value(corpus_measures):
    for mu in corpus_measures:
        for delta in (0.3, 0.7, 1.3):
            rep = d_mu(mu, delta)
            attained = float(mu.window_mass(rep.witness[0], delta)) / delta
            assert attained == pytest.approx(rep.value, rel=1e-14)
            assert rep.witness[1] == pytest.approx(rep.witness[0] + delta)


def test_density_dominates_dense_scan(corpus_measures):
    step = 1e-5
    for mu in corpus_measures:
        lo, hi = mu.support_hull()
        for delta in (0.3, 0.7, 1.3):
            xs = np.arange(lo - delta - step, hi + step, step)
            scan = float(np.max(mu.window_mass(xs, delta))) / delta
            exact = d_mu(mu, delta).value
            heights = sum(q.height for q in mu.pieces)
            assert exact >= scan - 1e-12
            assert exact - scan <= heights * step / delta + 1e-12


def test_density_scaling_under_dilation(corpus_measures):
    # pushforward by x -> 2x: atoms move, densities halve, and the window
    # density obeys D(delta) -> D(delta/2)/2
    alpha = 2.0
    for mu in corpus_measures:
        dil = MeasureSpec(
            atoms=tuple(MassAtom(alpha * a.position, a.mass) for a in mu.atoms),
            pieces=tuple(DensityPiece(alpha * q.left, alpha * q.right, q.height / alpha)
                         for q in mu.pieces),
        )
        for delta in (0.4, 1.0, 2.2):
            want = d_mu(mu, delta / alpha).value / alpha
            assert d_mu(dil, delta).value == pytest.approx(want, rel=1e-12)


def test_density_mass_monotone_in_delta(corpus_measures):
    deltas = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 4.0])
    for mu in corpus_measures:
        masses = [d_mu(mu, float(d)).value * d for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_density_rejects_bad_delta():
    with pytest.raises(ValueError):
        d_mu(MeasureSpec(), 0.0)
    with pytest.raises(ValueError):
        d_mu_theta(MeasureSpec(), InnerFunctionSpec(tau=0.0, c=1.0), -1.0)


# ------------------------------------------------------ phase-adapted density

def test_adapted_density_linear_phase_reduces_exactly(spec_pw, corpus_measures):
    for mu in corpus_measures:
        for delta in (0.2, 1.0, 3.0):
            adapted = d_mu_theta(mu, spec_pw, delta)
            flat = d_mu(mu, delta / spec_pw.c)
            assert adapted.value == flat.value
            assert adapted.witness == flat.witness


def test_adapted_density_requires_growth():
    blaschke_only = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    with pytest.raises(UnsupportedSpecError):
        d_mu_theta(MeasureSpec(atoms=(MassAtom(0.0, 1.0),)), blaschke_only, 1.0)


def test_adapted_density_empty_measure(spec_one):
    assert d_mu_theta(MeasureSpec(), spec_one, 1.0).value == 0.0


def _adapted_scan_oracle(mu, spec, delta, step=1e-5):
    # independent search: dense left endpoints, right endpoint by inverse
    # interpolation of the phase on a fine grid
    lo, hi = mu.support_hull()
    pad = delta / spec.c + 1.0
    xs = np.arange(lo - pad, hi + pad, step)
    phi, _ = phase_arrays(spec, xs)
    a = np.arange(lo - pad, hi + step, step)
    phi_a, _ = phase_arrays(spec, a)
    b = np.interp(phi_a + delta, phi, xs)
    length = b - a
    vals = mu.window_mass(a, length) / length
    return float(np.max(vals))


def test_adapted_density_atom_vs_scan(spec_one):
    mu = MeasureSpec(atoms=(MassAtom(0.0, 1.0),))
    delta = 1.0
    rep = d_mu_theta(mu, spec_one, delta)
    scan = _adapted_scan_oracle(mu, spec_one, delta)
    assert rep.value >= scan - 1e-9
    assert rep.value == pytest.approx(scan, rel=1e-6)
    # witness intervals are genuine: correct phase increment, attained value
    a, b = rep.witness
    va, _ = phase_arrays(spec_one, np.array([a]))
    vb, _ = phase_arrays(spec_one, np.array([b]))
    assert vb[0] - va[0] == pytest.approx(delta, abs=1e-6)
    assert float(mu.window_mass(a, b - a)) / (b - a) == pytest.approx(rep.value, rel=1e-9)


def test_adapted_density_split_measure_vs_scan(spec_two):
    mu = MeasureSpec(pieces=(DensityPiece(0.0, 1.0, 1.0), DensityPiece(2.0, 2.5, 1.0)))
    for delta in (0.5, 1.5):
        rep = d_mu_theta(mu, spec_two, delta)
        scan = _adapted_scan_oracle(mu, spec_two, delta)
        assert rep.value == pytest.approx(scan, rel=1e-6)


def test_adapted_density_beats_length_density_heuristic(spec_one):
    # near the Blaschke zero the phase runs faster than c, so phase-delta
    # windows there are shorter than delta/c and the adapted density is larger
    mu = MeasureSpec(atoms=(MassAtom(0.0, 1.0),))
    adapted = d_mu_theta(mu, spec_one, 1.0).value
    flat = d_mu(mu, 1.0).value
    assert adapted > flat


def _random_measure(rng, kind):
    atoms = pieces = ()
    if kind in ("atoms", "both"):
        atoms = tuple(MassAtom(x, m) for x, m in zip(rng.uniform(-6.0, 6.0, rng.integers(1, 6)),
                                                        rng.uniform(0.1, 2.0, 5)))
    if kind in ("pieces", "both"):
        # one piece per slot of width 3, so pieces never overlap
        pieces = tuple(DensityPiece(left, left + rng.uniform(0.4, 2.5), rng.uniform(0.1, 2.0))
                       for left in np.arange(-6.0, 6.0, 3.0)[:rng.integers(1, 5)])
    return MeasureSpec(atoms=atoms, pieces=pieces)


def _random_spec(rng, count):
    zeros = tuple(BlaschkeZero(re, im, int(m)) for re, im, m in zip(
        rng.uniform(-8.0, 8.0, count), rng.uniform(0.25, 2.0, count),
        rng.integers(1, 4, count)))
    return InnerFunctionSpec(tau=rng.uniform(0.0, 6.0), c=rng.uniform(0.5, 2.0), zeros=zeros)


def _report_bits(value, witness):
    return np.array([value, *witness]).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["atoms", "pieces", "both", "empty"])
@pytest.mark.parametrize("count", [1, 3, 32])
def test_adapted_density_many_matches_per_delta_search(kind, count):
    rng = np.random.default_rng(100 * count + len(kind))
    mu = _random_measure(rng, kind)
    spec = _random_spec(rng, count)
    # unsorted with a duplicate, and a single delta
    for deltas in ([2.0, 0.3, 1.1, 0.3], [rng.uniform(0.2, 3.0)]):
        reports = d_mu_theta_many(mu, spec, deltas)
        assert [rep.delta for rep in reports] == deltas
        for delta, rep in zip(deltas, reports):
            want = oracles.per_delta_adapted_density(mu, spec, delta, invert_phase)
            assert _report_bits(rep.value, rep.witness) == _report_bits(*want)
            assert rep == d_mu_theta(mu, spec, delta)


def test_adapted_density_many_linear_phase_and_empty_list(spec_pw, corpus_measures):
    mu = corpus_measures[-1]
    # phase delta d at c = 2 is a length-d/2 window
    assert d_mu_theta_many(mu, spec_pw, [3.0, 0.2]) == [
        dataclasses.replace(d_mu(mu, d / 2.0), delta=d) for d in (3.0, 0.2)]
    assert d_mu_theta_many(mu, spec_pw, []) == []


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_adapted_density_many_rejects_any_bad_delta(spec_one, bad):
    mu = MeasureSpec(atoms=(MassAtom(0.0, 1.0),))
    for deltas in ([bad, 1.0, 2.0], [1.0, bad], [1.0, 2.0, bad]):
        with pytest.raises(ValueError, match="delta must be > 0"):
            d_mu_theta_many(mu, spec_one, deltas)
    blaschke_only = InnerFunctionSpec(tau=0.0, c=0.0, zeros=(BlaschkeZero(0.0, 1.0),))
    with pytest.raises(UnsupportedSpecError):
        d_mu_theta_many(mu, blaschke_only, [1.0, 2.0])


def test_adapted_density_scan_has_a_size_limit(spec_one):
    # a scan step of 1e-12/8 over a hull of width 200 is 1.6e15 points
    mu = MeasureSpec(pieces=(DensityPiece(-100.0, 100.0, 1.0),))
    with pytest.raises(ValueError, match="points"):
        d_mu_theta(mu, spec_one, 1e-12)
    # the limit holds for the deltas of one call together
    with pytest.raises(ValueError, match="points"):
        d_mu_theta_many(mu, spec_one, [0.02] * 64)
    assert d_mu_theta_many(mu, spec_one, [0.02]) == [d_mu_theta(mu, spec_one, 0.02)]


# --------------------------------------------------------------------- bounds

def test_band_limited_bound_p2():
    assert donoho_logan_bound_p2(math.pi, 1.0, 1.0) == pytest.approx(2.0)
    assert donoho_logan_bound_p2(1.0, 1e-9, 3.0) == pytest.approx(3.0, rel=1e-8)
    with pytest.raises(ValueError):
        donoho_logan_bound_p2(0.0, 1.0, 1.0)


def test_band_limited_bound_p1():
    want = 1.0 / sinc(0.25)
    assert donoho_logan_bound_p1(1.0, 0.5, 1.0) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        donoho_logan_bound_p1(1.0, 2.0 * math.pi, 1.0)
    with pytest.raises(ValueError):
        donoho_logan_bound_p1(1.0, 7.0, 1.0)


def test_model_sieve_bound_values(spec_pw):
    # sup |Theta'| = c = 2 for the exponential-only spec
    assert model_sieve_bound(spec_pw, 0.5, 1.0, 2.0) == pytest.approx(4.0)
    assert model_sieve_bound(spec_pw, 0.5, 2.0, 1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        model_sieve_bound(spec_pw, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        model_sieve_bound(spec_pw, 1.0, 1.0, 0.5)


def test_nyquist_density_values():
    assert nyquist_density([(0.0, 0.25)], 1.0) == pytest.approx(0.5)
    assert nyquist_density([(-5.0, 5.0)], 1.0) == pytest.approx(1.0)
    assert nyquist_density([], 1.0) == 0.0
    with pytest.raises(ValueError):
        nyquist_density([(0.0, 1.0)], 0.0)


# ----------------------------------------------------------- embedding ratios

def test_embedding_ratio_lebesgue_recovers_norm(spec_two):
    f = random_model_function(spec_two, 5, seed=4)
    mu = MeasureSpec(pieces=(DensityPiece(-60.0, 60.0, 1.0),))
    ratio = empirical_embedding_ratio(f, mu, 2.0, lp_norm(f, 2.0))
    assert 0.98 <= ratio <= 1.0 + 1e-9


def test_embedding_ratio_atoms(spec_one):
    f = random_model_function(spec_one, 5, seed=6)
    norm = lp_norm(f, 2.0)
    mu = MeasureSpec(atoms=(MassAtom(0.0, 1.0), MassAtom(0.6, 2.0)))
    want = (abs(f(0.0)) ** 2 + 2.0 * abs(f(0.6)) ** 2) / norm ** 2
    assert empirical_embedding_ratio(f, mu, 2.0, norm) == pytest.approx(want, rel=1e-9)


def test_embedding_ratio_respects_certified_bound(spec_one):
    f = random_model_function(spec_one, 5, seed=7)
    mu = MeasureSpec(atoms=(MassAtom(0.0, 1.0),))
    delta = 0.5
    dens = d_mu_theta(mu, spec_one, delta).value
    ratio = empirical_embedding_ratio(f, mu, 2.0, lp_norm(f, 2.0))
    assert ratio <= model_sieve_bound(spec_one, delta, dens, 2.0) + 1e-9


def test_embedding_ratio_argument_checks(spec_one):
    f = random_model_function(spec_one, 4, seed=2)
    with pytest.raises(ZeroNormError):
        empirical_embedding_ratio(f, MeasureSpec(), 2.0, 0.0)


def test_embedding_ratio_empty_measure_is_zero(spec_one):
    f = random_model_function(spec_one, 4, seed=2)
    assert empirical_embedding_ratio(f, MeasureSpec(), 2.0, lp_norm(f, 2.0)) == 0.0


def test_embedding_ratio_raises_when_quadrature_falls_short(spec_two, monkeypatch):
    f = random_model_function(spec_two, 5, seed=4)
    norm = lp_norm(f, 2.0)
    mu = MeasureSpec(pieces=(DensityPiece(-60.0, 60.0, 1.0),))
    real = quadrature.integrate_panels

    def short(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(quadrature, "integrate_panels", short)
    with pytest.raises(QuadratureError, match="empirical_embedding_ratio"):
        empirical_embedding_ratio(f, mu, 2.0, norm)


@pytest.fixture
def initial_panels(monkeypatch):
    """The initial panel counts of each quadrature.integrate call; more than
    4096 fails (a piece of length L once asked for 4 L, which ran out of
    memory from about L = 1e5)."""
    real, real_panels = quadrature.integrate, quadrature.integrate_panels
    asked = []

    def counted(f, panels, *args, **kwargs):
        asked.append(len(panels))
        assert len(panels) <= 4096, f"{len(panels)} initial panels"
        return real_panels(f, panels, *args, **kwargs)

    def capped(*args, **kwargs):
        monkeypatch.setattr(quadrature, "integrate_panels", counted)
        try:
            return real(*args, **kwargs)
        finally:
            monkeypatch.setattr(quadrature, "integrate_panels", real_panels)

    monkeypatch.setattr(quadrature, "integrate", capped)
    return asked


def test_embedding_ratio_of_a_long_piece_stays_small(spec_two, initial_panels):
    import tracemalloc

    f = random_model_function(spec_two, 5, seed=4)
    norm = lp_norm(f, 2.0)
    whole = MeasureSpec(pieces=(DensityPiece(0.0, 1e6, 1.0),))
    tracemalloc.start()
    try:
        ratio = empirical_embedding_ratio(f, whole, 2.0, norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    cuts = (0.0, 1e3, 1e4, 1e5, 1e6)
    parts = MeasureSpec(pieces=tuple(DensityPiece(l, r, 1.0) for l, r in zip(cuts, cuts[1:])))
    assert ratio == pytest.approx(empirical_embedding_ratio(f, parts, 2.0, norm), rel=1e-8)
    # a piece up to 1024 long keeps its four panels per unit length
    assert initial_panels == [4096, 4000, 4096, 4096, 4096]


def test_certify_sieve_with_a_long_piece(tmp_path, initial_panels):
    import json

    from modelspace.cli import main

    cfg = {"command": "certify-sieve", "inner": {"c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}]},
           "measure": {"atoms": [], "pieces": [{"l": 0.0, "r": 1e6, "h": 1e-3}]},
           "params": {"size": 2, "count": 5, "deltas": [1.0], "p": [2]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
    assert initial_panels == [4096, 4096]


def test_phase_window_objective_takes_the_phase_alone(monkeypatch):
    import modelspace.inner as inner_mod
    import modelspace.sieve as sieve_mod

    rng = np.random.default_rng(5)
    mu = _random_measure(rng, "both")
    spec = _random_spec(rng, 32)
    a = rng.uniform(-10.0, 10.0, 400)
    shifts = rng.uniform(0.2, 3.0, 400)
    vals, ends = sieve_mod._phase_window_objective(mu, spec, shifts, a)
    phi, _ = phase_arrays(spec, a)
    want = invert_phase(spec, phi + shifts)
    assert ends.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert vals.view(np.uint64).tolist() == \
        (mu.window_mass(a, want - a) / (want - a)).view(np.uint64).tolist()

    def refuse(*args):
        raise AssertionError("phi' computed")

    # with the inversion stubbed, nothing else may ask for phi'
    monkeypatch.setattr(inner_mod, "phase_derivative", refuse)
    monkeypatch.setattr(sieve_mod, "invert_phase", lambda spec, t: t)
    sieve_mod._phase_window_objective(mu, spec, shifts, a)
