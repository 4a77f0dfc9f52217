"""Certified norms of many functions in one lockstep quadrature.

The lockstep pass must give every item the bits, radius and error of
certifying it alone, keep at most a fixed number of integrals open, and let
the corpus commands fail with the error the one-at-a-time order meets first.
"""
import importlib.util
import json
import os
from collections import Counter

import numpy as np
import pytest

from modelspace import cli, harness, quadrature
from modelspace.inner import from_dict
from modelspace.harness import (LpNormError, _certified_mass, _certified_masses,
                                _mass_integrand, _random_model_functions,
                                bernstein_check, derivative_lp_norm, derivative_sup_norm,
                                lp_norm, random_model_function, sup_sample_check)
from test_harness import _corpus_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _alone(items):
    """(mass, uncertainty, radius) of each item certified on its own, or the
    exception that raises."""
    out = []
    for f, p, derivative in items:
        try:
            p, profile, values = _mass_integrand(f, p, derivative)
            mass, unc, _, radius = _certified_mass(values, profile, f.spec, p)
            out.append((mass, unc, radius))
        except (ValueError, ArithmeticError) as exc:
            out.append(exc)
    return out


def _bits(outcomes):
    return [repr(o) if isinstance(o, Exception)
            else (np.array(o[:2]).view(np.uint64).tolist(), o[2]) for o in outcomes]


def _items(funcs, ps=(1.0, 2.0, 4.0)):
    return [(f, p, derivative) for p in ps for f in funcs for derivative in (True, False)]


@pytest.mark.parametrize("name", ["spec_one", "spec_two", "spec_pw", "dense"])
def test_lockstep_masses_match_one_at_a_time(name, request, monkeypatch):
    spec = _corpus_spec(name, request)
    seeds = (7, 8) if name == "dense" else (7, 8, 9)
    funcs = [random_model_function(spec, 5, seed=s) for s in seeds]
    items = _items(funcs)
    want = _bits(_alone(items))
    assert _bits(_certified_masses(items)) == want
    # a window and groups smaller than the corpus
    monkeypatch.setattr(quadrature, "_MAX_OPEN", 4)
    monkeypatch.setattr(quadrature, "_GROUP_ROWS", 64)
    assert _bits(_certified_masses(items)) == want
    assert _bits(_certified_masses(items[::-1])) == want[::-1]


def test_lockstep_escalates_like_one_at_a_time(spec_one, monkeypatch):
    funcs = [random_model_function(spec_one, 5, seed=s) for s in (7, 8)]
    items = _items(funcs, ps=(1.0, 2.0))
    # p = 1 needs R = 8000 or 32000 at this tolerance, p = 2 certifies at 2000
    monkeypatch.setattr(harness, "NORM_REL_TOL", 1e-9)
    want = _alone(items)
    assert {o[2] for o in want} == {2000.0, 8000.0, 32000.0}
    monkeypatch.setattr(quadrature, "_MAX_OPEN", 3)
    # the lockstep pass integrates only the first radius; an item that does
    # not certify there climbs the later radii of _certified_mass alone
    real, real_p_mass = harness._certified_mass, harness._p_mass
    calls, radii = [], []

    def counted(values, profile, spec, p, *rest):
        calls.append((p, profile))
        return real(values, profile, spec, p, *rest)

    def p_mass(values, profile, spec, p, radius):
        radii.append(radius)
        return real_p_mass(values, profile, spec, p, radius)

    monkeypatch.setattr(harness, "_certified_mass", counted)
    monkeypatch.setattr(harness, "_p_mass", p_mass)
    assert _bits(_certified_masses(items)) == _bits(want)
    # (p, tail profile) names each item: the functions differ, and so do f and f'
    escalated = [_mass_integrand(*item)[:2] for item, o in zip(items, want) if o[2] > 2000.0]
    assert len(set(escalated)) == len(escalated)
    assert Counter(calls) == Counter(escalated)
    # no escalated item integrates its R = 2000 interior a second time
    assert radii and 2000.0 not in radii
    # here p = 2 fails at the last radius, and so does p = 1 for some items
    monkeypatch.setattr(harness, "NORM_REL_TOL", 5e-11)
    want = _alone(items)
    assert any(isinstance(o, LpNormError) for o in want)
    assert _bits(_certified_masses(items)) == _bits(want)


def test_lockstep_reports_each_items_own_error(spec_one, spec_pw):
    bad_p = (random_model_function(spec_one, 5, seed=3), 0.5, False)
    slow = (random_model_function(spec_one, 2, seed=3), 1.0, False)
    good = (random_model_function(spec_one, 5, seed=4), 2.0, True)
    items = [good, bad_p, slow, good]
    got = _certified_masses(items)
    assert _bits(got) == _bits(_alone(items))
    assert isinstance(got[1], ValueError) and isinstance(got[2], LpNormError)
    assert "too slow to integrate" in str(got[2])
    with pytest.raises(ValueError, match="common spec"):
        _certified_masses([good, (random_model_function(spec_pw, 5, seed=3), 2.0, False)])


@pytest.mark.parametrize("name", ["spec_one", "spec_two", "spec_pw"])
def test_bernstein_check_matches_its_norms_one_at_a_time(name, request):
    spec = request.getfixturevalue(name)
    for f in [random_model_function(spec, 5, seed=s) for s in (7, 8)]:
        for p in (1.0, 2.0, 4.0):
            want = (derivative_lp_norm(f, p), derivative_sup_norm(f.spec) * lp_norm(f, p))
            assert np.array(bernstein_check(f, p)).tobytes() == np.array(want).tobytes()


def _track_open(monkeypatch):
    """Largest number of integrals open at once in _lockstep: evaluated and
    not yet finished."""
    peak = [0]
    real = quadrature._lockstep

    def tracked(jobs, rows, *args, **kwargs):
        live = set()

        def counted(keys, counts, x):
            live.update(keys)
            peak[0] = max(peak[0], len(live))
            return rows(keys, counts, x)

        for key, res in real(jobs, counted, *args, **kwargs):
            live.discard(key)
            yield key, res

    monkeypatch.setattr(quadrature, "_lockstep", tracked)
    return peak


def test_corpus_of_200_keeps_the_window(spec_two, monkeypatch):
    peak = _track_open(monkeypatch)
    seeds = list(range(1, 201))
    funcs = _random_model_functions(spec_two, 5, seeds)
    assert peak[0] == quadrature._MAX_OPEN
    for i in (0, 117, 199):
        alone = random_model_function(spec_two, 5, seeds[i])
        assert funcs[i].coefficients.tobytes() == alone.coefficients.tobytes()
        assert funcs[i].anchors.tobytes() == alone.anchors.tobytes()


def test_degenerate_first_candidate_draws_on_alone(spec_one, monkeypatch):
    # declare every first candidate degenerate: each member falls back to
    # random_model_function, which draws on from that member's stream
    monkeypatch.setattr(harness, "_certified_masses",
                        lambda items: [(0.0, 0.0, 2000.0)] * len(items))
    real = harness.random_model_function
    fallbacks = []

    def counted(spec, count, seed):
        fallbacks.append(seed)
        return real(spec, count, seed)

    monkeypatch.setattr(harness, "random_model_function", counted)
    funcs = _random_model_functions(spec_one, 5, [11, 12])
    assert fallbacks == [11, 12]
    for f, seed in zip(funcs, (11, 12)):
        assert f.coefficients.tobytes() == real(spec_one, 5, seed).coefficients.tobytes()


def _run(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    # through the module, so a tracer's binding of cli.main is used
    return cli.main(["--config", str(path), "--out", str(tmp_path)])


ONE_ZERO = {"tau": 0.0, "c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}]}


def test_bernstein_failure_names_the_first_failing_item(tmp_path, spec_one, capsys):
    # count 2 leaves the zeroth moments: the p = 1 tail decays too slowly
    cfg = {"command": "certify-bernstein", "inner": ONE_ZERO,
           "params": {"p": [2, 1], "size": 3, "count": 2, "seed": 5}}
    funcs = [random_model_function(spec_one, 2, 5 + 1000 * i) for i in range(3)]
    with pytest.raises(LpNormError) as alone:
        for p in (2.0, 1.0):
            for f in funcs:
                derivative_lp_norm(f, p)
                lp_norm(f, p)
    assert _run(tmp_path, cfg) == 1
    assert capsys.readouterr().err == f"error: {alone.value}\n"


def test_sieve_failure_names_the_first_failing_item(tmp_path, spec_one, capsys):
    cfg = {"command": "certify-sieve", "inner": ONE_ZERO,
           "measure": {"atoms": [{"x": 0.0, "mass": 1.0}], "pieces": []},
           "params": {"p": [2, 1], "size": 2, "count": 2, "seed": 5, "deltas": [1.0]}}
    funcs = [random_model_function(spec_one, 2, 5 + 1000 * i) for i in range(2)]
    with pytest.raises(LpNormError) as alone:
        for p in (2.0, 1.0):
            for f in funcs:
                lp_norm(f, p)
    assert _run(tmp_path, cfg) == 1
    assert capsys.readouterr().err == f"error: {alone.value}\n"


@pytest.mark.parametrize("inner, count, deltas", [
    # at p = 1 the window-sup sum and both norms have too slow a tail; the
    # sum fails first
    (ONE_ZERO, 2, [1.0, 0.5]),
    # at c = 0 the derivative norm fails (an oversized delta is refused
    # before the corpus is drawn, so it cannot come first here)
    ({"c": 0.0, "zeros": [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 0.5}]}, 2, [1.0, 0.5]),
], ids=["slow_tail", "exponential_type_zero"])
def test_lemma_checks_failure_names_the_first_failing_item(tmp_path, capsys, inner, count,
                                                          deltas):
    cfg = {"command": "lemma-checks", "inner": inner,
           "params": {"p": [2, 1], "deltas": deltas, "size": 2, "count": count, "seed": 5,
                      "pairs": 2, "m_pairs": 2}}
    spec = from_dict(inner)
    funcs = [random_model_function(spec, count, 5 + 1000 * i) for i in range(2)]
    with pytest.raises((ValueError, ArithmeticError)) as alone:
        for f in funcs:
            for delta in deltas:
                for p in (2.0, 1.0):
                    sup_sample_check(f, delta, p)
    assert _run(tmp_path, cfg) == 1
    assert capsys.readouterr().err == f"error: {alone.value}\n"


def test_panel_table_returns_stored_and_fresh_bits(spec_two, monkeypatch):
    rows = np.linspace(-30.0, 30.0, 4 * 15).reshape(4, 15)
    theta = harness.evaluate(spec_two, rows).ravel()
    dphi = harness.phase_derivative(spec_two, rows).ravel()
    table = harness._PanelTable(spec_two)
    for _ in range(2):
        got, der = table.values(rows)
        assert np.array_equal(got, theta) and np.array_equal(der, dphi)
        assert table.size == 1 + 4
    # a table with room for row 0 and one more stores one row and evaluates
    # the other misses fresh, twice over
    monkeypatch.setattr(harness, "_PANEL_BUDGET", 1100)
    full = harness._PanelTable(spec_two)
    assert len(full.keys) == 2
    for _ in range(2):
        got, der = full.values(rows)
        assert np.array_equal(got, theta) and np.array_equal(der, dphi)
        assert full.size == 2


def test_benchmark_tracer_binds_the_certification_path(tmp_path, spec_one):
    # perfbench/tracing.py wraps harness._p_mass, harness._certified_mass
    # (reading the radius at index 3), quadrature.integrate_panels and
    # KernelCombination.__call__/derivative by name
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    call = harness.KernelCombination.__call__
    tracer = tracing.Tracer().install()
    try:
        assert _run(tmp_path, {"command": "certify-bernstein", "inner": ONE_ZERO,
                               "params": {"p": [1, 2], "size": 2}}) == 0
        harness.derivative_lp_norm(harness.random_model_function(spec_one, 5, 3), 2.0)
    finally:
        tracer.uninstall()
    assert harness.KernelCombination.__call__ is call
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1
    # the normalisation and the derivative norm, each on its own
    assert metrics["harness.radius_2000"] == 2
    assert metrics["quadrature.integrate_panels.calls"] == 2
    assert metrics["harness.KernelCombination.derivative.points"] > 0
