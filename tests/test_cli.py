"""End-to-end runs of the JSON-config command driver."""
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelspace import cli, reconstruct
from modelspace.cli import main
from modelspace.inner import from_dict


def run_cli(tmp_path, config, name="cfg.json", extra_args=()):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return main(["--config", str(path), "--out", str(tmp_path)] + list(extra_args))


def read_report(path):
    """(headers dict, column names, rows of strings)"""
    headers = {}
    columns = None
    rows = []
    for line in path.read_text(encoding="utf-8").strip().split("\n"):
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            headers[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return headers, columns, rows


def strip_timestamps(text):
    return "\n".join(l for l in text.split("\n") if not l.startswith("# generated_at="))


ONE_ZERO = {"tau": 0.0, "c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}]}
ATOM = {"atoms": [{"x": 0.0, "mass": 1.0}], "pieces": []}


# --------------------------------------------------------------------- nodes

def test_nodes_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "nodes", "inner": {"c": 2.0},
                            "params": {"n_min": -5, "n_max": 5}})
    assert rc == 0
    headers, columns, rows = read_report(tmp_path / "nodes.csv")
    assert columns == ["n", "x_n", "weight"]
    assert headers["command"] == "nodes"
    assert "generated_at" in headers
    assert len(rows) == 11
    for row in rows:
        n = int(row[0])
        assert float(row[1]) == pytest.approx(math.pi * n, abs=1e-12)
        assert float(row[2]) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_nodes_deterministic_modulo_timestamp(tmp_path):
    cfg = {"command": "nodes", "inner": ONE_ZERO,
           "params": {"gamma": 1.0, "n_min": -3, "n_max": 3}}
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run_cli(tmp_path / "a", cfg) == 0
    assert run_cli(tmp_path / "b", cfg) == 0
    ta = strip_timestamps((tmp_path / "a" / "nodes.csv").read_text(encoding="utf-8"))
    tb = strip_timestamps((tmp_path / "b" / "nodes.csv").read_text(encoding="utf-8"))
    assert ta == tb


# -------------------------------------------------------------- config errors

def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_command(tmp_path, capsys):
    assert run_cli(tmp_path, {"command": "frobnicate"}) == 1
    assert "command" in capsys.readouterr().err


def test_config_root_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_missing_required_param(tmp_path, capsys):
    assert run_cli(tmp_path, {"command": "nodes", "inner": {"c": 1.0}, "params": {}}) == 1
    assert "params.n_min" in capsys.readouterr().err


def test_bad_inner_field_path_reported(tmp_path, capsys):
    cfg = {"command": "nodes",
           "inner": {"c": 1.0, "zeros": [{"re": 0.0, "im": -1.0}]},
           "params": {"n_min": 0, "n_max": 1}}
    assert run_cli(tmp_path, cfg) == 1
    assert "inner.zeros[0]" in capsys.readouterr().err


def test_negative_threads_rejected(tmp_path, capsys):
    cfg = {"command": "nodes", "inner": {"c": 1.0}, "params": {"n_min": 0, "n_max": 1}}
    rc = run_cli(tmp_path, cfg, extra_args=["--threads", "-1"])
    assert rc == 1
    capsys.readouterr()


def test_out_naming_a_file_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "nodes", "inner": {"c": 1.0},
                               "params": {"n_min": 0, "n_max": 1}}), encoding="utf-8")
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(afile)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_report_path_is_an_error(tmp_path, capsys):
    (tmp_path / "nodes.csv").mkdir()  # the report path names a directory
    cfg = {"command": "nodes", "inner": {"c": 1.0}, "params": {"n_min": 0, "n_max": 1}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_config_flag_is_a_usage_error(capsys):
    # exit 2 is reserved for certified-inequality violations
    assert main([]) == 1
    assert "--config" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: modelspace" in capsys.readouterr().out


# --------------------------------------------------------------- reconstruct

def test_reconstruct_clark(tmp_path):
    cfg = {"command": "reconstruct", "inner": ONE_ZERO,
           "params": {"method": "clark", "window": 150, "x_count": 11, "seed": 5}}
    assert run_cli(tmp_path, cfg) == 0
    headers, columns, rows = read_report(tmp_path / "reconstruct_clark.csv")
    assert columns == ["x", "truth_re", "truth_im", "recon_re", "recon_im", "abs_error"]
    assert headers["method"] == "clark"
    assert len(rows) == 11
    errs = [float(r[5]) for r in rows]
    assert max(errs) < 1e-4
    # abs_error column is consistent with the value columns
    for r in rows:
        diff = math.hypot(float(r[3]) - float(r[1]), float(r[4]) - float(r[2]))
        assert diff == pytest.approx(float(r[5]), abs=1e-12)


def test_reconstruct_shannon_needs_zero_free_spec(tmp_path, capsys):
    cfg = {"command": "reconstruct", "inner": ONE_ZERO,
           "params": {"method": "shannon", "window": 50}}
    assert run_cli(tmp_path, cfg) == 1
    assert "without zeros" in capsys.readouterr().err


def test_reconstruct_bad_method(tmp_path, capsys):
    cfg = {"command": "reconstruct", "inner": {"c": 2.0}, "params": {"method": "dft"}}
    assert run_cli(tmp_path, cfg) == 1
    capsys.readouterr()


def test_reconstruct_rejects_a_negative_window(tmp_path, capsys):
    cfg = {"command": "reconstruct", "inner": {"c": 2.0},
           "params": {"method": "shannon", "window": -3}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == \
        "config error: params.window: expected an integer >= 0, got -3\n"


@pytest.mark.parametrize("command, params", [
    ("nodes", {"n_min": -10**12, "n_max": 10**12}),
    ("reconstruct", {"method": "shannon", "window": 10**12}),
    ("decay", {"methods": ["pw_oversample"], "windows": [10**12]}),
    ("reconstruct", {"method": "clark", "window": 10**12}),
    ("decay", {"methods": ["model_oversample"], "windows": [25, 10**12]}),
])
def test_node_window_past_the_limit_is_an_error(tmp_path, capsys, monkeypatch, command, params):
    # refused before numpy is asked for the nodes, and before the kernel
    # methods draw and certify their target
    def no_target(*args):
        raise AssertionError("target drawn before the node limit was checked")

    monkeypatch.setattr(np, "arange", None)
    monkeypatch.setattr("modelspace.harness.random_model_function", no_target)
    cfg = {"command": command, "inner": {"c": 2.0}, "params": params}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == "error: 2000000000001 nodes exceed the limit of 4194304\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["reconstruct", "decay"])
def test_query_grid_past_the_limit_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # refused before numpy is asked for the grid
    monkeypatch.setattr(np, "linspace", None)
    cfg = {"command": command, "inner": {"c": 2.0},
           "params": {"method": "shannon", "windows": [5], "x_count": 10**12}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == \
        "config error: params.x_count: 1000000000000 queries exceed the limit of 1048576\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, params, key", [
    ("reconstruct", {"method": "clark", "gamma": 7.0}, "gamma"),
    ("reconstruct", {"method": "model_oversample", "gamma": math.nan}, "gamma"),
    ("reconstruct", {"method": "model_oversample", "over_c": -1.0}, "over_c"),
    ("reconstruct", {"method": "model_oversample", "over_c": 0}, "over_c"),
    ("decay", {"methods": ["model_oversample"], "over_c": math.inf}, "over_c"),
    ("reconstruct", {"method": "model_oversample", "m": 0}, "m"),
    ("reconstruct", {"method": "shannon", "shift": math.nan}, "shift"),
    ("decay", {"methods": ["pw_oversample"], "shift": math.inf}, "shift"),
    ("decay", {"methods": ["shannon", "clark"], "gamma": -0.5}, "gamma"),
])
def test_bad_method_param_is_refused_before_any_target(tmp_path, capsys, monkeypatch,
                                                       command, params, key):
    # every method param is checked before a target is drawn and certified,
    # and before any report is written (a non-finite shift gives NaN rows)
    def no_target(*args):
        raise AssertionError("target drawn before the method params were checked")

    monkeypatch.setattr("modelspace.harness.random_model_function", no_target)
    cfg = {"command": command, "inner": {"c": 2.0},
           "params": {"window": 5, "windows": [5], "x_count": 5, **params}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err.startswith(f"config error: params.{key}: expected ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_reconstruct_output_override(tmp_path):
    cfg = {"command": "reconstruct", "inner": {"c": 2.0}, "output": "custom.csv",
           "params": {"method": "shannon", "window": 50, "x_count": 5}}
    assert run_cli(tmp_path, cfg) == 0
    assert (tmp_path / "custom.csv").exists()


# ---------------------------------------------------------------------- decay

@pytest.mark.parametrize("command, grid", [
    ("reconstruct", {"x_max": math.inf}),
    ("decay", {"x_min": -1e308, "x_max": 1e308}),
    ("decay", {"x_count": 0}),
    ("decay", {"x_min": 1.0, "x_max": -1.0}),
])
def test_query_grid_rejected(tmp_path, capsys, command, grid):
    # an infinite or overflowing range would write inf/nan rows and exit 0
    params = ({"method": "shannon", "window": 5} if command == "reconstruct"
              else {"windows": [5]})
    cfg = {"command": command, "inner": {"c": 2.0}, "params": {**params, **grid}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err.startswith("config error: need x_max > x_min")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_decay_command(tmp_path):
    cfg = {"command": "decay", "inner": {"c": 2.0},
           "params": {"windows": [25, 50, 100]}}
    assert run_cli(tmp_path, cfg) == 0
    _, cols_s, rows_s = read_report(tmp_path / "decay_shannon.csv")
    _, cols_o, rows_o = read_report(tmp_path / "decay_pw_oversample.csv")
    assert cols_s == ["K", "sup_error", "l2_error"]
    assert [r[0] for r in rows_s] == ["25", "50", "100"]
    sup_s = [float(r[1]) for r in rows_s]
    sup_o = [float(r[1]) for r in rows_o]
    # truncation error falls with the window for both routes
    assert sup_s[2] < sup_s[0]
    assert sup_o[2] < sup_o[0]
    # the smoothed kernel truncates strictly better by K = 50
    assert sup_o[1] < sup_s[1]
    assert sup_o[2] < sup_s[2]


def test_decay_rejects_fractional_windows(tmp_path, capsys):
    cfg = {"command": "decay", "inner": {"c": 2.0}, "params": {"windows": [2.5, 10.9]}}
    assert run_cli(tmp_path, cfg) == 1
    assert "params.windows[0]: expected an integer, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "decay_shannon.csv").exists()


def test_decay_rejects_an_empty_method_list(tmp_path, capsys):
    cfg = {"command": "decay", "inner": {"c": 2.0}, "params": {"methods": [], "windows": [5]}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err.startswith(
        "config error: params.methods: expected a nonempty list")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_decay_refuses_a_repeated_method(tmp_path, capsys, monkeypatch):
    # a repeat would draw and certify its target again and overwrite its report
    def no_target(*args):
        raise AssertionError("target drawn before the method list was checked")

    monkeypatch.setattr("modelspace.harness.random_model_function", no_target)
    cfg = {"command": "decay", "inner": ONE_ZERO,
           "params": {"methods": ["clark", "model_oversample", "clark"], "windows": [5]}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == ("config error: params.methods: expected each method once, "
                                       "got ['clark', 'model_oversample', 'clark']\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_decay_clark_route(tmp_path):
    cfg = {"command": "decay", "inner": ONE_ZERO,
           "params": {"methods": ["clark"], "windows": [50, 150], "seed": 3}}
    assert run_cli(tmp_path, cfg) == 0
    _, _, rows = read_report(tmp_path / "decay_clark.csv")
    assert float(rows[1][1]) < float(rows[0][1])


# -------------------------------------------------------------------- density

def test_density_command(tmp_path):
    cfg = {"command": "density", "measure": ATOM, "params": {"deltas": [1.0, 0.5]}}
    assert run_cli(tmp_path, cfg) == 0
    headers, columns, rows = read_report(tmp_path / "density.csv")
    assert columns == ["delta", "value", "witness_left", "witness_right"]
    assert headers["adapted"] == "false"
    # rows come out delta-sorted
    assert [float(r[0]) for r in rows] == [0.5, 1.0]
    assert float(rows[0][1]) == pytest.approx(2.0)
    assert float(rows[1][1]) == pytest.approx(1.0)


def test_density_adapted_linear_phase(tmp_path):
    cfg = {"command": "density", "measure": ATOM, "inner": {"c": 2.0},
           "params": {"deltas": [1.0], "adapted": True}}
    assert run_cli(tmp_path, cfg) == 0
    _, _, rows = read_report(tmp_path / "density.csv")
    # phase delta 1 at c = 2 is a length-0.5 window
    assert float(rows[0][1]) == pytest.approx(2.0)


def test_density_adapted_requires_inner(tmp_path, capsys):
    cfg = {"command": "density", "measure": ATOM,
           "params": {"deltas": [1.0], "adapted": True}}
    assert run_cli(tmp_path, cfg) == 1
    assert "inner" in capsys.readouterr().err


def test_density_adapted_scan_limit_is_an_error(tmp_path, capsys):
    # a scan step of 1e-9/8 over [0, 1] would be an 8e9-point array
    cfg = {"command": "density", "inner": ONE_ZERO,
           "measure": {"atoms": [], "pieces": [{"l": 0.0, "r": 1.0, "h": 1.0}]},
           "params": {"deltas": [1e-9], "adapted": True}}
    assert run_cli(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "points" in err
    assert not (tmp_path / "density.csv").exists()


def test_density_requires_deltas(tmp_path, capsys):
    assert run_cli(tmp_path, {"command": "density", "measure": ATOM, "params": {}}) == 1
    assert "params.deltas" in capsys.readouterr().err


# ------------------------------------------------------------------ certify

def test_certify_sieve_command(tmp_path):
    cfg = {"command": "certify-sieve", "inner": ONE_ZERO, "measure": ATOM,
           "params": {"size": 3, "count": 3, "deltas": [0.5, 1.0], "p": [1.0, 2.0]}}
    assert run_cli(tmp_path, cfg) == 0
    for label in ("1", "2"):
        headers, columns, rows = read_report(tmp_path / f"certify_sieve_p{label}.csv")
        assert columns == ["delta", "D", "bound", "max_ratio", "margin"]
        assert len(rows) == 2
        for r in rows:
            assert float(r[4]) >= -1e-9
            assert float(r[2]) - float(r[3]) == pytest.approx(float(r[4]), rel=1e-12)
    manifest = json.loads((tmp_path / "certify_sieve_manifest.json").read_text())
    assert manifest["generator"] == "splitmix64"
    assert manifest["size"] == 3
    assert manifest["measure"] == ATOM
    assert len(manifest["spec_hash"]) == 16


def test_certify_sieve_detects_violation(tmp_path, monkeypatch):
    # forcing a nonsense bound of zero must flip the exit code to 2
    import modelspace.sieve as sieve_mod
    monkeypatch.setattr(sieve_mod, "model_sieve_bound", lambda *a, **k: 0.0)
    cfg = {"command": "certify-sieve", "inner": ONE_ZERO, "measure": ATOM,
           "params": {"size": 2, "count": 3, "deltas": [1.0], "p": [2.0]}}
    assert run_cli(tmp_path, cfg) == 2
    _, _, rows = read_report(tmp_path / "certify_sieve_p2.csv")
    assert float(rows[0][4]) < 0.0


def test_certify_sieve_ratio_once_per_function_and_p(tmp_path, monkeypatch):
    import modelspace.sieve as sieve_mod
    real = sieve_mod.empirical_embedding_ratio
    calls = []

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(sieve_mod, "empirical_embedding_ratio", counted)
    cfg = {"command": "certify-sieve", "inner": ONE_ZERO, "measure": ATOM,
           "params": {"size": 2, "count": 3, "deltas": [0.5, 1.0, 2.0], "p": [1.0, 2.0]}}
    assert run_cli(tmp_path, cfg) == 0
    # the ratio does not depend on delta
    assert calls == [1.0, 1.0, 2.0, 2.0]


def test_certify_bernstein_command(tmp_path):
    cfg = {"command": "certify-bernstein", "inner": ONE_ZERO,
           "params": {"size": 3, "count": 4, "p": [2.0]}}
    assert run_cli(tmp_path, cfg) == 0
    headers, columns, rows = read_report(tmp_path / "certify_bernstein.csv")
    assert columns == ["p", "max_ratio", "margin"]
    assert len(rows) == 1
    ratio = float(rows[0][1])
    assert 0.0 < ratio <= 1.0
    assert float(rows[0][2]) == pytest.approx(1.0 - ratio, rel=1e-12)
    assert (tmp_path / "certify_bernstein_manifest.json").exists()


def test_certify_bernstein_detects_violation(tmp_path, monkeypatch):
    # a nonsense sup |Theta'| of 0.01 must flip the exit code to 2
    monkeypatch.setattr("modelspace.harness.derivative_sup_norm", lambda spec: 0.01)
    cfg = {"command": "certify-bernstein", "inner": ONE_ZERO,
           "params": {"size": 2, "count": 4, "p": [2.0]}}
    assert run_cli(tmp_path, cfg) == 2
    _, _, rows = read_report(tmp_path / "certify_bernstein.csv")
    assert float(rows[0][2]) < 0.0


def test_certify_bernstein_refuses_a_degenerate_spec(tmp_path, capsys):
    # c = 0 and no zeros: Theta is constant and K_Theta = {0}, so no corpus
    # is drawn and no norm is certified; a c that counts as 0 is refused alike
    # instead of failing in the corpus draw
    for inner, err in [({"tau": 1.0}, "c = 0 and no zeros make Theta a unimodular "
                                      "constant: its model space holds only 0"),
                       ({"tau": 1.0, "c": 1e-13},
                        "c = 1e-13 is at or below the threshold 1e-12 where c counts as 0: "
                        "with no zeros its model space counts as holding only 0")]:
        cfg = {"command": "certify-bernstein", "inner": inner, "params": {"size": 2}}
        assert run_cli(tmp_path, cfg) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_lemma_checks_command(tmp_path):
    cfg = {"command": "lemma-checks", "params": {"pairs": 10, "m_pairs": 4, "seed": 2}}
    assert run_cli(tmp_path, cfg) == 0
    _, columns, rows = read_report(tmp_path / "lemma_checks.csv")
    assert columns == ["check", "cases", "min_margin"]
    assert [r[0] for r in rows] == ["squared_product_bound", "fourth_power_bound"]
    assert all(float(r[2]) > 0.0 for r in rows)


@pytest.mark.parametrize("key, value", [("pairs", -5), ("m_pairs", 0)])
def test_lemma_checks_reject_pair_counts_below_one(tmp_path, capsys, key, value):
    # no pairs would report an infinite margin for a check that ran nothing
    cfg = {"command": "lemma-checks", "params": {"pairs": 2, "m_pairs": 2, key: value}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == \
        f"config error: params.{key}: expected an integer >= 1, got {value}\n"
    assert not (tmp_path / "lemma_checks.csv").exists()


def test_lemma_checks_with_window_budget(tmp_path):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"pairs": 4, "m_pairs": 2, "size": 2, "count": 4,
                      "deltas": [0.5], "p": [2.0]}}
    assert run_cli(tmp_path, cfg) == 0
    _, _, rows = read_report(tmp_path / "lemma_checks.csv")
    assert [r[0] for r in rows][-1] == "window_sup_budget"
    assert float(rows[-1][2]) > 0.0


@pytest.mark.parametrize("module, name, fake, negative", [
    ("modelspace.cli", "_xi_integrals", lambda pairs, power: [1e3] * len(pairs),
     ["squared_product_bound", "fourth_power_bound"]),
    ("modelspace.harness", "_window_sup_sums", lambda f, delta, ps: iter([1e3] * len(ps)),
     ["window_sup_budget"]),
], ids=["kernel-products", "window-sup"])
def test_lemma_checks_detect_violation(tmp_path, monkeypatch, module, name, fake, negative):
    # integrals or window sums far above their bounds must flip the exit code to 2
    monkeypatch.setattr(f"{module}.{name}", fake)
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"pairs": 4, "m_pairs": 2, "size": 2, "count": 4,
                      "deltas": [0.5], "p": [2.0]}}
    assert run_cli(tmp_path, cfg) == 2
    _, _, rows = read_report(tmp_path / "lemma_checks.csv")
    assert [r[0] for r in rows if float(r[2]) < 0.0] == negative


def test_lemma_checks_refuse_an_oversized_sampling(tmp_path, capsys):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"size": 1, "deltas": [1e-9], "p": [2], "pairs": 1, "m_pairs": 1}}
    assert run_cli(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: params.deltas[0]: ") and "samples, more than 1048576" in err


def test_lemma_checks_refuse_a_subnormal_delta(tmp_path, capsys):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"size": 1, "deltas": [1e-320], "p": [2], "pairs": 1, "m_pairs": 1}}
    assert run_cli(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: params.deltas[0]: window-sup sum at delta = 1e-320 "
                          "needs inf samples")


def test_lemma_checks_refuse_an_overflowing_delta(tmp_path, capsys):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"size": 1, "deltas": [1e308], "p": [2], "pairs": 1, "m_pairs": 1}}
    assert run_cli(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: params.deltas[0]: window-sup sum at delta = 1e+308 "
                          "overflows its sample grid")
    cfg["params"]["deltas"] = [1e306]
    assert run_cli(tmp_path, cfg) == 0
    _, _, rows = read_report(tmp_path / "lemma_checks.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row[1:] if v)


@pytest.mark.parametrize("key, value, err", [
    ("size", 0, "params.size: expected an integer >= 1, got 0"),
    ("count", 0, "params.count: expected an integer >= 1, got 0"),
    ("seed", 1.5, "params.seed: expected an integer, got 1.5"),
])
def test_lemma_checks_refuse_a_bad_corpus_before_any_integral(tmp_path, capsys, monkeypatch,
                                                              key, value, err):
    def no_integrals(*args):
        raise AssertionError("sinc-power pairs integrated before the corpus params were checked")

    monkeypatch.setattr(cli, "_xi_integrals", no_integrals)
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO, "params": {key: value}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == f"config error: {err}\n"


def test_lemma_checks_sample_each_member_once_per_delta(tmp_path, monkeypatch):
    # the window-sup grid depends on delta alone, so |f| is sampled once per
    # member and delta and serves every p; the rows are those of sampling
    # per p (PINNED_RUNS["lemma_checks_inner"] pins the default run)
    from modelspace import harness

    calls = []
    real = harness.KernelCombination.__call__

    def counted(f, z):
        calls.append(int(np.size(z)))
        return real(f, z)

    monkeypatch.setattr(harness.KernelCombination, "__call__", counted)
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"pairs": 1, "m_pairs": 1, "size": 5}}
    assert run_cli(tmp_path, cfg) == 0
    assert (len(calls), sum(calls)) == (10, 1536000)
    _, _, rows = read_report(tmp_path / "lemma_checks.csv")
    monkeypatch.setattr(harness.KernelCombination, "__call__", real)
    funcs, _ = cli._corpus(from_dict(ONE_ZERO), 5, 5, 1)
    checks = [harness.sup_sample_check(f, delta, p)
              for f in funcs for delta in (0.25, 1.0) for p in (1.0, 2.0)]
    per_p = min(right - left for left, right in checks)
    assert rows[-1] == ["window_sup_budget", "5", format(per_p, ".17g")]


@pytest.mark.parametrize("command, params, err", [
    ("certify-sieve", {"deltas": [0.5, -1]}, "deltas[1]: expected a finite number > 0, got -1.0"),
    ("certify-sieve", {"deltas": [math.inf]}, "deltas[0]: expected a finite number > 0, got inf"),
    ("certify-sieve", {"p": [2, 0.5]}, "p[1]: expected a finite number >= 1, got 0.5"),
    ("certify-bernstein", {"p": [2, 4, 0.5]}, "p[2]: expected a finite number >= 1, got 0.5"),
    ("certify-bernstein", {"p": [math.nan]}, "p[0]: expected a finite number >= 1, got nan"),
    ("lemma-checks", {"deltas": [0.25, 0]}, "deltas[1]: expected a finite number > 0, got 0.0"),
    ("lemma-checks", {"deltas": [0.25, 1e-9]},
     "deltas[1]: window-sup sum at delta = 1e-09 needs 61440000000000 samples, more than 1048576"),
    ("lemma-checks", {"p": [1, math.inf]}, "p[1]: expected a finite number >= 1, got inf"),
], ids=["sieve-negative-delta", "sieve-infinite-delta", "sieve-small-p", "bernstein-small-p",
        "bernstein-nan-p", "lemma-zero-delta", "lemma-oversized-sampling", "lemma-infinite-p"])
def test_bad_corpus_param_is_refused_before_any_corpus(tmp_path, capsys, monkeypatch,
                                                       command, params, err):
    # every delta and p, and the window-sup sample grid of each delta, is
    # checked before a corpus member is drawn or certified
    def no_corpus(*args):
        raise AssertionError("corpus drawn before its params were checked")

    monkeypatch.setattr("modelspace.harness._random_model_functions", no_corpus)
    cfg = {"command": command, "inner": ONE_ZERO, "measure": ATOM,
           "params": {"size": 2, "pairs": 1, "m_pairs": 1, **params}}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == f"config error: params.{err}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, extra, message", [
    ("certify-bernstein", {}, "tail bound at p = 1e+308 overflows at radius 2000"),
    ("certify-sieve", {"measure": ATOM}, "tail bound at p = 1e+308 overflows at radius 2000"),
    ("lemma-checks", {}, "window-sup sum at p = 1e+308 and delta = 0.25 overflows"),
], ids=["certify-bernstein", "certify-sieve", "lemma-checks"])
def test_huge_p_fails_with_one_named_error(tmp_path, capsys, command, extra, message):
    # the p-th powers overflow; no NumPy warning may precede the error line
    cfg = {"command": command, "inner": ONE_ZERO, **extra,
           "params": {"p": [1e308], "size": 2, "deltas": [0.25], "pairs": 1, "m_pairs": 1}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(tmp_path, cfg) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {message}\n"


def test_certify_sieve_deterministic(tmp_path):
    cfg = {"command": "certify-sieve", "inner": ONE_ZERO, "measure": ATOM,
           "params": {"size": 2, "count": 3, "deltas": [0.5], "p": [2.0]}}
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run_cli(tmp_path / "a", cfg) == 0
    assert run_cli(tmp_path / "b", cfg) == 0
    for name in ("certify_sieve_p2.csv", "certify_sieve_manifest.json"):
        ta = strip_timestamps((tmp_path / "a" / name).read_text(encoding="utf-8"))
        tb = strip_timestamps((tmp_path / "b" / name).read_text(encoding="utf-8"))
        assert ta == tb


HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(os.path.dirname(HERE), "README.md")
# sha256 of every report of the README examples, generated_at line removed,
# keyed "<command>/<file name>"
README_DIGESTS = os.path.join(HERE, "readme_report_digests.json")


def readme_configs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 7  # one example per command
    return [json.loads(block) for block in blocks]


def report_digests(out, command):
    """sha256 of each report in out, generated_at line removed."""
    return {f"{command}/{report.name}":
            hashlib.sha256(strip_timestamps(report.read_text(encoding="utf-8")).encode()).hexdigest()
            for report in sorted(out.iterdir()) if report.name != "cfg.json"}


def readme_digests():
    with open(README_DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_readme_examples_run(tmp_path):
    digests = {}
    for i, config in enumerate(readme_configs()):
        out = tmp_path / f"example{i}"
        out.mkdir()
        assert run_cli(out, config) == 0, config
        digests.update(report_digests(out, config["command"]))
    assert digests == readme_digests()


def test_readme_examples_match_with_one_blas_thread(tmp_path):
    # reports depend on the BLAS thread count in general (README "Reports");
    # those of the README examples are the same at one thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = {}
    for i, config in enumerate(readme_configs()):
        out = tmp_path / f"example{i}"
        out.mkdir()
        (out / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "modelspace", "--config", str(out / "cfg.json"),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.update(report_digests(out, config["command"]))
    assert digests == readme_digests()


TWO_ZEROS = {"tau": 0.0, "c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 0.5}]}
ATOMS_AND_PIECES = {"atoms": [{"x": 0.3, "mass": 1.0}, {"x": 2.5, "mass": 0.5}],
                    "pieces": [{"l": -1.0, "r": 0.0, "h": 0.8}, {"l": 1.0, "r": 1.75, "h": 1.2}]}
# sha256 of reports, generated_at line removed, for runs the README
# examples miss: a kernel-method decay over three windows, a node CSV long
# enough to span several write blocks (cli._BLOCK = 4096 rows), a
# phase-adapted density over unsorted deltas with a duplicate, lemma
# checks with a corpus, whose window_sup_budget row no README example has,
# a sieve certificate whose measure has atoms as well as pieces, and a
# shannon reconstruction whose imaginary columns are all zero and whose
# errors run from an exact 0 through exponents below 1e-4
PINNED_RUNS = {
    "certify_bernstein_pw": (
        {"command": "certify-bernstein", "inner": {"c": 2.0},
         "params": {"size": 3, "p": [1.0, 2.0, 4.0]}},
        {"certify_bernstein.csv":
             "54b9193dcb04ea19e4a6d9538f83d52226fa004852d21b79b3472c5068c497e7",
         "certify_bernstein_manifest.json":
             "17694266fa9b4acc6ed79787e7c1e9ae90287cdd89ccaeb4692efb5aaff1ab71"}),
    "certify_sieve_atoms": (
        {"command": "certify-sieve", "inner": ONE_ZERO, "measure": ATOMS_AND_PIECES,
         "params": {"size": 3, "p": [1.0, 2.0, 4.0]}},
        {"certify_sieve_manifest.json":
             "f322a8258238fa34a1c79fc4025a151c871a7be2c04cccfc53a05d45b0e491d6",
         "certify_sieve_p1.csv": "3599025f53cd6709525380943b70ed71444769feff072f7872a7833fdcc6d6f5",
         "certify_sieve_p2.csv": "19df68b8f98246c253f53ebc703fff4b16655a976e5e95a10e364d2842d67c28",
         "certify_sieve_p4.csv": "1da28d934f55ce9668d3b9e75f53b25f0b01f21478ab8aa17d5837873688f579"}),
    "density_adapted": (
        {"command": "density", "inner": TWO_ZEROS, "measure": ATOMS_AND_PIECES,
         "params": {"deltas": [4.0, 0.5, 1.5, 0.25, 1.5], "adapted": True}},
        {"density.csv": "05c6e41f1c44610a24d8c64d241313c6c6aa40ab38968895ccbd9bb326f891e7"}),
    "decay_kernel": (
        {"command": "decay", "inner": ONE_ZERO,
         "params": {"methods": ["clark", "model_oversample"], "windows": [50, 100, 200],
                    "seed": 3, "gamma": 0.7}},
        {"decay_clark.csv": "400dd7296cebd946dc641fe52f28b6bc40194a7b24c8997bcce699ed95cb3992",
         "decay_model_oversample.csv":
             "287c58d747ce92296168a4bfddc53c78c6de9c254da6bd26abe3c78c6ca3b64c"}),
    "nodes_chunks": (
        {"command": "nodes", "inner": TWO_ZEROS,
         "params": {"gamma": 1.3, "n_min": -9000, "n_max": 9000}},
        {"nodes.csv": "c8fbf147966a3718a01b3972dba5ff7ab7eb7142a7996a9174e30a92d63b32b9"}),
    "reconstruct_shannon_zeros": (
        {"command": "reconstruct", "inner": {"c": 2.0},
         "params": {"method": "shannon", "window": 40, "x_count": 3001}},
        {"reconstruct_shannon.csv":
             "74454660689926150f210cdc0e6b21bd947b7c39dbf918207dcd61d0db84b8f1"}),
    "lemma_checks_inner": (
        {"command": "lemma-checks", "inner": TWO_ZEROS,
         "params": {"size": 3, "deltas": [0.25, 1.0], "p": [1.0, 2.0]}},
        {"lemma_checks.csv": "8308ddd78649429611ac49b50ac23505489e2e1a97f6459c7c61860b1b0ee372"}),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_report_digests(tmp_path, name):
    config, want = PINNED_RUNS[name]
    assert run_cli(tmp_path, config) == 0
    got = {report.name: hashlib.sha256(
        strip_timestamps(report.read_text(encoding="utf-8")).encode()).hexdigest()
        for report in tmp_path.iterdir() if report.name != "cfg.json"}
    assert got == want


# ------------------------------------------------------------- report writer

def test_reconstruct_report_memory_is_one_block(tmp_path):
    # rows are formatted and written one block at a time, so the text held
    # does not grow with the queries; the reconstruction's own workspace is
    # its chunk budget, and its columns take 64 bytes per query
    queries = 2**17
    cfg = {"command": "reconstruct", "inner": {"c": 2.0},
           "params": {"method": "shannon", "window": 10, "x_count": queries}}
    tracemalloc.start()
    try:
        assert run_cli(tmp_path, cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= reconstruct._CHUNK_BYTES + 64 * queries
    assert len((tmp_path / "reconstruct_shannon.csv").read_text().split("\n")) == queries + 6


def written_rows(formats, *cols):
    """The text _write_report writes after the column names for the given columns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.csv")
        cli._write_report(path, {}, ["c"] * len(cols), formats, *cols)
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8").split("\n", 2)[2]


def python_rows(formats, *cols):
    """The same text from Python's own % applied to each cell."""
    cols = [np.asarray(col).tolist() for col in cols]
    return "".join(",".join(fmt % (v,) for fmt, v in zip(formats, row)) + "\n"
                   for row in zip(*cols))


def differing_rows(got, want):
    """The first few (written, Python) row pairs that differ, and the
    difference in row counts: a short failure message for a long report."""
    pairs = zip(got.split("\n"), want.split("\n"))
    return [pair for pair in pairs if pair[0] != pair[1]][:5], got.count("\n") - want.count("\n")


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# powers of ten across the whole double range, their neighbours two floats
# either side, and the edges of the digit kernel: the normal range, the
# fixed-notation limits 1e-4 and 1e17, 10^-11 (the largest 10^(16-e) that a
# 64-bit 5^q covers) and 2^53
EDGES = sorted({x for k in range(-325, 310) for base in (float(f"1e{k}"),)
                for x in (base, math.nextafter(base, 0.0), math.nextafter(base, math.inf),
                          math.nextafter(math.nextafter(base, 0.0), 0.0),
                          math.nextafter(math.nextafter(base, math.inf), math.inf))}
               | {2.2250738585072014e-308, 2.225073858507201e-308, 9.9999999999999999e16,
                  99999999999999984.0, 2.0**53, 2.0**53 + 2, 2.0**53 - 1, 1e-11 * 0.99999999,
                  1.7976931348623157e308, 5e-324})
DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),
    st.sampled_from(EDGES),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324]),
    # halfway at the 17th significant digit: 16 integer digits and a quarter
    st.integers(10**15, 10**16 - 1).flatmap(lambda k: st.sampled_from([k + 0.25, k + 0.75])),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False),
)
INT64 = st.one_of(st.integers(-2**63, 2**63 - 1),
                  st.sampled_from([0, -1, 1, 9, -10, 10**18, -10**18, 10**18 - 1, 10**19 // 2,
                                   -2**63, 2**63 - 1, -2**63 + 1]))
TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# below 10 in magnitude, where a block's cells need no point after digit 1
SMALL = st.one_of(st.floats(-10.0, 10.0, exclude_min=True, exclude_max=True),
                  st.sampled_from([x for x in EDGES if x < 10.0] + [-0.0, 9.999999999999998]))
# (format, cells) of a report column; the last two go to Python's % whole
COLUMNS = st.sampled_from([("%.17g", DOUBLES), ("%.17g", SMALL), ("%d", INT64), ("%s", TEXTS),
                           ("%s", DOUBLES), ("%.17g", st.integers(-2**53, 2**53))])


@settings(max_examples=300)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
           COLUMNS.flatmap(lambda kind: st.tuples(st.just(kind[0]),
                                                  st.lists(kind[1], min_size=n, max_size=n))),
           min_size=1, max_size=4)),
       st.sampled_from([1, 3, 4096]))
def test_report_cells_match_python_format(columns, block):
    formats = tuple(fmt for fmt, _ in columns)
    cols = [cells for _, cells in columns]
    saved = cli._BLOCK
    cli._BLOCK = block
    try:
        assert differing_rows(written_rows(formats, *cols), python_rows(formats, *cols)) == ([], 0)
    finally:
        cli._BLOCK = saved


def test_report_cells_match_python_format_in_bulk():
    # every double class at volume: random bit patterns, the edges above and
    # their negatives, 17th-digit ties and the int64 range
    rng = np.random.default_rng(7)
    doubles = np.concatenate([rng.integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64),
                              EDGES, np.negative(EDGES), np.arange(10**15, 10**15 + 4096) + 0.25,
                              rng.standard_normal(2**14) * 10.0 ** rng.integers(-30, 18, 2**14),
                              [0.0, -0.0, math.nan, math.inf, -math.inf]])
    ints = rng.integers(-2**63, 2**63 - 1, len(doubles), dtype=np.int64, endpoint=True)
    ints[:4] = [-2**63, 2**63 - 1, 0, -1]
    small = np.where(np.abs(doubles) < 10.0, doubles, 0.5)
    formats = ("%d", "%.17g", "%.17g")
    assert differing_rows(written_rows(formats, ints, doubles, small),
                          python_rows(formats, ints, doubles, small)) == ([], 0)


COMMAND_RUNS = [
    {"command": "nodes", "inner": {"c": 2.0}, "params": {"n_min": -2, "n_max": 2}},
    {"command": "reconstruct", "inner": {"c": 2.0},
     "params": {"method": "shannon", "window": 5, "x_count": 5}},
    {"command": "decay", "inner": {"c": 2.0}, "params": {"windows": [5], "x_count": 5}},
    {"command": "density", "measure": ATOM, "params": {"deltas": [1.0]}},
    {"command": "certify-sieve", "inner": ONE_ZERO, "measure": ATOM,
     "params": {"size": 1, "p": [2.0], "deltas": [1.0]}},
    {"command": "certify-bernstein", "inner": ONE_ZERO, "params": {"size": 1, "p": [2.0]}},
    {"command": "lemma-checks", "params": {"pairs": 2, "m_pairs": 2}},
]


def test_every_csv_report_goes_through_one_writer(tmp_path, monkeypatch):
    real = cli._write_report
    written = []

    def recorded(path, *args):
        written.append(os.path.basename(path))
        return real(path, *args)

    monkeypatch.setattr(cli, "_write_report", recorded)
    assert sorted(config["command"] for config in COMMAND_RUNS) == sorted(cli.COMMANDS)
    for config in COMMAND_RUNS:
        out = tmp_path / config["command"]
        out.mkdir()
        written.clear()
        assert run_cli(out, config) == 0
        csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
        assert csvs and sorted(written) == csvs, config["command"]
