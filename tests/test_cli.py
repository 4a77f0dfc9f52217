"""End-to-end runs of the JSON-config command driver."""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from modelspace.cli import main


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


def test_lemma_checks_command(tmp_path):
    cfg = {"command": "lemma-checks", "params": {"pairs": 10, "m_pairs": 4, "seed": 2}}
    assert run_cli(tmp_path, cfg) == 0
    _, columns, rows = read_report(tmp_path / "lemma_checks.csv")
    assert columns == ["check", "cases", "min_margin"]
    assert [r[0] for r in rows] == ["squared_product_bound", "fourth_power_bound"]
    assert all(float(r[2]) > 0.0 for r in rows)


def test_lemma_checks_with_window_budget(tmp_path):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"pairs": 4, "m_pairs": 2, "size": 2, "count": 4,
                      "deltas": [0.5], "p": [2.0]}}
    assert run_cli(tmp_path, cfg) == 0
    _, _, rows = read_report(tmp_path / "lemma_checks.csv")
    assert [r[0] for r in rows][-1] == "window_sup_budget"
    assert float(rows[-1][2]) > 0.0


def test_lemma_checks_refuse_an_oversized_sampling(tmp_path, capsys):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"size": 1, "deltas": [1e-9], "p": [2], "pairs": 1, "m_pairs": 1}}
    assert run_cli(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples, more than 1048576" in err


def test_lemma_checks_refuse_a_subnormal_delta(tmp_path, capsys):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"size": 1, "deltas": [1e-320], "p": [2], "pairs": 1, "m_pairs": 1}}
    assert run_cli(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window-sup sum at delta = 1e-320 needs inf samples")


def test_lemma_checks_refuse_an_overflowing_delta(tmp_path, capsys):
    cfg = {"command": "lemma-checks", "inner": ONE_ZERO,
           "params": {"size": 1, "deltas": [1e308], "p": [2], "pairs": 1, "m_pairs": 1}}
    assert run_cli(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window-sup sum at delta = 1e+308 overflows its sample grid")
    cfg["params"]["deltas"] = [1e306]
    assert run_cli(tmp_path, cfg) == 0
    _, _, rows = read_report(tmp_path / "lemma_checks.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row[1:] if v)


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
# enough to span several write chunks (clark._CHUNK = 8192 rows), a
# phase-adapted density over unsorted deltas with a duplicate, lemma
# checks with a corpus, whose window_sup_budget row no README example has,
# and a sieve certificate whose measure has atoms as well as pieces
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
