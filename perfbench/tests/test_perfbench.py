"""Self-tests of the benchmark: wrapper coverage, counter determinism, checks.

    python3 -m pytest perfbench/tests -q

The determinism test runs the traced benchmark twice per workload (about
half a minute each on a 2-core machine).
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_wrappers_replace_every_binding():
    mods = tracing._modules()
    originals = {
        "harness.phase_arrays": mods["inner"].phase_arrays,
        "clark.phase_arrays": mods["inner"].phase_arrays,
        "sieve.invert_phase": mods["clark"].invert_phase,
        "reconstruct.evaluate": mods["inner"].evaluate,
        "kernel.xi": mods["kernel"].sinc,
        "cli.xi_product_integral": mods["kernel"].xi_product_integral,
    }
    tracer = tracing.Tracer().install()
    try:
        for where, original in originals.items():
            layer, attr = where.split(".")
            bound = getattr(mods[layer], attr)
            assert bound is not original and bound.__wrapped__ is original, where
        # no module still holds an unwrapped public function
        wrapped = {orig for _, _, orig in tracer._bindings}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                assert not (callable(value) and value in wrapped), f"{layer}.{attr}"
    finally:
        tracer.uninstall()
    for where, original in originals.items():
        layer, attr = where.split(".")
        assert getattr(mods[layer], attr) is original


def test_spans_give_self_time_and_counters():
    from modelspace import harness
    from modelspace.inner import from_dict

    spec = from_dict(workloads.SPEC_ONE)
    tracer = tracing.Tracer().install()
    try:
        # called through the module: names bound before install stay unwrapped
        harness.lp_norm(harness.random_model_function(spec, 5, seed=3), 1.0)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["harness.lp_norm.calls"] == 2  # normalisation plus the L^1 norm
    assert sum(m.get(f"harness.radius_{r}", 0) for r in (2000, 8000, 32000)) == 2
    # every integrand round evaluates whole 15-point Kronrod panels
    assert m["quadrature.integrate_panels.points"] % 15 == 0
    assert m["inner.evaluate.points"] >= m["quadrature.integrate_panels.points"]
    assert all(v >= 0.0 for k, v in m.items() if k.endswith(".self_s"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    counted = [m["name"] for m in spec["per_layer"]
               if m["unit"] in ("count", "B") or m["name"].endswith("_share")]
    runs = []
    for _ in range(2):
        proc = _run(workload, 2, 1)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["correct"] and out["failed"] == 0
        runs.append({k: out["metrics"][k]["value"] for k in counted})
    assert runs[0] == runs[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("certify", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def test_checks_flag_a_negative_margin_and_a_short_report(tmp_path):
    study = workloads.certify(1)[0]
    _write(tmp_path / "certify_bernstein.csv",
           "# generated_at=x\np,max_ratio,margin\n1,0.5,0.5\n2,1.5,-0.5\n4,0.4,0.6\n")
    _write(tmp_path / "certify_bernstein_manifest.json", json.dumps({"size": 20}))
    problems, _ = checks.check_study(study, str(tmp_path), None)
    assert any("negative margin" in p for p in problems)
    _write(tmp_path / "certify_bernstein.csv", "# generated_at=x\np,max_ratio,margin\n1,0.5,0.5\n")
    problems, _ = checks.check_study(study, str(tmp_path), None)
    assert any("rows" in p for p in problems)


def test_digest_ignores_generated_at(tmp_path):
    _write(tmp_path / "a.csv", "# generated_at=1\nx\n1\n")
    _write(tmp_path / "b.csv", "# generated_at=2\nx\n1\n")
    assert checks.report_digest(tmp_path / "a.csv") == checks.report_digest(tmp_path / "b.csv")


def test_same_seed_same_configs():
    for w in workloads.WORKLOADS:
        assert ([s.config for s in workloads.studies(w, 7)]
                == [s.config for s in workloads.studies(w, 7)])
        assert ([s.config for s in workloads.studies(w, 7)]
                != [s.config for s in workloads.studies(w, 8)])
