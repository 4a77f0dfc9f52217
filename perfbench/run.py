"""modelspace benchmark: seeded CLI study workloads, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With --trace 0 the run times set-up in
several fresh processes, then runs passes over the workload's studies in
one fresh process for --seconds seconds, and reports the end-to-end metrics
named in BENCHMARK.json (medians over the passes).  With --trace 1 it runs
one plain pass and one traced pass and reports the per-layer metrics.
Every report is checked after each pass.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "sampling", "dense_zeros")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, tmp, env, deadline, *extra):
    """Runs worker.py to completion and returns its JSON result."""
    result = os.path.join(tmp, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp, "--result", result, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no child behind
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end(setups, res) -> dict:
    walls = [p["wall_s"] for p in res["passes"]]
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "norms_per_s": res["norms"] / wall,
        "terms_per_s": res["terms"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _per_layer(names, res) -> dict:
    layers = dict(res["layers"])
    passes = res["passes"]
    layers["failed_frac"] = (sum(p["failed"] for p in passes)
                             / sum(p["attempted"] for p in passes))
    # a layer the workload never reaches reads 0
    return {name: layers.get(name, 0) for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "modelspace", "cli.py")):
        return _fail(f"no modelspace sources under {ROOT}/src; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(tmp_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = os.path.join(tmp, f"setup{i}")
                os.makedirs(probe)
                setups.append(_worker(args, probe, env, deadline, "--setup-only")["setup_s"])
        res = _worker(args, tmp, env, deadline)
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    setups.append(res["setup_s"])
    passes = res["passes"]
    values = _per_layer(units, res) if args.trace else _end_to_end(setups, res)
    problems = [p for ps in passes for p in ps["problems"]]
    failures = [f for ps in passes for f in ps["failures"]]
    for line in failures + problems:
        print(f"perfbench: {line}", file=sys.stderr)

    env_record = {"nproc": nproc, "numpy": res["numpy"], "blas_threads": nproc,
                  "python": sys.version.split()[0], "passes": len(passes),
                  "workload": args.workload, "seed": args.seed}
    print("# environment " + json.dumps(env_record, sort_keys=True))
    print("# pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
