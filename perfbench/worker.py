"""One benchmark process: set up a workload, then run passes over its studies.

Started by run.py in a fresh interpreter with BLAS/OpenMP threads capped.
Set-up (importing modelspace and writing the seeded configs) is timed from
the first line of this file.  Each pass sends every study config through
`modelspace.cli.main` in turn and is timed as a whole; the reports are
checked after the pass, outside the timed region.  The result goes to the
JSON file named by --result.

    python3 perfbench/worker.py --workload certify --seed 1 --seconds 30 \
        --trace 0 --tmp DIR --result FILE [--setup-only]
"""
from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from modelspace import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
REFERENCE = os.path.join(HERE, "reference.json")


def _load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def write_configs(studies, tmp: str):
    paths = []
    cfg_dir = os.path.join(tmp, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    for i, study in enumerate(studies):
        path = os.path.join(cfg_dir, f"{i:02d}_{study.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(study.config, fh, indent=1)
        paths.append(path)
    return paths


def run_pass(studies, paths, out_root: str):
    """Runs every study once; returns (wall seconds, failed studies, out dirs).

    A study fails when cli.main raises or returns non-zero; the pass goes on.
    """
    failures = []
    outs = [os.path.join(out_root, f"{i:02d}_{s.name}") for i, s in enumerate(studies)]
    start = perf_counter()
    for study, path, out in zip(studies, paths, outs):
        try:
            code = cli.main(["--config", path, "--out", out])
        except Exception as exc:  # a failed study is counted, not fatal
            failures.append(f"{study.name}: {type(exc).__name__}: {exc}")
            continue
        if code != 0:
            failures.append(f"{study.name}: exit code {code}")
    return perf_counter() - start, failures, outs


def check_pass(studies, outs, reference, failures):
    """Checks the reports of a pass.  Returns (problems, digests, report bytes)."""
    failed = {f.split(":", 1)[0] for f in failures}
    problems, digests, size = [], {}, 0
    for study, out in zip(studies, outs):
        if study.name in failed:
            continue
        ref = None if reference is None else reference.get(study.name, {})
        found, dig = checks.check_study(study, out, ref)
        problems.extend(found)
        digests[study.name] = dig
        size += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    return problems, digests, size


def _identical(digests, expected) -> int:
    return sum(1 for study, reports in digests.items() for name, d in reports.items()
               if expected.get(study, {}).get(name) == d)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    studies = workloads.studies(args.workload, args.seed)
    paths = write_configs(studies, args.tmp)
    setup_s = perf_counter() - _T0
    result = {"setup_s": setup_s, "numpy": np.__version__}
    if not args.setup_only:
        result.update(_run(args, studies, paths))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _one_pass(args, studies, paths, index, reference):
    out_root = os.path.join(args.tmp, f"pass{index}")
    wall, failures, outs = run_pass(studies, paths, out_root)
    problems, digests, size = check_pass(studies, outs, reference, failures)
    shutil.rmtree(out_root, ignore_errors=True)
    failed = {f.split(":", 1)[0] for f in failures}
    failed.update(p.split("/", 1)[0] for p in problems)
    return {"wall_s": wall, "attempted": len(studies), "failed": len(failed),
            "failures": failures, "problems": problems, "digests": digests,
            "report_bytes": size}


def _run(args, studies, paths):
    reference = _load_reference(args.workload, args.seed)
    passes = []
    if args.trace:
        from tracing import Tracer

        passes.append(_one_pass(args, studies, paths, 0, reference))
        tracer = Tracer().install()
        try:
            passes.append(_one_pass(args, studies, paths, 1, reference))
        finally:
            tracer.uninstall()
        expected = ({s: {n: r["digest"] for n, r in reps.items()} for s, reps in reference.items()}
                    if reference is not None else passes[0]["digests"])
        traced = passes[1]
        layers = tracer.metrics()
        layers.update({
            "cli.report_bytes": traced["report_bytes"],
            "cli.reports_identical": _identical(traced["digests"], expected),
            "tracing_overhead_s": traced["wall_s"] - passes[0]["wall_s"],
        })
        return {"passes": passes, "layers": layers}
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append(_one_pass(args, studies, paths, len(passes), reference))
    norms = sum(s.norms for s in studies)
    terms = sum(s.terms for s in studies)
    return {"passes": passes, "norms": norms, "terms": terms}


if __name__ == "__main__":
    sys.exit(main())
