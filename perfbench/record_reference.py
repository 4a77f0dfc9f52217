"""Record the default-seed reference values the output checks compare against.

    python3 perfbench/record_reference.py

Runs every workload once at worker.DEFAULT_SEED and writes, per report, the
row count, per-column [sum, min, max] and the sha256 of the report without
its generated_at line to perfbench/reference.json.  Re-record only when a
change is meant to alter what the program computes.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import workloads
from worker import DEFAULT_SEED, REFERENCE, ROOT, write_configs, run_pass


def record(workload: str, tmp: str) -> dict:
    studies = workloads.studies(workload, DEFAULT_SEED)
    paths = write_configs(studies, tmp)
    _, failures, outs = run_pass(studies, paths, os.path.join(tmp, "out"))
    if failures:
        raise SystemExit(f"{workload}: cannot record a reference: {failures}")
    out = {}
    for study, out_dir in zip(studies, outs):
        problems, _ = checks.check_study(study, out_dir, None)
        if problems:
            raise SystemExit(f"{workload}: reports fail their checks: {problems}")
        out[study.name] = {}
        for name in study.reports:
            path = os.path.join(out_dir, name)
            entry = {"digest": checks.report_digest(path)}
            if name.endswith(".csv"):
                entry["summary"] = checks.summarize(path)
            out[study.name][name] = entry
    return out


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="perfbench-ref-", dir=ROOT)
    try:
        ref = {"seed": DEFAULT_SEED,
               "workloads": {w: record(w, os.path.join(tmp, w)) for w in workloads.WORKLOADS}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
