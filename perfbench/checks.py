"""Output checks for the reports of one study.

Every study must have written its expected files with the expected number
of data rows and only finite numbers.  On top of that each command has its
own acceptance rule: certify margins >= 0, node residuals <= 1e-10, node
weights > 0, and reconstruction sup errors below `SUP_ERROR_LIMIT`.

For the default seed the numeric columns are also compared with recorded
reference values (`reference.json`), within `REL_TOL` / `ABS_TOL`.  Byte
identity with the recorded report (generated_at line excluded) is counted,
not required: reports whose last bits move stay correct.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import SUP_ERROR_LIMIT, Study

RESIDUAL_LIMIT = 1e-10
REL_TOL = 1e-6
ABS_TOL = 1e-9


def read_csv(path: str):
    """(headers, columns, rows) of a report; headers from '# key=value' lines."""
    headers, rows, columns = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                headers[key] = val
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return headers, columns or [], rows


def report_digest(path: str) -> str:
    """sha256 of a report with its generated_at line left out."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"# generated_at="):
                h.update(line)
    return h.hexdigest()


def _numeric(columns, rows, skip=("check",)):
    out = {}
    for j, name in enumerate(columns):
        if name in skip:
            continue
        out[name] = [float(r[j]) for r in rows]
    return out


def summarize(path: str) -> dict:
    """Row count and per-column [sum, min, max] of a CSV report."""
    _, columns, rows = read_csv(path)
    cols = _numeric(columns, rows)
    return {"rows": len(rows),
            "columns": {k: [math.fsum(v), min(v), max(v)] for k, v in cols.items() if v}}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _command_rules(study: Study, name: str, headers, cols) -> list[str]:
    problems = []
    cmd = study.command

    def need(ok, what):
        if not ok:
            problems.append(f"{study.name}/{name}: {what}")

    if cmd == "nodes":
        resid = float(headers.get("residual_bound", "nan"))
        need(resid <= RESIDUAL_LIMIT, f"residual {resid} above {RESIDUAL_LIMIT}")
        need(min(cols["weight"]) > 0.0, "non-positive weight")
        xs = cols["x_n"]
        need(all(b > a for a, b in zip(xs, xs[1:])), "nodes not increasing")
        ns = cols["n"]
        need(all(b - a == 1 for a, b in zip(ns, ns[1:])), "node indices not consecutive")
    elif cmd in ("certify-bernstein", "certify-sieve"):
        need(min(cols["margin"]) >= 0.0, f"negative margin {min(cols['margin'])}")
    elif cmd == "lemma-checks":
        need(min(cols["min_margin"]) >= 0.0, f"negative margin {min(cols['min_margin'])}")
    elif cmd == "reconstruct":
        limit = SUP_ERROR_LIMIT[study.config["params"]["method"]]
        need(max(cols["abs_error"]) <= limit, f"sup error {max(cols['abs_error'])} above {limit}")
    elif cmd == "decay":
        method = name[len("decay_"):-len(".csv")]
        limit = SUP_ERROR_LIMIT[method]
        need(max(cols["sup_error"]) <= limit, f"sup error {max(cols['sup_error'])} above {limit}")
    elif cmd == "density":
        need(min(cols["value"]) >= 0.0, "negative density")
        need(all(r > l for l, r in zip(cols["witness_left"], cols["witness_right"])),
             "empty witness interval")
    return problems


def check_study(study: Study, out_dir: str, reference: dict | None):
    """Returns (problems, digests) for one study's report directory.

    reference, when given, maps report name -> recorded summary and digest.
    """
    problems, digests = [], {}
    for name, rows in study.reports.items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{study.name}/{name}: missing")
            continue
        digests[name] = report_digest(path)
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            if manifest.get("size") != study.config["params"]["size"]:
                problems.append(f"{study.name}/{name}: corpus size {manifest.get('size')}")
            continue
        headers, columns, raw = read_csv(path)
        if len(raw) != rows:
            problems.append(f"{study.name}/{name}: {len(raw)} rows, expected {rows}")
            continue
        try:
            cols = _numeric(columns, raw)
        except (ValueError, IndexError) as exc:
            problems.append(f"{study.name}/{name}: unparsable row ({exc})")
            continue
        if not all(math.isfinite(v) for col in cols.values() for v in col):
            problems.append(f"{study.name}/{name}: non-finite value")
            continue
        problems.extend(_command_rules(study, name, headers, cols))
        if reference is not None:
            ref = reference.get(name)
            got = summarize(path)
            if ref is None:
                problems.append(f"{study.name}/{name}: no reference recorded")
            elif ref["summary"]["rows"] != got["rows"] or any(
                    not _close(a, b)
                    for col, vals in ref["summary"]["columns"].items()
                    for a, b in zip(vals, got["columns"].get(col, [math.nan] * 3))):
                problems.append(f"{study.name}/{name}: differs from reference values")
    return problems, digests
