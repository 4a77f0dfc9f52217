"""Command-line driver: JSON study configs in, CSV/JSON reports out.

Exit codes are a CI contract: 0 clean, 1 config, domain or command-line
usage error or an output path that cannot be written, 2 any
certified-inequality violation.  Reports are byte-deterministic, apart from
the single # generated_at= header line, for a fixed config, numpy/BLAS
build and BLAS thread count: the reconstructions' matrix products round by
how BLAS splits them over threads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import clark, harness, reconstruct, sieve
from .inner import _require_int, _require_number, enlarge, from_dict
from .kernel import SincKernelSpec, _xi_integrals, higher_power_bound, sinc
# bound here as before the lockstep lemma checks; perfbench wraps this binding
from .kernel import xi_power_product_integral, xi_product_integral  # noqa: F401

COMMANDS = ("nodes", "reconstruct", "decay", "density", "certify-sieve",
            "certify-bernstein", "lemma-checks")

# comparison slack for declaring a certified inequality violated
VIOLATION_TOL = 1e-9


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _now_line() -> str:
    return f"# generated_at={datetime.now(timezone.utc).isoformat()}"


def _write_report(path: str, headers: dict, columns, rows) -> None:
    lines = [_now_line()]
    for key, val in headers.items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def _as_params(config: dict) -> dict:
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: expected an object")
    return params


def _param(params: dict, key: str, default, check):
    """check(params[key], "params.<key>"), or default when the key is absent
    (required when default is None); check's ValueError becomes ConfigError."""
    if key not in params:
        if default is None:
            raise ConfigError(f"params.{key}: required")
        return default
    try:
        return check(params[key], f"params.{key}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _number_list(val, where: str, each=_require_number) -> list:
    if not isinstance(val, list) or not val:
        raise ValueError(f"{where}: expected a nonempty number list, got {val!r}")
    return [each(v, f"{where}[{i}]") for i, v in enumerate(val)]


def _integer_list(val, where: str) -> list:
    return _number_list(val, where, _require_int)


def _num(params: dict, key: str, default=None):
    return _param(params, key, default, _require_number)


def _int(params: dict, key: str, default=None):
    return _param(params, key, default, _require_int)


def _num_list(params: dict, key: str, default=None):
    return _param(params, key, default, _number_list)


def _section(config: dict, key: str, parse):
    """parse(config[key], where=key); its ValueError or TypeError, or a
    missing key, becomes ConfigError."""
    if key not in config:
        raise ConfigError(f"{key}: required for this command")
    try:
        return parse(config[key], where=key)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def _out_path(config: dict, out_dir: str, default_name: str) -> str:
    name = config.get("output", default_name)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"output: expected a nonempty string, got {name!r}")
    return os.path.join(out_dir, name)


def _corpus(spec, params):
    size = _int(params, "size", 20)
    count = _int(params, "count", 5)
    seed = _int(params, "seed", 1)
    if size < 1 or count < 1:
        raise ConfigError("params.size and params.count must be >= 1")
    funcs = harness._random_model_functions(spec, count, [seed + 1000 * i for i in range(size)])
    return funcs, seed, count


def _cmd_nodes(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    gamma = _num(params, "gamma", 0.0)
    n_min = _int(params, "n_min")
    n_max = _int(params, "n_max")
    grid = clark.solve_nodes(spec, gamma, n_min, n_max)
    path = _out_path(config, out_dir, "nodes.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_now_line() + "\n")
        clark.write_grid_csv(grid, fh, extra_header={"command": "nodes"})
    return 0


def _band_target(spec, params):
    """Band-limited reference target for the uniform-grid methods."""
    if spec.zeros:
        raise ConfigError("shannon/pw_oversample need an inner spec without zeros")
    band = spec.c / 2.0
    if band <= 0.0:
        raise ConfigError("shannon/pw_oversample need c > 0")
    shift = _num(params, "shift", 0.4)

    def target(x):
        return np.asarray(sinc(band * (np.asarray(x, dtype=float) - shift)), dtype=complex)

    return target


def _target(spec, method, params):
    """The function a study reconstructs: the band target for the uniform-grid
    methods, a seeded random model-space function for the kernel methods."""
    if method in ("shannon", "pw_oversample"):
        return _band_target(spec, params)
    return harness.random_model_function(spec, _int(params, "count", 5), _int(params, "seed", 1))


def _reconstruct_window(spec, method, window, params, f, xs):
    """Reconstruction on xs of f from its samples on the method's grid,
    indices -window..window."""
    if method == "shannon":
        b = spec.c / 2.0
        nodes = np.arange(-window, window + 1) * (math.pi / b)
        return reconstruct.shannon_reconstruct(f(nodes), b, xs)
    if method == "pw_oversample":
        kspec = SincKernelSpec(power=_int(params, "N", 2), a=_num(params, "a", 0.5), c=spec.c / 2.0)
        nodes = np.arange(-window, window + 1) * (math.pi / kspec.b)
        return reconstruct.pw_oversample_reconstruct(f(nodes), kspec, xs)
    gamma = _num(params, "gamma", 0.0)
    if method == "clark":
        grid = clark.solve_nodes(spec, gamma, -window, window)
        return reconstruct.clark_reconstruct(reconstruct.sample_function(f, grid), spec, xs)
    over_c = _num(params, "over_c", 1.0)
    m = _int(params, "m", 2)
    grid = clark.solve_nodes(enlarge(spec, over_c, ()), gamma, -window, window)
    return reconstruct.model_oversample_reconstruct(
        reconstruct.sample_function(f, grid), spec, over_c, m, xs)


def _query_grid(params, lo: float, hi: float) -> np.ndarray:
    """x_count points from x_min to x_max, which default to lo and hi."""
    lo = _num(params, "x_min", lo)
    hi = _num(params, "x_max", hi)
    n = _int(params, "x_count", 101)
    if not (hi > lo and math.isfinite(hi - lo) and n >= 2):
        raise ConfigError("need x_max > x_min, both finite and a finite distance apart, "
                          "and x_count >= 2")
    return np.linspace(lo, hi, n)


def _cmd_reconstruct(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    method = params.get("method")
    if method not in reconstruct._METHODS:
        raise ConfigError(f"params.method: expected one of {reconstruct._METHODS}, got {method!r}")
    window = _int(params, "window", 300)
    xs = _query_grid(params, -3.0, 3.0)
    f = _target(spec, method, params)
    truth = f(xs)
    rec = _reconstruct_window(spec, method, window, params, f, xs)
    rows = [(_fmt(x), _fmt(t.real), _fmt(t.imag), _fmt(r.real), _fmt(r.imag),
             _fmt(abs(r - t))) for x, t, r in zip(xs, truth, rec)]
    _write_report(_out_path(config, out_dir, f"reconstruct_{method}.csv"),
                  {"command": "reconstruct", "method": method, "window": window},
                  ("x", "truth_re", "truth_im", "recon_re", "recon_im", "abs_error"),
                  rows)
    return 0


def _cmd_decay(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    methods = params.get("methods", ["shannon", "pw_oversample"])
    if not isinstance(methods, list) or any(m not in reconstruct._METHODS for m in methods):
        raise ConfigError(f"params.methods: expected a list drawn from {reconstruct._METHODS}")
    windows = _param(params, "windows", (25, 50, 100, 200, 400), _integer_list)
    if any(k < 1 for k in windows):
        raise ConfigError("params.windows: entries must be >= 1")
    uniform = any(m in ("shannon", "pw_oversample") for m in methods)
    xs = _query_grid(params, -1.0 if uniform else -3.0, 1.0 if uniform else 3.0)
    for method in methods:
        f = _target(spec, method, params)
        truth = f(xs)
        rows = []
        for window in windows:
            # f is sampled on each window's grid, not once on the widest grid
            # and sliced: its matrix products round by batch shape
            err = np.abs(_reconstruct_window(spec, method, window, params, f, xs) - truth)
            rows.append((str(window), _fmt(err.max()),
                         _fmt(float(np.sqrt(np.mean(err**2))))))
        _write_report(os.path.join(out_dir, f"decay_{method}.csv"),
                      {"command": "decay", "method": method},
                      ("K", "sup_error", "l2_error"), rows)
    return 0


def _cmd_density(config, out_dir):
    measure = _section(config, "measure", sieve.measure_from_dict)
    params = _as_params(config)
    deltas = sorted(_num_list(params, "deltas"))
    adapted = params.get("adapted", False)
    if not isinstance(adapted, bool):
        raise ConfigError(f"params.adapted: expected true/false, got {adapted!r}")
    spec = _section(config, "inner", from_dict) if adapted else None
    reps = (sieve.d_mu_theta_many(measure, spec, deltas) if adapted
            else [sieve.d_mu(measure, delta) for delta in deltas])
    rows = [(_fmt(rep.delta), _fmt(rep.value), _fmt(rep.witness[0]), _fmt(rep.witness[1]))
            for rep in reps]
    _write_report(_out_path(config, out_dir, "density.csv"),
                  {"command": "density", "adapted": str(adapted).lower()},
                  ("delta", "value", "witness_left", "witness_right"), rows)
    return 0


def _p_label(p: float) -> str:
    return format(p, "g").replace(".", "_")


def _cmd_certify_sieve(config, out_dir):
    spec = _section(config, "inner", from_dict)
    measure = _section(config, "measure", sieve.measure_from_dict)
    params = _as_params(config)
    deltas = _num_list(params, "deltas", (0.1, 0.5, 1.0, 2.0))
    p_list = _num_list(params, "p", (1.0, 2.0))
    funcs, seed, count = _corpus(spec, params)
    norms = harness._corpus_norms([(f, p, False) for p in p_list for f in funcs])
    # the ratios do not depend on delta
    worsts = [max(sieve.empirical_embedding_ratio(f, measure, p, next(norms)[0])
                  for f in funcs) for p in p_list]
    violations = 0
    for p, worst in zip(p_list, worsts):
        rows = []
        for delta in sorted(deltas):
            dens = sieve.d_mu(measure, delta).value
            bound = sieve.model_sieve_bound(spec, delta, dens, p)
            margin = bound - worst
            if margin < -VIOLATION_TOL * max(1.0, bound):
                violations += 1
            rows.append((_fmt(delta), _fmt(dens), _fmt(bound), _fmt(worst), _fmt(margin)))
        _write_report(os.path.join(out_dir, f"certify_sieve_p{_p_label(p)}.csv"),
                      {"command": "certify-sieve", "p": _fmt(p), "corpus_size": len(funcs)},
                      ("delta", "D", "bound", "max_ratio", "margin"), rows)
    _write_manifest(os.path.join(out_dir, "certify_sieve_manifest.json"),
                    {**harness.corpus_manifest(spec, seed, count, len(funcs)),
                     "measure": sieve.measure_to_dict(measure)})
    return 2 if violations else 0


def _cmd_certify_bernstein(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    p_list = _num_list(params, "p", (1.0, 2.0, 4.0))
    rows = []
    violations = 0
    funcs, seed, count = _corpus(spec, params)
    checks = harness._bernstein_checks(funcs, p_list)
    for p in p_list:
        worst = 0.0
        for _ in funcs:
            lhs, rhs = next(checks)
            worst = max(worst, lhs / rhs)
        if worst > 1.0 + VIOLATION_TOL:
            violations += 1
        rows.append((_fmt(p), _fmt(worst), _fmt(1.0 - worst)))
    _write_report(os.path.join(out_dir, "certify_bernstein.csv"),
                  {"command": "certify-bernstein", "corpus_size": len(funcs)},
                  ("p", "max_ratio", "margin"), rows)
    _write_manifest(os.path.join(out_dir, "certify_bernstein_manifest.json"),
                    harness.corpus_manifest(spec, seed, count, len(funcs)))
    return 2 if violations else 0


def _cmd_lemma_checks(config, out_dir):
    params = _as_params(config)
    seed = _int(params, "seed", 1)
    pairs = _int(params, "pairs", 50)
    m_pairs = _int(params, "m_pairs", 20)
    rng = harness.SplitMix64(seed)
    rows = []
    violations = 0

    # name, pairs, a in [lo, lo + width), gap in [0, reach), the m of the
    # integral of sinc^2m(x - a) sinc^2m(x - a - gap), and its bound
    checks = (("squared_product_bound", pairs, -15.0, 30.0, 30.0, 1,
               lambda gap: 8.0 * math.pi / (4.0 + gap * gap)),
              ("fourth_power_bound", m_pairs, -10.0, 20.0, 12.0, 2,
               lambda gap: higher_power_bound(2, gap)))
    for name, cases, lo, width, reach, power, bound in checks:
        # the draws do not depend on the integrals, which run in one lockstep pass
        draws = []
        for _ in range(cases):
            a = lo + width * rng.uniform()
            draws.append((a, reach * rng.uniform()))
        worst = math.inf
        for (_, gap), val in zip(draws, _xi_integrals([(a, a + gap) for a, gap in draws], power)):
            worst = min(worst, bound(gap) - val)
        if worst < -VIOLATION_TOL:
            violations += 1
        rows.append((name, str(cases), _fmt(worst)))

    if "inner" in config:
        spec = _section(config, "inner", from_dict)
        funcs, _, _ = _corpus(spec, {**params, "size": _int(params, "size", 5)})
        checks = harness._sup_sample_checks(funcs, _num_list(params, "deltas", (0.25, 1.0)),
                                            _num_list(params, "p", (1.0, 2.0)))
        worst = min(right - left for left, right in checks)
        if worst < -VIOLATION_TOL:
            violations += 1
        rows.append(("window_sup_budget", str(len(funcs)), _fmt(worst)))

    _write_report(_out_path(config, out_dir, "lemma_checks.csv"),
                  {"command": "lemma-checks", "seed": seed},
                  ("check", "cases", "min_margin"), rows)
    return 2 if violations else 0


_DISPATCH = {
    "nodes": _cmd_nodes,
    "reconstruct": _cmd_reconstruct,
    "decay": _cmd_decay,
    "density": _cmd_density,
    "certify-sieve": _cmd_certify_sieve,
    "certify-bernstein": _cmd_certify_bernstein,
    "lemma-checks": _cmd_lemma_checks,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modelspace",
        description="Sampling-grid, reconstruction and density-certificate studies")
    parser.add_argument("--config", required=True, help="path to a JSON study config")
    parser.add_argument("--out", default=".", help="directory for report files")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage message; its exit code 2 would read
        # as a violation, so usage errors exit 1 and --help still exits 0
        return 0 if exc.code == 0 else 1
    try:
        config = _load_json(args.config)
        if not isinstance(config, dict):
            raise ConfigError("config root must be an object")
        command = config.get("command")
        if command not in _DISPATCH:
            raise ConfigError(f"command: expected one of {COMMANDS}, got {command!r}")
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[command](config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
