"""Command-line driver: JSON study configs in, CSV/JSON reports out.

Exit codes are a CI contract: 0 clean, 1 config, domain or command-line
usage error or an output path that cannot be written, 2 any
certified-inequality violation.  Reports are byte-deterministic, apart from
the single # generated_at= header line, for a fixed config, numpy/BLAS
build and BLAS thread count: the reconstructions' matrix products round by
how BLAS splits them over threads.

Every CSV cell holds exactly the bytes of Python's % with its column's
format.  %.17g cells of float64 columns holding a zero or a normal double
below 1e17 in magnitude, and %d cells of integer columns, take their digits
from an exact integer kernel: the 17 significant digits are |x| * 10^(16 - e)
rounded half to even, from the exact product of the mantissa and
5^(16 - e).  Every other cell (nan, inf, subnormal, |x| >= 1e17, %s and
other formats or dtypes) is formatted by Python itself.
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
from .inner import TWO_PI, _require_int, _require_number, enlarge, from_dict
from .kernel import SincKernelSpec, _xi_integrals, higher_power_bound, sinc
# bound here as before the lockstep lemma checks; perfbench wraps this binding
from .kernel import xi_power_product_integral, xi_product_integral  # noqa: F401

# comparison slack for declaring a certified inequality violated
VIOLATION_TOL = 1e-9
# most query points of one report; more are refused before numpy allocates them
_MAX_QUERIES = 2**20
# the uniform-grid methods, which reconstruct a band-limited target
_BAND_METHODS = ("shannon", "pw_oversample")


class ConfigError(Exception):
    pass


# rows a report lays out in one byte grid and writes at a time; bounds the workspace
_BLOCK = 4096
# a byte no UTF-8 text holds: marks the bytes of a cell slot that are not written
_GAP = 255
_M32 = 0xFFFFFFFF
# a normal double below 10^17 has decimal exponent -308 <= e <= 16 and is
# scaled by 10^q, q = 16 - e <= _QMAX
_QMAX = 324
_EMIN = 16 - _QMAX


# 5^q for q = 0.._QMAX in 32-bit limbs, least significant first, the number
# of limbs each needs, and 5^0..5^27 (each below 2^63) as one uint64
_POW5 = np.frombuffer(b"".join((5**q).to_bytes(96, "little") for q in range(_QMAX + 1)),
                      "<u4").reshape(_QMAX + 1, 24).astype(np.uint64)
_POW5_SIZE = np.array([-(-(5**q).bit_length() // 32) for q in range(_QMAX + 1)])
_POW5_64 = 5 ** np.arange(28, dtype=np.uint64)


def _g17_layout():
    """The slots of %.17g cells keyed by (max(e, -5) + 5) * 17 + nd - 1 for
    decimal exponent e <= 16 and nd significant digits, and the exponent
    word of each e >= _EMIN.  A slot is the sign, "0.000", digit i at 6 + 2i
    with a point after it at 7 + 2i, then at byte 40 the word "e-" and three
    exponent digits.  Shown digit bytes are 0, to be or-ed with the digit;
    every byte a cell does not show is _GAP."""
    e = np.repeat(np.arange(-5, 17), 17)  # -5 stands for every e < -4
    nd = np.tile(np.arange(1, 18), 22)
    slot = np.full((len(e), 48), _GAP, np.uint8)
    small = (e >= -4) & (e < 0)
    slot[small, 1:3] = np.frombuffer(b"0.", np.uint8)
    for j in range(3):
        slot[small & (-e - 1 > j), 3 + j] = ord("0")
    last = np.where(e >= 0, np.maximum(e, nd - 1), nd - 1)
    slot[:, 6:39:2] = np.where(np.arange(17) > last[:, None], np.uint8(_GAP), np.uint8(0))
    rows = np.flatnonzero((e >= 0) & (nd - 1 > e) | (e == -5) & (nd > 1))
    slot[rows, 7 + 2 * np.maximum(e[rows], 0)] = ord(".")
    exp = -np.arange(_EMIN, 17)
    word = np.full((len(exp), 8), _GAP, np.uint8)
    sci = exp > 4
    word[sci, :2] = np.frombuffer(b"e-", np.uint8)
    word[sci & (exp >= 100), 2] = ord("0") + exp[sci & (exp >= 100)] // 100
    word[sci, 3] = ord("0") + exp[sci] // 10 % 10
    word[sci, 4] = ord("0") + exp[sci] % 10
    return slot, word.view(np.uint64).ravel()


# the 48-byte slots, one item per key, and the exponent words, indexed by
# e - _EMIN; and the narrow 32-byte slots for blocks with no |x| >= 10,
# which have no point after digits 1..15, so digits 1..16 fill bytes 8..23
# and the exponent word bytes 24..31
_G17_SLOT, _G17_EXP = _g17_layout()
_G17_NARROW = np.ascontiguousarray(_G17_SLOT[:, np.r_[0:8, 8:39:2, 40:48]]).view("V32").ravel()
_G17_SLOT = _G17_SLOT.view("V48").ravel()
# 10^1 .. 10^19: an integer of magnitude u has 1 + searchsorted(u) digits
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)
# "0000" .. "9999" as four ASCII digits in one uint32, and in one uint64 with
# a zero byte after each digit (digits 1..16 of a 48-byte slot); and how many
# of the four digits are trailing zeros
_DIGITS4 = (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
            + ord("0")).astype(np.uint8)
_SPREAD4 = np.zeros((10000, 8), np.uint8)
_SPREAD4[:, ::2] = _DIGITS4
_DIGITS4, _SPREAD4 = _DIGITS4.view(np.uint32).ravel(), _SPREAD4.view(np.uint64).ravel()
_TRAILING4 = sum(np.arange(10000) % 10**k == 0 for k in range(1, 5))


def _groups(u, count):
    """The count low four-digit groups of uint64 u, most significant first."""
    groups = []
    for _ in range(count):
        quot = u // 10000
        groups.append((u - quot * 10000).astype(np.intp))
        u = quot
    return groups[::-1]


def _scaled128(m, t, q):
    """floor(m * 5^q * 2^t) and whether round-half-even rounds it up, for uint64
    m < 2^53, -64 <= t <= 5 and 0 <= q <= 27: 5^q < 2^63, so the product is
    exact in two uint64 words."""
    m = m << np.maximum(t, 0).astype(np.uint64)
    shift = np.minimum(np.maximum(-t, 0), 64).astype(np.uint64)
    pow5 = _POW5_64[q]
    m0, m1, p0, p1 = m & _M32, m >> 32, pow5 & _M32, pow5 >> 32
    low = m0 * p0
    mid = m0 * p1 + m1 * p0
    lo = low + (mid << 32)
    hi = m1 * p1 + (mid >> 32) + (lo < low)
    floor = (hi << (64 - shift)) | (lo >> shift)
    half = np.maximum(shift, 1) - 1
    tie_or_more = (lo >> half) & 1 == 1
    above = (lo & ((np.uint64(1) << half) - 1) != 0) | (floor & 1 == 1)
    return floor, (shift > 0) & tie_or_more & above


def _scaled(m, k, q):
    """floor(m * 2^k * 10^q) and whether round-half-even rounds it up, for
    uint64 m < 2^53, k and 0 <= q <= _QMAX with a floor below 2^60: exact, from
    the product m * 5^q in 32-bit limbs shifted by k + q bits."""
    n = len(m)
    t = k + q
    m = m << np.maximum(t, 0).astype(np.uint64)
    shift = np.maximum(-t, 0).astype(np.uint64)
    size = _POW5_SIZE[q.max()]
    pow5 = _POW5[q, :size].T
    low, high = (m & _M32) * pow5, (m >> 32) * pow5
    # limbs of the product, two spare at the top for the shifted read below
    acc = np.zeros((size + 4, n), np.uint64)
    acc[:size] = low & _M32
    acc[1:size + 1] += (low >> 32) + (high & _M32)
    acc[2:size + 2] += high >> 32
    for i in range(size + 1):
        acc[i + 1] += acc[i] >> 32
        acc[i] &= _M32
    cols = np.arange(n)
    word = (shift >> 5).astype(np.intp)
    bit = shift & 31
    floor = (acc[word, cols] >> bit) + ((acc[word + 1, cols] + (acc[word + 2, cols] << 32))
                                        << (32 - bit))
    # bit shift - 1 is the half; any bit below it, or an odd floor on a tie, rounds up
    half = np.maximum(shift, 1) - 1
    word = (half >> 5).astype(np.intp)
    bit = half & 31
    limb = acc[word, cols]
    below = (limb & ((np.uint64(1) << bit) - 1)) != 0
    below |= (word > 0) & np.logical_or.accumulate(acc != 0)[np.maximum(word - 1, 0), cols]
    return floor, (shift > 0) & ((limb >> bit) & 1 == 1) & (below | (floor & 1 == 1))


def _g17_digits(x):
    """(D, e, ok) of a float64 array under %.17g: D the 17 significant digits
    of |x| as an integer and e its decimal exponent (0 and 0 for a zero); ok
    is False where the cell is left to Python."""
    bits = x.view(np.uint64)
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    mant = (bits & ((1 << 52) - 1)) | (1 << 52)
    zero = bits << 1 == 0
    normal = (biased > 0) & (biased < 0x7FF)
    e = np.floor(np.log10(np.abs(np.where(normal, x, 1.0)))).astype(np.int64)
    # most cells: 0 <= 16 - e <= 27 and a shift of at most 64 bits
    q = np.minimum(np.maximum(16 - e, 0), 27)
    t = biased - 1075 + q
    digits, up = _scaled128(mant, t, q)
    ok = normal & (q == 16 - e) & (t >= -64) & (digits >= 10**16) & (digits < 10**17)
    todo = np.flatnonzero(normal & ~ok)
    digits += up
    ok |= zero
    digits[zero] = 0
    # the rest, and any e that log10 put one off near a power of ten, by the
    # limb product; the floor shows which way e was off
    for _ in range(3):
        q = 16 - e[todo]
        inside = (q >= 0) & (q <= _QMAX)
        todo, q = todo[inside], q[inside]
        if not len(todo):
            break
        floor, up = _scaled(mant[todo], biased[todo] - 1075, q)
        low, high = floor < 10**16, floor >= 10**17
        digits[todo] = floor + up
        e[todo[high]] += 1
        e[todo[low]] -= 1
        fine = ~(low | high)
        ok[todo[fine]] = True
        todo = todo[~fine]
    # a floor of 10^17 - 1 that rounds up is 10^16 at the next exponent
    carry = digits == 10**17
    digits[carry] = 10**16
    e[carry] += 1
    return digits, e, ok


def _fill_g17(slot, x):
    """Lay out the %.17g cells of float64 x in the (n, 48) slot, or the (n, 32)
    narrow slot; returns the rows left to Python."""
    digits, e, ok = _g17_digits(x)
    # digit 0, then digits 1..16 in four groups
    groups = _groups(digits, 5)
    # trailing zeros: those of the last group, then of each group before it
    # in the rows where every group after it is zero
    trailing = _TRAILING4[groups[4]]
    for i in range(3, -1, -1):
        rows = np.flatnonzero(trailing == 4 * (4 - i))
        if not len(rows):
            break
        trailing[rows] += _TRAILING4[groups[i][rows]]
    e = np.where(ok, e, 0)  # the rows left to Python take any valid slot
    key = (np.maximum(e, -5) + 5) * 17 + np.maximum(16 - trailing, 0)
    if slot.shape[1] == 48:
        cells = _G17_SLOT[key].view(np.uint8).reshape(-1, 48)
        words, table, first = cells.view(np.uint64), _SPREAD4, 1
    else:
        cells = _G17_NARROW[key].view(np.uint8).reshape(-1, 32)
        words, table, first = cells.view(np.uint32), _DIGITS4, 2
    cells.view(np.uint64)[:, -1] = _G17_EXP[e - _EMIN]
    for i in range(1, 5):
        words[:, first + i - 1] |= table[groups[i]]
    cells[:, 6] |= (ord("0") + groups[0]).astype(np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), _GAP)
    slot[:] = cells
    return np.flatnonzero(~ok)


def _fill_int(slot, v):
    """Lay out the %d cells of int64 v in the (n, width) slot, the sign and
    then the digits; returns no rows, as none is left to Python."""
    mag = v.astype(np.uint64)
    mag = np.where(v < 0, 0 - mag, mag)
    nd = 1 + np.searchsorted(_POW10, mag, side="right")
    width = slot.shape[1] - 1
    groups = _groups(mag, -(-width // 4))
    text = np.stack([_DIGITS4[group] for group in groups], axis=1).view(np.uint8)[:, -width:]
    slot[:, 1:] = np.where(np.arange(width) < width - nd[:, None], _GAP, text)
    slot[:, 0] = np.where(v < 0, ord("-"), _GAP)
    return ()


def _texts(fmt, values):
    """fmt % value, as Python formats it, for each value, in UTF-8."""
    return [(fmt % (v,)).encode("utf-8") for v in values]


def _put_text(slot, rows, texts):
    """Write the texts into the given rows of slot, _GAP after each."""
    cells = np.full((len(rows), slot.shape[1]), _GAP, np.uint8)
    sizes = np.array([len(text) for text in texts], dtype=np.intp)
    cells[np.arange(slot.shape[1]) < sizes[:, None]] = np.frombuffer(b"".join(texts), np.uint8)
    slot[rows] = cells


def _layout(formats, cols) -> bytes:
    """The CSV text of one block of rows: each cell in its column's slot of one
    byte grid, then every _GAP byte dropped."""
    n = len(cols[0])
    plan = []  # (kernel fill and its column, or None and Python's texts; slot width)
    for fmt, col in zip(formats, cols):
        if fmt == "%.17g" and col.dtype == np.float64:
            # below 10 no cell has a point after its second digit
            plan.append((_fill_g17, col, 32 if np.abs(col).max() < 10.0 else 48))
        elif fmt == "%d" and np.can_cast(col.dtype, np.int64) and col.dtype != bool:
            col = col.astype(np.int64)
            plan.append((_fill_int, col, 1 + len(str(max(int(col.max()), -int(col.min()))))))
        else:
            texts = _texts(fmt, col.tolist())
            plan.append((None, texts, max(map(len, texts))))
    ends = np.cumsum([width + 1 for _, _, width in plan])
    text = bytearray(n * int(ends[-1]))
    grid = np.frombuffer(text, np.uint8).reshape(n, ends[-1])
    grid[:, ends[:-1] - 1] = ord(",")
    grid[:, -1] = ord("\n")
    for fmt, (fill, cells, width), end in zip(formats, plan, ends):
        slot = grid[:, end - 1 - width:end - 1]
        if fill is None:
            _put_text(slot, np.arange(n), cells)
            continue
        rest = fill(slot, cells)
        if len(rest):
            _put_text(slot, rest, _texts(fmt, cells[rest].tolist()))
    return text.translate(None, bytes([_GAP]))


def _write_report(path: str, headers: dict, columns, formats, *data) -> None:
    """Write a CSV report: the # generated_at= line, # key=value headers, the
    column names, then row i of the data columns in the columns' %-formats
    (the bytes of fmt % cell, see the module docstring), _BLOCK rows at a time."""
    data = [np.asarray(col) for col in data]
    with open(path, "wb") as fh:
        fh.write((f"# generated_at={datetime.now(timezone.utc).isoformat()}\n"
                  + "".join(f"# {key}={val}\n" for key, val in headers.items())
                  + ",".join(columns) + "\n").encode("utf-8"))
        for start in range(0, len(data[0]), _BLOCK):
            fh.write(_layout(formats, [col[start:start + _BLOCK] for col in data]))


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


def _positive(val, where: str) -> float:
    val = _require_number(val, where)
    if not 0.0 < val < math.inf:
        raise ValueError(f"{where}: expected a finite number > 0, got {val!r}")
    return val


def _power(val, where: str) -> float:
    val = _require_number(val, where)
    if not 1.0 <= val < math.inf:
        raise ValueError(f"{where}: expected a finite number >= 1, got {val!r}")
    return val


def _window_delta(val, where: str) -> float:
    """A delta of the window-sup checks: finite, > 0, and with a sample grid,
    which depends on delta alone, within its limits."""
    val = _positive(val, where)
    try:
        harness._window_count(val)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return val


def _num(params: dict, key: str, default=None, ok=None, want=""):
    val = _param(params, key, default, _require_number)
    if ok and not ok(val):
        raise ConfigError(f"params.{key}: expected {want}, got {val!r}")
    return val


def _int(params: dict, key: str, default=None, least=-math.inf):
    val = _param(params, key, default, _require_int)
    if val < least:
        raise ConfigError(f"params.{key}: expected an integer >= {least}, got {val!r}")
    return val


def _num_list(params: dict, key: str, default=None, each=_require_number):
    return _param(params, key, default, lambda val, where: _number_list(val, where, each))


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


def _corpus_params(params: dict, size: int = 20):
    """(size, count, seed) of a corpus, checked before any work."""
    return (_int(params, "size", size, least=1), _int(params, "count", 5, least=1),
            _int(params, "seed", 1))


def _corpus(spec, size: int, count: int, seed: int):
    """The corpus members and the panel table that the command's norm passes
    share with their normalisation (None for a zero-free spec)."""
    table = harness._panel_table(spec)
    seeds = [seed + 1000 * i for i in range(size)]
    return harness._random_model_functions(spec, count, seeds, table), table


def _cmd_nodes(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    gamma = _num(params, "gamma", 0.0)
    n_min = _int(params, "n_min")
    n_max = _int(params, "n_max")
    grid = clark.solve_nodes(spec, gamma, n_min, n_max)
    zeros = ";".join(f"{z.re:.17g}+{z.im:.17g}j*{z.mult}" for z in spec.zeros)
    _write_report(_out_path(config, out_dir, "nodes.csv"),
                  {"gamma": format(grid.gamma, ".17g"), "tau": format(spec.tau, ".17g"),
                   "c": format(spec.c, ".17g"), "zeros": zeros or "none",
                   "residual_bound": format(grid.residual_bound, ".3e"), "command": "nodes"},
                  ("n", "x_n", "weight"), ("%d", "%.17g", "%.17g"),
                  grid.indices, grid.nodes, grid.weights)
    return 0


def _band_target(spec, params):
    """Band-limited reference target for the uniform-grid methods."""
    if spec.zeros:
        raise ConfigError("shannon/pw_oversample need an inner spec without zeros")
    band = spec.c / 2.0
    if band <= 0.0:
        raise ConfigError("shannon/pw_oversample need c > 0")
    shift = _num(params, "shift", 0.4, math.isfinite, "a finite number")

    def target(x):
        return np.asarray(sinc(band * (np.asarray(x, dtype=float) - shift)), dtype=complex)

    return target


def _kernel_params(method, params):
    """(gamma, over_c, m) of a kernel method, each checked; clark has no over_c or m."""
    gamma = _num(params, "gamma", 0.0, lambda g: 0.0 <= g < TWO_PI, "a number in [0, 2 pi)")
    if method == "clark":
        return gamma, None, None
    over_c = _num(params, "over_c", 1.0, lambda v: math.isfinite(v) and v > 0.0,
                  "a finite number > 0")
    return gamma, over_c, _int(params, "m", 2, least=1)


def _target(spec, method, params):
    """The function a study reconstructs: the band target for the uniform-grid
    methods, a seeded random model-space function for the kernel methods,
    whose params are checked before it is drawn and certified."""
    if method in _BAND_METHODS:
        return _band_target(spec, params)
    _kernel_params(method, params)
    return harness.random_model_function(spec, _int(params, "count", 5), _int(params, "seed", 1))


def _reconstruct_window(spec, method, window, params, f, xs):
    """Reconstruction on xs of f from its samples on the method's grid,
    indices -window..window."""
    if method == "shannon":
        nodes = reconstruct._uniform_nodes(2 * window + 1, spec.c / 2.0)
        return reconstruct.shannon_reconstruct(f(nodes), spec.c / 2.0, xs)
    if method == "pw_oversample":
        kspec = SincKernelSpec(power=_int(params, "N", 2), a=_num(params, "a", 0.5), c=spec.c / 2.0)
        nodes = reconstruct._uniform_nodes(2 * window + 1, kspec.b)
        return reconstruct.pw_oversample_reconstruct(f(nodes), kspec, xs)
    gamma, over_c, m = _kernel_params(method, params)
    if method == "clark":
        grid = clark.solve_nodes(spec, gamma, -window, window)
        return reconstruct.clark_reconstruct(reconstruct.sample_function(f, grid), spec, xs)
    grid = clark.solve_nodes(enlarge(spec, over_c), gamma, -window, window)
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
    if n > _MAX_QUERIES:
        raise ConfigError(f"params.x_count: {n} queries exceed the limit of {_MAX_QUERIES}")
    return np.linspace(lo, hi, n)


def _cmd_reconstruct(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    method = params.get("method")
    if method not in reconstruct._METHODS:
        raise ConfigError(f"params.method: expected one of {reconstruct._METHODS}, got {method!r}")
    window = _int(params, "window", 300, least=0)
    clark._check_node_count(2 * window + 1)  # before the target is drawn and certified
    xs = _query_grid(params, -3.0, 3.0)
    f = _target(spec, method, params)
    truth = f(xs)
    rec = _reconstruct_window(spec, method, window, params, f, xs)
    # hypot of the parts gives abs() of each complex difference; np.abs can differ in the last bit
    diff = rec - truth
    _write_report(_out_path(config, out_dir, f"reconstruct_{method}.csv"),
                  {"command": "reconstruct", "method": method, "window": window},
                  ("x", "truth_re", "truth_im", "recon_re", "recon_im", "abs_error"),
                  ("%.17g",) * 6, xs, truth.real, truth.imag, rec.real, rec.imag,
                  np.hypot(diff.real, diff.imag))
    return 0


def _cmd_decay(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    methods = params.get("methods", ["shannon", "pw_oversample"])
    if not isinstance(methods, list) or not methods \
            or any(m not in reconstruct._METHODS for m in methods):
        raise ConfigError(f"params.methods: expected a nonempty list from {reconstruct._METHODS}")
    if len(set(methods)) < len(methods):
        # each method writes decay_<method>.csv; a repeat would redo and overwrite it
        raise ConfigError(f"params.methods: expected each method once, got {methods!r}")
    windows = _param(params, "windows", (25, 50, 100, 200, 400), _integer_list)
    if any(k < 1 for k in windows):
        raise ConfigError("params.windows: entries must be >= 1")
    clark._check_node_count(2 * max(windows) + 1)
    uniform = any(m in _BAND_METHODS for m in methods)
    xs = _query_grid(params, -1.0 if uniform else -3.0, 1.0 if uniform else 3.0)
    for method in methods:  # every param is checked before any target is drawn
        if method in _BAND_METHODS:
            _band_target(spec, params)
        else:
            _kernel_params(method, params)
    for method in methods:
        f = _target(spec, method, params)
        truth = f(xs)
        sups, l2s = [], []
        for window in windows:
            # f is sampled on each window's grid, not once on the widest grid
            # and sliced: its matrix products round by batch shape
            err = np.abs(_reconstruct_window(spec, method, window, params, f, xs) - truth)
            sups.append(err.max())
            l2s.append(np.sqrt(np.mean(err**2)))
        _write_report(os.path.join(out_dir, f"decay_{method}.csv"),
                      {"command": "decay", "method": method},
                      ("K", "sup_error", "l2_error"), ("%d", "%.17g", "%.17g"), windows, sups, l2s)
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
    rows = [(rep.delta, rep.value, *rep.witness) for rep in reps]
    _write_report(_out_path(config, out_dir, "density.csv"),
                  {"command": "density", "adapted": str(adapted).lower()},
                  ("delta", "value", "witness_left", "witness_right"), ("%.17g",) * 4, *zip(*rows))
    return 0


def _p_label(p: float) -> str:
    return format(p, "g").replace(".", "_")


def _cmd_certify_sieve(config, out_dir):
    spec = _section(config, "inner", from_dict)
    measure = _section(config, "measure", sieve.measure_from_dict)
    params = _as_params(config)
    # checked before the corpus is drawn and certified
    deltas = _num_list(params, "deltas", (0.1, 0.5, 1.0, 2.0), _positive)
    p_list = _num_list(params, "p", (1.0, 2.0), _power)
    size, count, seed = _corpus_params(params)
    funcs, table = _corpus(spec, size, count, seed)
    norms = harness._corpus_norms([(f, p, False) for p in p_list for f in funcs], table)
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
            rows.append((delta, dens, bound, worst, margin))
        _write_report(os.path.join(out_dir, f"certify_sieve_p{_p_label(p)}.csv"),
                      {"command": "certify-sieve", "p": f"{p:.17g}", "corpus_size": len(funcs)},
                      ("delta", "D", "bound", "max_ratio", "margin"), ("%.17g",) * 5, *zip(*rows))
    _write_manifest(os.path.join(out_dir, "certify_sieve_manifest.json"),
                    {**harness.corpus_manifest(spec, seed, count, len(funcs)),
                     "measure": sieve.measure_to_dict(measure)})
    return 2 if violations else 0


def _cmd_certify_bernstein(config, out_dir):
    spec = _section(config, "inner", from_dict)
    params = _as_params(config)
    p_list = _num_list(params, "p", (1.0, 2.0, 4.0), _power)
    rows = []
    violations = 0
    size, count, seed = _corpus_params(params)
    funcs, table = _corpus(spec, size, count, seed)
    checks = harness._bernstein_checks(funcs, p_list, table)
    for p in p_list:
        worst = 0.0
        for _ in funcs:
            lhs, rhs = next(checks)
            worst = max(worst, lhs / rhs)
        if worst > 1.0 + VIOLATION_TOL:
            violations += 1
        rows.append((p, worst, 1.0 - worst))
    _write_report(os.path.join(out_dir, "certify_bernstein.csv"),
                  {"command": "certify-bernstein", "corpus_size": len(funcs)},
                  ("p", "max_ratio", "margin"), ("%.17g",) * 3, *zip(*rows))
    _write_manifest(os.path.join(out_dir, "certify_bernstein_manifest.json"),
                    harness.corpus_manifest(spec, seed, count, len(funcs)))
    return 2 if violations else 0


def _cmd_lemma_checks(config, out_dir):
    params = _as_params(config)
    seed = _int(params, "seed", 1)
    pairs = _int(params, "pairs", 50, least=1)
    m_pairs = _int(params, "m_pairs", 20, least=1)
    if "inner" in config:
        spec = _section(config, "inner", from_dict)
        # checked before the sinc-power integrals and the corpus
        deltas = _num_list(params, "deltas", (0.25, 1.0), _window_delta)
        p_list = _num_list(params, "p", (1.0, 2.0), _power)
        size, count, _ = _corpus_params(params, 5)
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
        rows.append((name, cases, worst))

    if "inner" in config:
        funcs, table = _corpus(spec, size, count, seed)
        checks = harness._sup_sample_checks(funcs, deltas, p_list, table)
        worst = min(right - left for left, right in checks)
        if worst < -VIOLATION_TOL:
            violations += 1
        rows.append(("window_sup_budget", len(funcs), worst))

    _write_report(_out_path(config, out_dir, "lemma_checks.csv"),
                  {"command": "lemma-checks", "seed": seed},
                  ("check", "cases", "min_margin"), ("%s", "%d", "%.17g"), *zip(*rows))
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
COMMANDS = tuple(_DISPATCH)


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
