"""Interpolation operators: Shannon, oversampled sinc, and kernel expansions.

Four reconstruction routes share one shape contract: samples live on a grid
(uniform kπ/b spacing for the band-limited pair, a phase-crossing grid for
the kernel pair), and evaluation is vectorized over the query points.  Sums
are finite; truncation behavior is the object of study, not an error.

Every route separates the variables of its kernel, so the expansion becomes
a few Cauchy sums sum_n c_n / (x − x_n)^r over the nodes, each multiplied by
a factor that depends on x alone; `_cauchy_sum` evaluates them.  Node-query
pairs closer than the kernel's own length scale are summed term by term with
the exact kernel instead, which keeps the removable singularity and the
cancellation of the separated form out of the result.  Cost model for N
nodes and M queries: O(N·M) time, and memory bounded by the fixed chunk
budget `_CHUNK_BYTES` plus O(N + M); the pairs summed term by term number a
few per query, set by the kernel scale over the node spacing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clark import SamplingGrid, _check_node_count
from .inner import InnerFunctionSpec, enlarge, evaluate, phase_difference, shaped_like
from .kernel import SincKernelSpec, pw_oversample_kernel, sinc

# Relative slack used to detect a query point sitting on a grid node.
_DIAG_TOL = 1e-12

# Bytes of node x query workspace that one chunk of _cauchy_sum may hold.
_CHUNK_BYTES = 1 << 24

__all__ = ["GridSpecMismatchError", "SampleSet",
           "sample_function", "truncate_samples", "shannon_reconstruct",
           "pw_oversample_reconstruct", "clark_reconstruct",
           "model_oversample_reconstruct", "plancherel_norm"]


class GridSpecMismatchError(ValueError):
    """Samples were taken on a grid that does not match the requested expansion."""


_METHODS = ("shannon", "pw_oversample", "clark", "model_oversample")


@dataclass(eq=False)
class SampleSet:
    """Function values taken on a sampling grid."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.grid),):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid size {len(self.grid)}")


def sample_function(f, grid: SamplingGrid) -> SampleSet:
    return SampleSet(grid=grid, values=np.asarray(f(grid.nodes), dtype=complex))


def truncate_samples(samples: SampleSet, window: int) -> SampleSet:
    """Keep nodes with |n| <= window."""
    keep = np.abs(samples.grid.indices) <= window
    if not keep.any():
        raise ValueError(f"window {window} removes every node")
    g = samples.grid
    sub = SamplingGrid(spec=g.spec, gamma=g.gamma, indices=g.indices[keep],
                       nodes=g.nodes[keep], weights=g.weights[keep],
                       residual_bound=g.residual_bound)
    return SampleSet(grid=sub, values=samples.values[keep])


def _uniform_nodes(count: int, b: float) -> np.ndarray:
    if count % 2 != 1:
        raise ValueError(f"sample count must be odd (symmetric window), got {count}")
    _check_node_count(count)
    half = (count - 1) // 2
    return np.arange(-half, half + 1) * (math.pi / b)


def _near_pairs(nodes: np.ndarray, xs: np.ndarray, width: float):
    """(query index, node index) of every pair with |xs[j] − nodes[n]| < width.

    nodes must be increasing; the pairs come ordered by query index.
    """
    lo = np.searchsorted(nodes, xs - width, side="right")
    counts = np.searchsorted(nodes, xs + width, side="left") - lo
    j = np.repeat(np.arange(xs.size), counts)
    n = np.arange(j.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    return j, n


def _cauchy_sum(nodes: np.ndarray, coeff_rows: np.ndarray, xs: np.ndarray,
                order: int, width: float):
    """Cauchy sums of complex coefficient rows, chunked over the queries.

    Returns (sums, j, n).  sums[r, q] is the sum over the nodes k with
    |xs[q] − nodes[k]| >= width of coeff_rows[r, k] / (xs[q] − nodes[k])^order;
    (j, n) index the node-query pairs left out, which the caller sums with
    its exact kernel.  Each chunk forms the reciprocal powers once and
    contracts them with the real and imaginary parts of every row in one
    real matrix product.
    """
    j, n = _near_pairs(nodes, xs, width)
    rows = len(coeff_rows)
    stacked = np.concatenate([coeff_rows.real, coeff_rows.imag])
    sums = np.empty((2 * rows, xs.size))
    # two float64 buffers of step x N, allocated once: the reciprocals and their power
    step = max(1, _CHUNK_BYTES // (16 * nodes.size))
    recip_buf = np.empty((min(step, xs.size), nodes.size))
    power_buf = np.empty_like(recip_buf) if order > 1 else None
    for q0 in range(0, xs.size, step):
        q1 = min(q0 + step, xs.size)
        p0, p1 = np.searchsorted(j, (q0, q1))
        recip = np.subtract(xs[q0:q1, None], nodes[None, :], out=recip_buf[:q1 - q0])
        recip[j[p0:p1] - q0, n[p0:p1]] = np.inf  # left out: 1/inf = 0
        np.reciprocal(recip, out=recip)
        power = recip if order == 1 else np.multiply(recip, recip, out=power_buf[:q1 - q0])
        for _ in range(order - 2):
            power *= recip
        sums[:, q0:q1] = stacked @ power.T
    return sums[:rows] + 1j * sums[rows:], j, n


def _queries(x) -> np.ndarray:
    return np.asarray(x, dtype=float).ravel()


def _band_expansion(vals: np.ndarray, kspec: SincKernelSpec, x):
    """sum_k vals[k] K(x − kπ/b) for the kernel K = pw_oversample_kernel(kspec).

    With a = kspec.a, e = c + N a and t = x − x_k, K(t) is
    sin(at)^N sin(et) / (b a^N t^(N+1)), and

        sin(at)^N sin(et) = (2i)^−(N+1) sum_s C(N, s) (−1)^(N−s)
                            e^{i(2s−N)at} (e^{iet} − e^{−iet}),

    so each of the 2(N+1) frequencies w gives the row vals[k] e^{−iw x_k} and
    the factor e^{iwx} at order N + 1.  Pairs closer than 1/a (1/e without
    smoothing), where the exponentials cancel, take the kernel directly.
    """
    power, a = kspec.power, kspec.a
    edge = kspec.c + power * a
    nodes = _uniform_nodes(vals.size, kspec.b)
    xs = _queries(x)
    s = np.arange(power + 1)
    base = (2 * s - power) * a
    freqs = np.concatenate([base + edge, base - edge])
    binom = np.array([math.comb(power, i) * (-1.0) ** (power - i) for i in s])
    coef = np.concatenate([binom, -binom]) / ((2j) ** (power + 1) * kspec.b * a**power)
    rows = vals * np.exp(-1j * np.outer(freqs, nodes))
    sums, j, n = _cauchy_sum(nodes, rows, xs, power + 1, 1.0 / (a if power else edge))
    out = (coef[:, None] * np.exp(1j * np.outer(freqs, xs)) * sums).sum(axis=0)
    np.add.at(out, j, vals[n] * pw_oversample_kernel(kspec, xs[j] - nodes[n]))
    return shaped_like(out, x)


def shannon_reconstruct(samples, b: float, x):
    """Cardinal-series interpolation sum f(kπ/b) sinc(b(x − kπ/b)).

    samples holds the values f(kπ/b) for k = −K..K in order.
    """
    b = float(b)
    if not b > 0.0:
        raise ValueError(f"band must be positive, got {b}")
    # the oversampled kernel without smoothing is sinc(b t); a is then unused
    return _band_expansion(np.asarray(samples, dtype=complex),
                           SincKernelSpec(power=0, a=b, c=b), x)


def pw_oversample_reconstruct(samples, kspec: SincKernelSpec, x):
    """Oversampled interpolation: samples on spacing π/b with b = c + 2Na,
    summed against the smoothed kernel, which decays like |t|^(−N−1)."""
    return _band_expansion(np.asarray(samples, dtype=complex), kspec, x)


def _kernel_expansion(samples: SampleSet, spec: InnerFunctionSpec, x,
                      m: int = 0, alpha: float = 0.0):
    """sum_n f(x_n) D(x − x_n) k_{x_n}(x) / w_n with the removable diagonal
    x = x_n filled by f(x_n), where the damping D(t) is e^{−imαt} sinc(αt)^m
    (D = 1 for m = 0).

    With γ the grid offset, q_n = Θ(x_n) and t = x − x_n, the kernel
    numerator regroups exactly as

        1 − conj(q_n) Θ(x) = (1 − e^{−iγ}Θ(x)) + e^{−iγ}Θ(x) (1 − e^{iγ} conj(q_n)),

    and e^{−imαt} sin(αt)^m = (2i)^−m sum_s C(m, s) (−1)^s e^{−2isαt}, so the
    expansion is 2(m + 1) rows at order m + 1.  Pairs closer than 1/α
    (without damping, 1/φ' at the flattest node) take the exact term with
    numerator
    −expm1(i(φ(x) − φ(x_n))), which does not cancel near a node.
    """
    grid = samples.grid
    nodes = grid.nodes
    xs = _queries(x)
    amp = samples.values / grid.weights
    drift = 1.0 - np.exp(1j * grid.gamma) * np.conj(evaluate(spec, nodes))
    theta = np.exp(-1j * grid.gamma) * evaluate(spec, xs)  # e^{−iγ}Θ(x)
    s = np.arange(m + 1)
    shift = np.exp(2j * alpha * np.outer(s, nodes))
    rows = np.concatenate([amp * shift, (amp * drift) * shift])
    binom = np.array([math.comb(m, i) * (-1.0) ** i for i in s])
    wave = (0.5j / math.pi) / (2j * alpha) ** m * binom[:, None] * np.exp(
        -2j * alpha * np.outer(s, xs))
    factors = np.concatenate([wave * (1.0 - theta), wave * theta])
    # the damping scale 1/α exceeds the kernel scale 1/φ'(x_n) = 1/(2π w_n): φ' >= c > α
    width = 1.0 / (alpha if m else 2.0 * math.pi * grid.weights.min())
    sums, j, n = _cauchy_sum(nodes, rows, xs, m + 1, width)
    out = (factors * sums).sum(axis=0)
    t = xs[j] - nodes[n]
    on_node = np.abs(t) <= _DIAG_TOL * np.maximum(1.0, np.abs(nodes[n]))
    dphi = phase_difference(spec, xs[j], nodes[n])
    near = (0.5j / math.pi) * amp[n] * -np.expm1(1j * dphi) / np.where(on_node, 1.0, t)
    if m:
        near = near * np.exp(-1j * m * alpha * t) * sinc(alpha * t) ** m
    np.add.at(out, j, np.where(on_node, samples.values[n], near))
    return shaped_like(out, x)


def clark_reconstruct(samples: SampleSet, spec: InnerFunctionSpec, x):
    """Kernel-basis expansion sum_n f(x_n) k_{x_n}(x) / ||k_{x_n}||^2."""
    if samples.grid.spec != spec:
        raise GridSpecMismatchError("samples were not taken on a grid for this spec")
    return _kernel_expansion(samples, spec, x)


def model_oversample_reconstruct(samples: SampleSet, base_spec: InnerFunctionSpec,
                                 over_c: float, m: int, x):
    """Oversampled kernel expansion with polynomial damping of order m.

    Samples must live on the grid of the enlarged spec (base plus extra
    exponential type over_c); the damping factor
    e^{−i over_c (x−x_n)/2} sinc(over_c (x−x_n)/(2m))^m keeps the expansion
    inside the enlarged space while forcing |x−x_n|^(−m−1) term decay.
    """
    over_c = float(over_c)
    if not over_c > 0.0:
        raise ValueError(f"over_c must be > 0, got {over_c}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    big = enlarge(base_spec, over_c)
    if samples.grid.spec != big:
        raise GridSpecMismatchError(
            "samples must be taken on the grid of the enlarged spec "
            "(base with exponential type increased by over_c)")
    return _kernel_expansion(samples, big, x, m, over_c / (2.0 * m))


def plancherel_norm(samples: SampleSet) -> float:
    """sqrt(sum |f(x_n)|^2 / w_n) over the available window."""
    return float(np.sqrt(np.sum(np.abs(samples.values) ** 2 / samples.grid.weights)))
