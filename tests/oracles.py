"""Slow independent oracles used only by the tests.

Deliberately dumb implementations: composite Simpson with one Richardson
step, dense grid scans, golden-section refinement, central differences,
fixed-round bisection for the phase inverse, the allocating per-zero
forms of Theta, phi, phi' and of the kernel-combination values and
derivative, the full-length-state Newton phase inverse, the per-term
window mass, the dense O(N*M) node x query sums of the four
reconstruction routes, and earlier loops kept as bit-for-bit references
for their replacements.
Nothing here may import the adaptive quadrature, the phase inversion or the
reconstruction code under test; the earlier adapted-density search takes the
phase inversion as an argument.
"""
import math

import numpy as np

from modelspace.inner import _phase_second_derivative, enlarge, evaluate, phase_arrays
from modelspace.kernel import pw_oversample_kernel, sinc


def simpson(f, a, b, n):
    if n % 2 != 0:
        raise ValueError("n must be even")
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(f(xs))
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


def simpson_richardson(f, a, b, n=4096):
    coarse = simpson(f, a, b, n)
    fine = simpson(f, a, b, 2 * n)
    return fine + (fine - coarse) / 15.0


def dense_scan_max(f, lo, hi, step):
    xs = np.arange(lo, hi, step)
    ys = np.asarray(f(xs))
    i = int(np.argmax(ys))
    return float(xs[i]), float(ys[i])


def golden_max(f, lo, hi, iters=120):
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc = float(f(np.array([c]))[0])
    fd = float(f(np.array([d]))[0])
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = float(f(np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = float(f(np.array([d]))[0])
    mid = 0.5 * (a + b)
    return mid, float(f(np.array([mid]))[0])


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Theta, phi and phi' one zero at a time, each factor a fresh temporary.

def blaschke_product(spec, z):
    """Theta(z) = e^{i(tau + c z)} prod ((z - lam) / (z - conj lam))^m."""
    zz = np.asarray(z, dtype=complex)
    out = np.exp(1j * (spec.tau + spec.c * zz))
    for zero in spec.zeros:
        lam = complex(zero.re, zero.im)
        # a named factor: from 256 KiB numpy would form out * (temporary)
        # in the temporary's buffer with the operands swapped, and complex
        # multiplication rounds by operand order
        factor = ((zz - lam) / (zz - lam.conjugate())) ** zero.mult
        out = out * factor
    return out


def summed_phase_arrays(spec, x):
    """(phi, phi') with both sums formed in one loop over the zeros."""
    xx = np.asarray(x, dtype=float)
    val = spec.tau + spec.c * xx
    der = np.full_like(xx, spec.c)
    for zero in spec.zeros:
        w = xx - zero.re
        val = val - (2.0 * zero.mult) * np.arctan2(zero.im, w)
        der = der + (2.0 * zero.mult) * zero.im / (w * w + zero.im * zero.im)
    return val, der


def kernel_combination_values(f, z):
    """f(z) at points of any shape, real or complex, from one allocating
    (K x n) array of kernel terms, Theta taken from blaschke_product."""
    zz = np.asarray(z, dtype=complex).reshape(-1)
    theta = blaschke_product(f.spec, zz)
    wbar = np.conj(f.anchors)
    qbar = np.conj(blaschke_product(f.spec, f.anchors))
    den = zz[None, :] - wbar[:, None]
    num = 1.0 - qbar[:, None] * theta[None, :]
    terms = num / den
    return ((0.5j / math.pi) * (f.coefficients[None, :] @ terms)[0]).reshape(np.shape(z))


def kernel_combination_derivative(f, x):
    """f'(x) on the real line from Theta' = i phi' Theta, phi' taken from
    summed_phase_arrays."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    _, dph = summed_phase_arrays(f.spec, xs)
    theta = blaschke_product(f.spec, xs)
    dtheta = 1j * dph * theta
    wbar = np.conj(f.anchors)
    qbar = np.conj(blaschke_product(f.spec, f.anchors))
    den = xs[None, :] - wbar[:, None]
    num = 1.0 - qbar[:, None] * theta[None, :]
    terms = (-qbar[:, None] * dtheta[None, :] * den - num) / den**2
    return ((0.5j / math.pi) * (f.coefficients[None, :] @ terms)[0]).reshape(np.shape(x))


def full_length_newton_inverse(spec, target, max_steps=64):
    """invert_phase as it was before its open-target state was compacted:
    every safeguarded Newton step gathers the open targets' iterate, target,
    bracket and last step from full-length arrays and scatters them back,
    with phi and phi' from summed_phase_arrays.  Raises ValueError for a
    non-finite target and RuntimeError when a target is open after
    max_steps steps; targets go in one batch (invert_phase's chunks do not
    change a target's bits, only the count in that message)."""
    t = np.asarray(target, dtype=float).ravel()
    if not np.all(np.isfinite(t)):
        raise ValueError("phase targets must be finite")
    x = (t - spec.tau) / spec.c
    pad = 2.0 * math.pi * spec.total_multiplicity / spec.c + 1.0
    lo = x - pad
    hi = x + pad
    step = np.full_like(x, 2.0 * pad)
    todo = np.arange(t.size)
    for _ in range(max_steps):
        if todo.size == 0:
            break
        xa, ta = x[todo], t[todo]
        vals, derivs = summed_phase_arrays(spec, xa)
        resid = vals - ta
        la = np.where(resid < 0.0, xa, lo[todo])
        ha = np.where(resid > 0.0, xa, hi[todo])
        newton = resid / derivs
        small = ((np.abs(resid) <= 1e-14 * (1.0 + np.abs(ta)))
                 | (np.abs(newton) <= 1e-15 * (1.0 + np.abs(xa))))
        xn = xa - newton
        mid = 0.5 * (la + ha)
        bisect = ~small & ((xn <= la) | (xn >= ha)
                           | (np.abs(newton) > 0.5 * np.abs(step[todo])))
        xn = np.where(bisect, mid, xn)
        done = small | (mid == la) | (mid == ha)
        x[todo], lo[todo], hi[todo], step[todo] = xn, la, ha, xn - xa
        todo = todo[~done]
    if todo.size:
        raise RuntimeError(f"phase inversion left {todo.size} targets unconverged "
                           f"after {max_steps} steps")
    if np.ndim(target) == 0:
        return float(x[0])
    return x.reshape(np.shape(target))


def looped_window_mass(measure, start, length):
    """mu([start, start + length]) one atom and then one piece at a time,
    each term added to a running sum of the broadcast shape."""
    x = np.asarray(start, dtype=float)
    ln = np.asarray(length, dtype=float)
    out = np.zeros(np.broadcast(x, ln).shape)
    for a in measure.atoms:
        out = out + a.mass * ((x <= a.position) & (a.position <= x + ln))
    for q in measure.pieces:
        cover = np.minimum(x + ln, q.right) - np.maximum(x, q.left)
        out = out + q.height * np.maximum(0.0, cover)
    return out


def bisect_invert_phase(spec, target):
    """phi(x) = target by 64 bisection rounds on [x0 - pad, x0 + pad], then
    two Newton steps; requires c > 0."""
    t = np.atleast_1d(np.asarray(target, dtype=float))
    swing = 2.0 * math.pi * spec.total_multiplicity
    x0 = (t - spec.tau) / spec.c
    pad = swing / spec.c + 1.0
    lo = x0 - pad
    hi = x0 + pad
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        vals, _ = summed_phase_arrays(spec, mid)
        go_right = vals < t
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(2):
        vals, derivs = summed_phase_arrays(spec, x)
        x = x - (vals - t) / derivs
    if np.ndim(target) == 0:
        return float(x[0])
    return x.reshape(np.shape(target))


# ---------------------------------------------------------------------------
# Dense reconstruction sums: one full node x query matrix per call.  Queries
# of any shape are flattened first, so the result has the shape of x.

def _uniform_nodes(count, b):
    half = (count - 1) // 2
    return np.arange(-half, half + 1) * (math.pi / b)


def _shaped(out, x):
    if np.ndim(x) == 0:
        return complex(out[0])
    return out.reshape(np.shape(x))


def dense_shannon(samples, b, x):
    vals = np.asarray(samples, dtype=complex)
    nodes = _uniform_nodes(vals.size, b)
    xs = np.asarray(x, dtype=float).ravel()
    return _shaped(vals @ sinc(b * (xs[None, :] - nodes[:, None])), x)


def dense_pw_oversample(samples, kspec, x):
    vals = np.asarray(samples, dtype=complex)
    nodes = _uniform_nodes(vals.size, kspec.b)
    xs = np.asarray(x, dtype=float).ravel()
    return _shaped(vals @ pw_oversample_kernel(kspec, xs[None, :] - nodes[:, None]), x)


def _dense_node_expansion(samples, spec, x, damping=None):
    """sum_n f(x_n) [damping(x - x_n)] k_{x_n}(x) / w_n, diagonal filled by f(x_n)."""
    grid = samples.grid
    xs = np.asarray(x, dtype=float).ravel()
    diff = xs[None, :] - grid.nodes[:, None]
    on_node = np.abs(diff) <= 1e-12 * np.maximum(1.0, np.abs(grid.nodes))[:, None]
    safe = np.where(on_node, 1.0, diff)
    qbar = np.conj(evaluate(spec, grid.nodes))
    theta_x = evaluate(spec, xs)
    kmat = (0.5j / math.pi) * (1.0 - qbar[:, None] * theta_x[None, :]) / safe
    terms = (samples.values / grid.weights)[:, None] * kmat
    if damping is not None:
        terms = terms * damping(diff)
    terms = np.where(on_node, samples.values[:, None], terms)
    return _shaped(terms.sum(axis=0), x)


def dense_clark(samples, spec, x):
    return _dense_node_expansion(samples, spec, x)


def dense_model_oversample(samples, base_spec, over_c, m, x):
    def damping(diff):
        return np.exp(-0.5j * over_c * diff) * sinc(over_c * diff / (2.0 * m)) ** m

    return _dense_node_expansion(samples, enlarge(base_spec, over_c), x, damping)


# ---------------------------------------------------------------------------
# Earlier loops: the replacements must give the same bits.

def allocating_cauchy_sum(nodes, coeff_rows, xs, order, j, n, chunk_bytes):
    """Chunked Cauchy sums with fresh reciprocal and power arrays per chunk;
    (j, n) are the node-query pairs left out."""
    rows = len(coeff_rows)
    stacked = np.concatenate([coeff_rows.real, coeff_rows.imag])
    sums = np.empty((2 * rows, xs.size))
    step = max(1, chunk_bytes // (16 * nodes.size))
    for q0 in range(0, xs.size, step):
        q1 = min(q0 + step, xs.size)
        p0, p1 = np.searchsorted(j, (q0, q1))
        recip = xs[q0:q1, None] - nodes[None, :]
        recip[j[p0:p1] - q0, n[p0:p1]] = np.inf
        np.reciprocal(recip, out=recip)
        power = recip if order == 1 else recip * recip
        for _ in range(order - 2):
            power *= recip
        sums[:, q0:q1] = stacked @ power.T
    return sums[:rows] + 1j * sums[rows:]


def full_round_sup_norm(spec):
    """sup phi' from the sign changes of phi'' on the windowed grid, each
    bracket bisected until all are narrower than 1e-12 or 60 rounds ran."""
    if not spec.zeros:
        return spec.c
    res = sorted(z.re for z in spec.zeros)
    ims = [z.im for z in spec.zeros]
    pad = 10.0 * max(ims)
    step = min(ims) / 4.0
    cuts = [i for i in range(1, len(res)) if res[i] - pad > res[i - 1] + pad]
    grid = np.concatenate([np.arange(res[first] - pad, res[last - 1] + pad + step, step)
                           for first, last in zip([0] + cuts, cuts + [len(res)])])
    g = _phase_second_derivative(spec, grid)
    candidates = [grid]
    sign_change = (g[:-1] == 0.0) | ((g[:-1] > 0.0) != (g[1:] > 0.0))
    a = grid[:-1][sign_change]
    b = grid[1:][sign_change]
    ga = g[:-1][sign_change]
    if a.size:
        for _ in range(60):
            mid = 0.5 * (a + b)
            gm = _phase_second_derivative(spec, mid)
            same = (gm > 0.0) == (ga > 0.0)
            a = np.where(same, mid, a)
            ga = np.where(same, gm, ga)
            b = np.where(same, b, mid)
            if float(np.max(b - a)) < 1e-12:
                break
        candidates.append(0.5 * (a + b))
    _, der = phase_arrays(spec, np.concatenate(candidates))
    return max(spec.c, float(der.max()))


def per_delta_adapted_density(measure, spec, delta, invert):
    """The phase-adapted density search for one delta of a spec with zeros,
    as (value, witness): breakpoints and their preimages, a scan with step
    min(shortest piece, delta/c)/8, then four zoom rounds around the top 8.
    invert is the phase inversion the search uses."""
    if measure.support_hull() is None:
        return 0.0, (0.0, delta / spec.c)

    def objective(a):
        vals, _ = phase_arrays(spec, a)
        b = invert(spec, vals + delta)
        length = b - a
        return measure.window_mass(a, length) / length, b

    max_len = delta / spec.c
    lo, hi = measure.support_hull()
    lo -= max_len
    bps = np.unique(np.asarray([a.position for a in measure.atoms]
                               + [p for q in measure.pieces for p in (q.left, q.right)],
                               dtype=float))
    bp_vals, _ = phase_arrays(spec, bps)
    preimages = invert(spec, bp_vals - delta)
    widths = [q.right - q.left for q in measure.pieces]
    step = min(min(widths) if widths else max_len, max_len) / 8.0
    grid = np.arange(lo, hi + step, step)
    cand = np.unique(np.concatenate([bps, preimages, grid, [lo, hi]]))
    cand = cand[(cand >= lo - max_len) & (cand <= hi + max_len)]
    vals, _ = objective(cand)
    order = np.argsort(vals)[::-1]
    top = cand[order[:8]]
    best_val = float(vals[order[0]])
    best_a = float(cand[order[0]])
    span = step
    for _ in range(4):
        local = (top[:, None] + np.linspace(-span, span, 101)[None, :]).ravel()
        lv, _ = objective(local)
        idx = int(np.argmax(lv))
        if float(lv[idx]) > best_val:
            best_val = float(lv[idx])
            best_a = float(local[idx])
        top = local[np.argsort(lv)[::-1][:8]]
        span /= 25.0
    _, b_best = objective(np.array([best_a]))
    return best_val, (best_a, float(b_best[0]))
