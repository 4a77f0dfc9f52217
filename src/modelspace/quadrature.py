"""Adaptive Gauss-Kronrod quadrature with batched panel evaluation.

A 15-point Kronrod rule with embedded 7-point Gauss estimate is applied to a
worklist of panels.  Panels whose error estimate exceeds their share of the
budget are bisected, and all new panels of a round are evaluated in a single
vectorised call, so integrands only ever see one flat ndarray per round.

Integrands must accept a 1-d float ndarray and return an ndarray of the same
length (real or complex).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureError", "QuadratureResult", "integrate", "integrate_panels", "two_sided_panels"]

# Kronrod-15 abscissae on [-1, 1]; odd entries are the embedded Gauss-7 points.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


class QuadratureError(ArithmeticError):
    """Adaptive quadrature stopped before its error estimate met abs_tol."""


@dataclass
class QuadratureResult:
    value: complex
    error_bound: float
    panel_count: int
    converged: bool = True  # error_bound <= abs_tol

    def require_converged(self, what: str) -> "QuadratureResult":
        """self, or QuadratureError naming `what` when refinement fell short."""
        if not self.converged:
            raise QuadratureError(
                f"{what}: quadrature stopped at error estimate {self.error_bound:.3e} "
                f"over {self.panel_count} panels, above its tolerance")
        return self


def _gk_apply(f, a: np.ndarray, b: np.ndarray):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _XK[None, :]
    ys = np.asarray(f(xs.ravel())).reshape(xs.shape)
    ik = (ys * _WK[None, :]).sum(axis=1) * half
    ig = (ys[:, 1::2] * _WG[None, :]).sum(axis=1) * half
    return ik, np.abs(ik - ig)


def integrate_panels(f, panels, abs_tol: float, max_panels: int = 60000) -> QuadratureResult:
    """Integrate f over a union of panels, refining until the summed GK error
    estimate drops below abs_tol or the panel budget is exhausted.  The
    result's converged flag is False when refinement stopped short of abs_tol
    (panel budget, round cap or floating-point width)."""
    panels = np.asarray(panels, dtype=float)
    a = panels[:, 0].copy()
    b = panels[:, 1].copy()
    vals, errs = _gk_apply(f, a, b)
    # round cap is generous: splits are batched per round, and oscillatory
    # integrands can need hundreds of small rounds when one stubborn panel
    # keeps the split threshold high
    for _ in range(512):
        total_err = float(errs.sum())
        if total_err <= abs_tol or a.size >= max_panels:
            break
        err_max = float(errs.max())
        threshold = max(abs_tol / a.size, 0.25 * err_max)
        split = errs > min(threshold, 0.999999 * err_max)
        # never split panels already at floating-point width
        split &= (b - a) > 1e-13 * (1.0 + np.abs(a) + np.abs(b))
        if not split.any():
            break
        keep = ~split
        asp, bsp = a[split], b[split]
        msp = 0.5 * (asp + bsp)
        new_a = np.concatenate([asp, msp])
        new_b = np.concatenate([msp, bsp])
        new_vals, new_errs = _gk_apply(f, new_a, new_b)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
    value = vals.sum()
    if not np.iscomplexobj(vals):
        value = float(value)
    error_bound = float(errs.sum())
    return QuadratureResult(
        value=value,
        error_bound=error_bound,
        panel_count=int(a.size),
        converged=error_bound <= abs_tol,
    )


def integrate(f, lo: float, hi: float, abs_tol: float = 1e-10, initial: int | None = None,
              max_panels: int = 60000) -> QuadratureResult:
    """Integrate f over [lo, hi] with a uniform initial panelling."""
    if not hi > lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    if initial is None:
        initial = int(min(4096, max(8, np.ceil((hi - lo) / 4.0))))
    edges = np.linspace(lo, hi, initial + 1)
    return integrate_panels(f, np.column_stack([edges[:-1], edges[1:]]), abs_tol,
                            max_panels=max_panels)


def two_sided_panels(radius: float, inner: float = 16.0) -> np.ndarray:
    """Symmetric panelling of [-radius, radius]: unit-width panels out to
    inner, then widths growing by 1.35 per panel.  Adaptive refinement
    restores any resolution lost in the tails."""
    edges = [0.0]
    while edges[-1] < min(inner, radius):
        edges.append(min(radius, edges[-1] + 1.0))
    step = 1.0
    while edges[-1] < radius:
        step *= 1.35
        edges.append(min(radius, edges[-1] + step))
    e = np.asarray(edges)
    right = np.column_stack([e[:-1], e[1:]])
    left = np.column_stack([-e[1:], -e[:-1]])
    return np.vstack([left[::-1], right])

