"""Fixed-performance-factor regression (paper Sec. III-F).

"Some applications scale well, so by identifying the influence of the
application input parameters and using the data from previous scenarios,
new curves could be identified.  We are currently exploring regression
techniques and obtaining positive results for some workloads."

The model is the classical strong-scaling decomposition

    T(n) = a / n + b + c * n

(perfectly-parallel work, serial floor, per-node communication growth),
fitted with non-negative least squares so extrapolations stay physical.
The same module supports the paper's cross-input transfer: for a fixed VM
type, execution time is roughly proportional to total work, so a curve
measured at one input can be rescaled to another via the work ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SamplingError


@dataclass(frozen=True)
class ScalingLaw:
    """Fitted T(n) = a/n + b + c*n with fit quality."""

    a: float
    b: float
    c: float
    r_squared: float
    n_points: int
    n_min: float
    n_max: float

    def predict(self, nnodes: float) -> float:
        if nnodes <= 0:
            raise SamplingError(f"cannot predict for {nnodes} nodes")
        return self.a / nnodes + self.b + self.c * nnodes

    def optimistic(self, nnodes: float) -> float:
        """Lower bound: drop the comm-growth term (best case for the SKU)."""
        if nnodes <= 0:
            raise SamplingError(f"cannot predict for {nnodes} nodes")
        return self.a / nnodes + self.b

    def within_range(self, nnodes: float, extrapolation: float = 2.0) -> bool:
        """Whether a prediction at ``nnodes`` is interpolation-ish.

        Allows extrapolating up to ``extrapolation`` times beyond the
        measured node range in either direction.
        """
        return self.n_min / extrapolation <= nnodes <= self.n_max * extrapolation

    def scaled_by_work(self, work_ratio: float) -> "ScalingLaw":
        """Transfer the curve to a different input via a work ratio.

        Compute-proportional terms (a, b) scale with the work; the
        per-node communication growth scales sublinearly (surface-to-volume),
        approximated with the 2/3 power.
        """
        if work_ratio <= 0:
            raise SamplingError(f"work ratio must be positive: {work_ratio}")
        return ScalingLaw(
            a=self.a * work_ratio,
            b=self.b * work_ratio,
            c=self.c * work_ratio ** (2.0 / 3.0),
            r_squared=self.r_squared,
            n_points=self.n_points,
            n_min=self.n_min,
            n_max=self.n_max,
        )


def fit_scaling_law(points: Sequence[Tuple[float, float]]) -> ScalingLaw:
    """Fit the law to ``(nnodes, exec_time)`` pairs.

    Requires at least three distinct node counts (the model has three
    parameters).

    Raises
    ------
    SamplingError
        With fewer than three distinct node counts or non-positive input.
    """
    if len({n for n, _ in points}) < 3:
        raise SamplingError(
            f"need >= 3 distinct node counts to fit a scaling law, "
            f"got {sorted({n for n, _ in points})}"
        )
    ns = np.array([float(n) for n, _ in points])
    ts = np.array([float(t) for _, t in points])
    if np.any(ns <= 0) or np.any(ts < 0):
        raise SamplingError("node counts must be positive and times non-negative")
    # Imported here: scipy costs ~1 s to import, and only this fit needs
    # it, so ``import repro`` does not pay for it.
    from scipy.optimize import nnls

    design = np.column_stack([1.0 / ns, np.ones_like(ns), ns])
    coeffs, _residual = nnls(design, ts)
    predicted = design @ coeffs
    ss_res = float(np.sum((ts - predicted) ** 2))
    ss_tot = float(np.sum((ts - ts.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingLaw(
        a=float(coeffs[0]),
        b=float(coeffs[1]),
        c=float(coeffs[2]),
        r_squared=r_squared,
        n_points=len(points),
        n_min=float(ns.min()),
        n_max=float(ns.max()),
    )


def fit_per_group(
    observations: Sequence[Tuple[str, float, float]]
) -> Dict[str, ScalingLaw]:
    """Fit one law per group key from ``(group, nnodes, time)`` triples.

    Groups with fewer than three distinct node counts are silently omitted
    (not enough data yet) — callers treat a missing law as "must run".
    """
    grouped: Dict[str, List[Tuple[float, float]]] = {}
    for group, nnodes, time in observations:
        grouped.setdefault(group, []).append((nnodes, time))
    laws = {}
    for group, pts in grouped.items():
        if len({n for n, _ in pts}) >= 3:
            laws[group] = fit_scaling_law(pts)
    return laws
