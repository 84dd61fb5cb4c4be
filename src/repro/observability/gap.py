"""Gap monitoring: is the serving state honoring the paper's α guarantee?

Theorem V.8/V.16 certify that Algorithm 2's assignment earns at least
α = 2(√2−1) ≈ 0.828 of the super-optimal bound F̂, and Lemma V.3 makes F̂
an upper bound on the true optimum — so the *realized utility / bound*
ratio of a state the service just re-certified can only fall below α if
something is wrong (a solver regression, state corruption, a stale bound
applied to mutated state).  :class:`GapMonitor` watches that ratio per
service step: rolling quantiles for dashboards, and a structured
``gap_alert`` event — returned to the owner, which emits it — the moment
a certified step ever dips below the guarantee.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any


def _default_threshold() -> float:
    # Imported lazily: observability must stay importable without the
    # core package (engine.context imports us before core loads).
    from repro.core.problem import ALPHA

    return ALPHA


class GapMonitor:
    """Tracks realized-utility / super-optimal-bound ratios per step.

    Parameters
    ----------
    threshold:
        Alert floor; defaults to the paper's α = 2(√2−1).  A certified
        step whose ratio falls below it (beyond ``tolerance``) yields a
        ``gap_alert`` event — per Lemma V.3 that is a bug, not a
        workload property.
    window:
        Number of recent ratios kept for the rolling quantiles.
    tolerance:
        Relative slack absorbing float roundoff in the ratio itself.
    """

    def __init__(
        self,
        threshold: float | None = None,
        window: int = 512,
        tolerance: float = 1e-9,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.threshold = (
            float(threshold) if threshold is not None else _default_threshold()
        )
        self.tolerance = float(tolerance)
        self._recent: deque[float] = deque(maxlen=int(window))
        self.count = 0
        self.breaches = 0
        self.min_ratio = math.inf
        self.last_ratio: float | None = None

    def observe(
        self, utility: float, bound: float, **context: Any
    ) -> dict[str, Any] | None:
        """Record one certified step; returns the alert event if it breached.

        ``bound <= 0`` (an empty cluster certifies trivially) records a
        ratio of 1.  Extra keyword context (``version=…``, ``step=…``)
        rides along on the alert event.
        """
        ratio = utility / bound if bound > 0 else 1.0
        self.count += 1
        self.last_ratio = ratio
        self.min_ratio = min(self.min_ratio, ratio)
        self._recent.append(ratio)
        if ratio >= self.threshold * (1.0 - self.tolerance):
            return None
        self.breaches += 1
        return {
            "type": "gap_alert",
            "ratio": ratio,
            "threshold": self.threshold,
            "utility": float(utility),
            "bound": float(bound),
            "breaches": self.breaches,
            **context,
        }

    def quantile(self, q: float) -> float:
        """Rolling-window ratio quantile (nearest-rank); nan when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self._recent:
            return math.nan
        ordered = sorted(self._recent)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def stats(self) -> dict[str, Any]:
        """JSON-ready summary for ``/healthz`` and ``aart client metrics``."""
        empty = self.count == 0
        return {
            "threshold": self.threshold,
            "steps": self.count,
            "breaches": self.breaches,
            "ok": self.breaches == 0,
            "last_ratio": self.last_ratio,
            "min_ratio": None if empty else self.min_ratio,
            "window": len(self._recent),
            "p50": None if empty else self.quantile(0.50),
            "p10": None if empty else self.quantile(0.10),
            "p01": None if empty else self.quantile(0.01),
        }
