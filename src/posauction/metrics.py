"""The four outcome metrics, normalized for cross-instance aggregation.

Efficiency and envy are normalized by the instance's best achievable
welfare, relevance by the best achievable click count, and revenue by best
welfare as well, so values from different instances can be averaged and
differenced.  Envy is undefined for externality settings, where a bidder's
utility depends on which rivals sit above and a pairwise swap is not well
defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanisms import Outcome, max_clicks, max_welfare
from .models import GimSetting, Setting


@dataclass(frozen=True)
class MetricVector:
    efficiency: float
    revenue: float
    relevance: float
    envy: float | None

    def get(self, name: str) -> float | None:
        return getattr(self, name)


def metric_vector(outcome: Outcome, setting: Setting,
                  max_welfare_value: float | None = None,
                  max_clicks_value: float | None = None) -> MetricVector:
    if max_welfare_value is None:
        max_welfare_value = max_welfare(setting)[1]
    if max_clicks_value is None:
        max_clicks_value = max_clicks(setting)
    if max_welfare_value <= 0:
        raise ValueError("degenerate instance: best achievable welfare is zero")
    envy = total_envy(outcome, setting, max_welfare_value=max_welfare_value)
    return MetricVector(
        efficiency=outcome.welfare / max_welfare_value,
        revenue=outcome.revenue / max_welfare_value,
        relevance=outcome.expected_clicks / max_clicks_value if max_clicks_value > 0 else 0.0,
        envy=envy,
    )


def total_envy(outcome: Outcome, setting: Setting,
               max_welfare_value: float | None = None) -> float | None:
    """Sum over ordered bidder pairs of positive envy, normalized.

    Bidder i envies j if taking j's slot lottery at j's per-click prices
    would beat i's own expected utility; the expectation runs over the
    tie-breaking lottery.  Returns None for externality settings.
    """
    if isinstance(setting, GimSetting):
        return None
    if max_welfare_value is None:
        max_welfare_value = max_welfare(setting)[1]
    n = setting.n
    total = 0.0
    for i in range(n):
        u_i = float(outcome.expected_utility[i])
        for j in range(n):
            if i == j:
                continue
            swap = 0.0
            for pos, _clicks, price, prob in outcome.slot_lottery[j]:
                if pos >= 1:
                    swap += prob * setting.clicks[i, pos - 1] * (
                        setting.values[i, pos - 1] - price)
            total += max(0.0, swap - u_i)
    return total / max_welfare_value


def bounds_for_unsolved(metric: str, setting: Setting,
                        max_welfare_value: float | None = None) -> tuple[float, float]:
    """Provable (lower, upper) bounds for a game with no identified
    equilibrium, on the normalized scale."""
    if metric in ("efficiency", "relevance"):
        return (0.0, 1.0)
    if metric == "revenue":
        # revenue cannot exceed the maximum welfare once normalized
        return (0.0, 1.0)
    if metric == "envy":
        if isinstance(setting, GimSetting):
            return (0.0, 0.0)
        if max_welfare_value is None:
            max_welfare_value = max_welfare(setting)[1]
        gain = np.max(np.asarray(setting.clicks) * np.asarray(setting.values), axis=1)
        return (0.0, float((setting.n - 1) * gain.sum()) / max_welfare_value)
    raise ValueError(f"unknown metric {metric!r}")
