"""Aggregate statistics over repeated randomized runs.

Randomized schedules (Bernoulli, Markov, whack-a-mole) make single-run
gap numbers noisy; robustness claims need distributions. This module
aggregates per-seed exploration reports into summary statistics with
normal-approximation confidence intervals, computed with NumPy (a
required dependency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean, spread and a 95% normal-approximation confidence interval."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def render(self, unit: str = "") -> str:
        """One-line human summary."""
        suffix = f" {unit}" if unit else ""
        return (
            f"mean {self.mean:.2f}{suffix} "
            f"(95% CI [{self.ci_low:.2f}, {self.ci_high:.2f}], "
            f"min {self.minimum:g}, max {self.maximum:g}, n={self.count})"
        )


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Summarize a non-empty sample."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    low, high = float(arr.min()), float(arr.max())
    half_width = 1.96 * std / math.sqrt(n) if n > 1 else 0.0
    return SummaryStatistics(
        count=n,
        mean=mean,
        std=std,
        minimum=low,
        maximum=high,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
    )


@dataclass(frozen=True)
class SeedSweepResult:
    """Gap/cover statistics of one configuration across seeds."""

    label: str
    cover_times: SummaryStatistics
    max_gaps: SummaryStatistics
    all_covered: bool

    def render(self) -> str:
        """Two-line human summary."""
        return (
            f"{self.label}: covered={self.all_covered}\n"
            f"  cover time {self.cover_times.render('rounds')}\n"
            f"  max gap    {self.max_gaps.render('rounds')}"
        )


def seed_sweep(
    label: str,
    run_one: Callable[[int], tuple[float, float, bool]],
    seeds: Sequence[int],
) -> SeedSweepResult:
    """Run ``run_one(seed) -> (cover_time, max_gap, covered)`` per seed.

    Uncovered runs contribute their horizon as the (censored) cover time;
    callers encode that in ``run_one``.
    """
    covers: list[float] = []
    gaps: list[float] = []
    all_covered = True
    for seed in seeds:
        cover, gap, covered = run_one(seed)
        covers.append(cover)
        gaps.append(gap)
        all_covered &= covered
    return SeedSweepResult(
        label=label,
        cover_times=summarize(covers),
        max_gaps=summarize(gaps),
        all_covered=all_covered,
    )


__all__ = ["SummaryStatistics", "summarize", "SeedSweepResult", "seed_sweep"]
