"""Population-weighted Gini index and the per-person water equity score.

A state's equity is scored on the distribution that assigns every inhabitant
of a village that village's litres-per-inhabitant figure.  Rather than
materialising one entry per person, the index is computed directly on the
compressed (value, population) form; the pairwise formula is algebraically
identical to expanding the list person by person, and the test suite holds
the two routes to within 1e-12 of each other.
"""
from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["make_equity_scorer"]


def make_equity_scorer(weights: Sequence[int]) -> Callable[[Sequence[float]], float]:
    """Equity evaluator (one minus the weighted Gini) for a fixed population vector.

    The pairwise weight products are precomputed.  The score is 1 for perfect
    equality and 0 for an all-zero level vector.
    """
    weights = tuple(int(w) for w in weights)
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    pairs = tuple(
        (i, j, weights[i] * weights[j])
        for i in range(len(weights))
        for j in range(i + 1, len(weights))
    )
    total_people = sum(weights)

    def score(values: Sequence[float]) -> float:
        weighted_total = 0.0
        for w, v in zip(weights, values):
            weighted_total += w * v
        if weighted_total == 0.0:
            # Nobody has any water: maximally inequitable by convention.
            # Treating the drained state as perfectly equal would make it an
            # absorbing one-step optimum that starves every policy.
            return 0.0
        spread = 0.0
        for i, j, ww in pairs:
            diff = values[i] - values[j]
            spread += ww * (diff if diff >= 0.0 else -diff)
        return 1.0 - spread / (total_people * weighted_total)

    return score
