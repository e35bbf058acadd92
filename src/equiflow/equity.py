"""Population-weighted Gini index and the per-person water equity score.

A state's equity is scored on the distribution that assigns every inhabitant
of a village that village's litres-per-inhabitant figure.  Rather than
materialising one entry per person, the index is computed directly on the
compressed (value, population) form; the pairwise formula is algebraically
identical to expanding the list person by person, and the test suite holds
the two routes to within 1e-12 of each other.

The scorer is compiled once per population vector into straight-line code:
one statement per village term, then one per village pair, with the weights
and their pairwise products written in as float literals.  The summation
order is fixed: village terms in village order, then pairs ``(i, j)`` with
``i < j`` in lexicographic order.  Trained models and evaluation outputs
depend on these bits, and the test suite holds the scorer bit-equal to a
plain loop in that order, so do not reorder the terms, reuse pair terms
between level vectors, or sum with ``sum()`` (compensated since Python 3.12).
"""
from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["make_equity_scorer"]


def make_equity_scorer(weights: Sequence[int]) -> Callable[[Sequence[float]], float]:
    """Equity evaluator (one minus the weighted Gini) for a fixed population vector.

    The score is 1 for perfect equality and 0 for an all-zero level vector.
    A level vector whose length differs from ``weights`` raises ValueError.
    """
    weights = tuple(int(w) for w in weights)
    if not weights:
        raise ValueError("weights must not be empty")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    n = len(weights)
    # Only reprs of floats made from the validated ints go into the source,
    # one statement per term: a chained expression over the 19,900 pairs of
    # 200 villages would nest the syntax tree that deep.
    lines = [
        "def score(values):",
        f"    {''.join(f'v{i}, ' for i in range(n))}= values",
        "    total = 0.0",
        *(f"    total += {float(w)!r} * v{i}" for i, w in enumerate(weights)),
        # Nobody has any water: maximally inequitable by convention.  Treating
        # the drained state as perfectly equal would make it an absorbing
        # one-step optimum that starves every policy.
        "    if total == 0.0:",
        "        return 0.0",
        "    spread = 0.0",
        *(
            f"    spread += {float(weights[i] * weights[j])!r} * abs(v{i} - v{j})"
            for i in range(n)
            for j in range(i + 1, n)
        ),
        f"    return 1.0 - spread / ({float(sum(weights))!r} * total)",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<equity scorer, {n} villages>", "exec"), namespace)
    return namespace["score"]
