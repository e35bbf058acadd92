"""Population-weighted Gini index and the per-person water equity score.

A state's equity is scored on the distribution that assigns every inhabitant
of a village that village's litres-per-inhabitant figure.  Rather than
materialising one entry per person, the index is computed directly on the
compressed (value, population) form; the pairwise formula is algebraically
identical to expanding the list person by person, and the test suite holds
the two routes to within 1e-12 of each other.

The scorer is compiled once per population vector into straight-line code
that sums one term per village, then one per village pair, with the weights
and their pairwise products written in as float literals.  The summation
order is fixed: village terms in village order, then pairs ``(i, j)`` with
``i < j`` in lexicographic order.  Trained models and evaluation outputs
depend on these bits, and the test suite holds the scorer bit-equal to a
plain loop in that order.  ``score_statements`` writes that sum once, for
this scorer and for the successor kernel in ``env``, which scores many level
vectors that differ in one village: it may reuse term values between them,
never partial sums.  Do not reorder the terms or sum with ``sum()``
(compensated since Python 3.12).
"""
from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["make_equity_scorer"]

_CHAIN = 64  # terms summed per statement


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
    # Only reprs of floats made from the validated ints go into the source.
    lines = [
        "def score(values):",
        f"    {''.join(f'v{i}, ' for i in range(n))}= values",
        *score_statements(
            [f"{float(w)!r} * v{i}" for i, w in enumerate(weights)],
            [
                f"{float(weights[i] * weights[j])!r} * abs(v{i} - v{j})"
                for i in range(n)
                for j in range(i + 1, n)
            ],
            sum(weights),
        ),
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<equity scorer, {n} villages>", "exec"), namespace)
    return namespace["score"]


def score_statements(
    village_terms: Sequence[str], pair_terms: Sequence[str], weight_sum: int, returning: str = ""
) -> list[str]:
    """Function-body lines that sum the given term expressions in the fixed order
    and return ``returning`` followed by the equity score.

    ``village_terms`` are the ``w_i * v_i`` terms in village order and
    ``pair_terms`` the ``w_i * w_j * abs(v_i - v_j)`` terms with ``i < j`` in
    lexicographic order; each is a name or an expression.
    """
    def summing(name: str, terms: Sequence[str]) -> list[str]:
        # Left to right from 0.0, as repeated ``+=`` would, in statements of at
        # most _CHAIN terms: one chained expression over the 19,900 pairs of
        # 200 villages would nest the syntax tree that deep.
        return [
            f"    {name} = {name if k else '0.0'}{''.join(f' + {t}' for t in terms[k:k + _CHAIN])}"
            for k in range(0, max(len(terms), 1), _CHAIN)
        ]

    return [
        *summing("total", village_terms),
        # Nobody has any water: maximally inequitable by convention.  Treating
        # the drained state as perfectly equal would make it an absorbing
        # one-step optimum that starves every policy.
        "    if total == 0.0:",
        f"        return {returning}0.0",
        *summing("spread", pair_terms),
        f"    return {returning}1.0 - spread / ({float(weight_sum)!r} * total)",
    ]
