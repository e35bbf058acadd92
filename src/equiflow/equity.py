"""Population-weighted Gini index and the per-person water equity score.

A state's equity is scored on the distribution that assigns every inhabitant
of a village that village's litres-per-inhabitant figure.  Rather than
materialising one entry per person, the index is computed directly on the
compressed (value, population) form; the pairwise formula is algebraically
identical to expanding the list person by person, and the test suite holds
the two routes to within 1e-12 of each other.

The scorer is compiled once per population vector into straight-line code
that names one term per village, then one per village pair, with the weights
and their pairwise products written in as float literals, and sums them.  The
summation order is fixed: village terms in village order, then pairs
``(i, j)`` with ``i < j`` in lexicographic order.  Trained models and
evaluation outputs depend on these bits, and the test suite holds the scorer
bit-equal to a plain loop in that order.  ``compile_scorer`` is the one
writer of the terms and their sum, for this scorer and for the successor
kernel in ``env``, which scores many level vectors that differ in one
village: it recomputes only that village's terms and reuses the others'
values, never partial sums.  Do not reorder the terms or sum with ``sum()``
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
    head = ["def f(values):", f"    {''.join(f'c{i}, ' for i in range(n))}= values"]
    return compile_scorer(f"equity scorer, {n} villages", head, weights, range(n))


def term_names(n: int) -> list[str]:
    """The village terms' names ``t{i}``, then the pair terms' ``p{i}_{j}``, in summation order."""
    return [f"t{i}" for i in range(n)] + [f"p{i}_{j}" for i in range(n) for j in range(i + 1, n)]


def compile_scorer(
    label: str, head: list[str], weights: Sequence[int], changed: Sequence[int],
    returning: str = "", into: str = "",
) -> Callable:
    """The function ``f`` that the lines ``head`` begin, finished by code that
    scores the levels ``c{i}`` and returns ``returning`` followed by the score.

    That code computes the village term ``t{i} = w_i * c{i}`` and the pair
    terms ``p{i}_{j} = w_i*w_j * |c{i} - c{j}|`` of each village in ``changed``
    (``head`` binds the other villages' terms), then sums all terms in the
    fixed order.  With ``into``, ``head`` ends inside a ``for`` loop, each pass
    appends ``returning`` and the score as one tuple to the list ``into``, and
    ``f`` returns that list.  The absolute difference is a conditional
    subtraction, which IEEE antisymmetry makes bit-equal to ``abs`` (a NaN
    stays NaN) but for the sign of a zero between ``0.0`` and ``-0.0``, which
    a sum from ``0.0`` drops.  Only reprs of floats made from the weights,
    which must be ints, go into the source.
    """
    n = len(weights)
    names = term_names(n)
    pad = "        " if into else "    "

    def summing(name: str, terms: Sequence[str]) -> list[str]:
        # Left to right from 0.0, as repeated ``+=`` would, in statements of at
        # most _CHAIN terms: one chained expression over the 19,900 pairs of
        # 200 villages would nest the syntax tree that deep.
        return [
            f"{pad}{name} = {name if k else '0.0'}{''.join(f' + {t}' for t in terms[k:k + _CHAIN])}"
            for k in range(0, max(len(terms), 1), _CHAIN)
        ]

    lines = [
        *head,
        *(f"{pad}t{i} = {float(weights[i])!r} * c{i}" for i in changed),
        *(f"{pad}p{i}_{j} = {float(weights[i] * weights[j])!r} * "
          f"(c{i} - c{j} if c{i} > c{j} else c{j} - c{i})"
          for i in range(n) for j in range(i + 1, n) if i in changed or j in changed),
        *summing("total", names[:n]),
        *summing("spread", names[n:]),
        # Nobody has any water: maximally inequitable by convention.  Treating
        # the drained state as perfectly equal would make it an absorbing
        # one-step optimum that starves every policy.
        f"{pad}score = 1.0 - spread / ({float(sum(weights))!r} * total) if total != 0.0 else 0.0",
        *([f"{pad}{into}.append(({returning}score))", f"    return {into}"] if into
          else [f"    return {returning}score"]),
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<{label}>", "exec"), namespace)
    return namespace["f"]
