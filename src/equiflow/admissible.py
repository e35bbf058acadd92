"""Action scoring and admissibility: which moves keep equity close to the best.

Every legal action is scored with the equity of the state it would produce
(one-step lookahead through the deterministic dynamics, read from the
successor table ``env.successors`` builds in one pass per state).  An action is
epsilon-admissible when its score is within ``epsilon`` of the best score;
the greedy baseline policy always takes a best-scoring action.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .env import Action, EnvConfig, WorldState, successors

__all__ = ["ScoredAction", "score_actions", "admissible_from", "best_scored", "is_violation"]


class ScoredAction(NamedTuple):
    action: Action
    successor_alignment: float  # equity of the state the action produces


def score_actions(state: WorldState, config: EnvConfig) -> list[ScoredAction]:
    """Score every available action; order follows (destination, dispense).

    Reads the one-pass ``successors`` table, which stays memoised for this
    state object so the ``Episode.step`` that follows commits its entry.
    """
    return [ScoredAction(a, score) for a, (_, score) in successors(state, config).items()]


def admissible_from(scored: Sequence[ScoredAction], epsilon: float) -> list[ScoredAction]:
    """Entries within ``epsilon`` of the best score, original order preserved.

    Never empty for a non-empty ``scored``: a best entry always survives.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    best = max(sa.successor_alignment for sa in scored)
    cut = best - epsilon
    return [sa for sa in scored if sa.successor_alignment >= cut]


def best_scored(scored: Sequence[ScoredAction]) -> ScoredAction:
    """First maximal entry in the deterministic action order."""
    best = scored[0]
    for sa in scored[1:]:
        if sa.successor_alignment > best.successor_alignment:
            best = sa
    return best


def is_violation(next_alignment: float, tau: float) -> bool:
    """True when the produced state's equity falls strictly below ``tau``."""
    return next_alignment < tau
