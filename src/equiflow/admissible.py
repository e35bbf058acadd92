"""Action scoring and admissibility: which moves keep equity close to the best.

Every legal action is scored with the equity of the state it would produce
(one-step lookahead through the deterministic dynamics, read from the
successor table ``env.successors`` builds in one pass per state).  An action is
epsilon-admissible when its score is within ``epsilon`` of the best score;
the greedy baseline policy always takes a best-scoring action.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import Sequence

from .env import EnvConfig, ScoredAction, WorldState, successors

__all__ = ["score_actions", "admissible_from", "best_scored", "is_violation"]

_alignment = itemgetter(1)  # ``ScoredAction.successor_alignment`` without the attribute lookup


def score_actions(state: WorldState, config: EnvConfig) -> list[ScoredAction]:
    """Score every available action; order follows (destination, dispense).

    The list is the caller's: a copy of the one-pass ``successors`` table's,
    which stays memoised for this state object so the ``Episode.step`` that
    follows commits its entry.
    """
    return successors(state, config)[0].copy()


def admissible_from(scored: Sequence[ScoredAction], epsilon: float) -> list[ScoredAction]:
    """Entries within ``epsilon`` of the best score, original order preserved.

    Never empty for a non-empty ``scored``: a best entry always survives.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    cut = max(map(_alignment, scored)) - epsilon
    return [sa for sa in scored if sa[1] >= cut]


def best_scored(scored: Sequence[ScoredAction]) -> ScoredAction:
    """First maximal entry in the deterministic action order."""
    return max(scored, key=_alignment)


def is_violation(next_alignment: float, tau: float) -> bool:
    """True when the produced state's equity falls strictly below ``tau``."""
    return next_alignment < tau
