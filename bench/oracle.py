"""Independent model of the water-delivery world, used to check equiflow.

Nothing here imports equiflow.  The oracle reads the same experiment-config
JSON document the program reads and re-derives, in its own way:

* the legal actions of a (position, load) pair;
* one step of the dynamics: move, dispense (the whole load at a dead end),
  refill at the source, then every village consumes at its base or high rate
  (high while the level is strictly above the threshold), clamped at zero;
* the equity of a level vector: one minus the population-weighted Gini
  index, by the sorted-rank formula on the compressed (value, population)
  form, with an all-zero vector scoring 0 (Gini 1).

States are plain ``(levels, position, load, distributed)`` tuples, and
actions plain ``(destination, dispense)`` tuples, so that equiflow's named
tuples compare equal to them.
"""
from __future__ import annotations

SOURCE = -1


class World:
    """One road map with its villages, truck and water budget."""

    def __init__(self, env: dict, budget: int | None = None) -> None:
        villages = sorted(env["villages"], key=lambda v: int(v["id"]))
        self.n = len(villages)
        self.populations = [int(v["population"]) for v in villages]
        self.rates = [
            (float(v["base_rate"]), float(v["high_rate"]), float(v["threshold"]))
            for v in villages
        ]
        self.capacity = int(env["capacity"])
        self.quantum = int(env["delivery_quantum"])
        self.budget = int(env["total_to_distribute"]) if budget is None else int(budget)
        nodes = [SOURCE] + list(range(self.n))
        self.outgoing = {
            node: sorted({int(b) for a, b in env["edges"] if int(a) == node})
            for node in nodes
        }
        self.dead_end = {
            v: all(dest == SOURCE for dest in self.outgoing[v]) for v in range(self.n)
        }
        self.people = sum(self.populations)

    def legal_actions(self, position: int, load: int) -> list[tuple[int, int]]:
        """Legal (destination, dispense) pairs in ascending order."""
        actions = []
        for dest in self.outgoing[position]:
            if dest == SOURCE:
                if load == 0:
                    actions.append((SOURCE, 0))
            elif self.dead_end[dest]:
                actions.append((dest, load))
            else:
                actions.extend((dest, amount) for amount in range(0, load + 1, self.quantum))
        return actions

    def step(self, state, action) -> tuple:
        """The state ``action`` produces; the caller checks that it is legal."""
        levels, _, load, distributed = state
        dest, amount = action
        levels = list(levels)
        if dest == SOURCE:
            load = self.capacity
        else:
            load -= amount
            levels[dest] += amount / self.populations[dest]
        for i, (base, high, threshold) in enumerate(self.rates):
            left = levels[i] - (high if levels[i] > threshold else base)
            levels[i] = left if left > 0.0 else 0.0
        return (tuple(levels), dest, load, distributed + amount)

    def gini(self, levels) -> float:
        """Population-weighted Gini index by ranks on the compressed form."""
        total = sum(x * w for x, w in zip(levels, self.populations))
        if total == 0.0:
            return 1.0
        # Gini = (2 * sum(rank * x) - (n + 1) * total) / (n * total) over the
        # n inhabitants sorted by x.  The w inhabitants of a village hold ranks
        # below+1 .. below+w, which sum to w * (2 * below + w + 1) / 2.
        twice_rank_sum = 0.0
        below = 0
        for x, w in sorted(zip(levels, self.populations)):
            twice_rank_sum += x * w * (2 * below + w + 1)
            below += w
        n = self.people
        return (twice_rank_sum - (n + 1) * total) / (n * total)

    def equity(self, levels) -> float:
        return 1.0 - self.gini(levels)

    def successor_equities(self, state) -> list[tuple[tuple[int, int], float]]:
        """Every legal action with the equity of the state it produces."""
        return [
            (action, self.equity(self.step(state, action)[0]))
            for action in self.legal_actions(state[1], state[2])
        ]
