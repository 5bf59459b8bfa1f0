"""Per-AN tabular Q-learners for energy-aware downlink decisions.

Each AN learns which (AP rank, power level) to use for its downlinks; the
reward trades delivery against transmit power, which is what makes the
learned policy back off to the cheapest power that still delivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from vecsim.rng import RngStream

Action = tuple[int, int]   # (ap_rank, power_index)
State = tuple[int, ...]


@dataclass(eq=False, repr=False)
class QLearner:
    """Tabular Q with epsilon-greedy action selection.

    q maps a state to its Q values, one per action in `actions` order; a
    state not yet updated has every value 0. eta in (0, 1], gamma in [0, 1).
    """

    owner_an: int
    actions: list[Action]
    eta: float = 0.5
    gamma: float = 0.0
    epsilon: float = 0.1
    q: dict[State, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not self.actions:
            raise ValueError("action set must be nonempty")

    def value(self, state: State, action: Action) -> float:
        row = self.q.get(state)
        return row[self.actions.index(action)] if row else 0.0

    def best_action(self, state: State) -> Action:
        row = self.q.get(state, (0.0,))
        # deterministic tiebreak: first action in declaration order
        return self.actions[row.index(max(row))]

    def select(self, state: State, rng: RngStream) -> Action:
        if rng.random() < self.epsilon:
            return self.actions[rng.integers(len(self.actions))]
        return self.best_action(state)

    def update(self, state: State, action: Action, reward: float, next_state: State) -> None:
        next_row = self.q.get(next_state)
        best_next = max(next_row) if next_row else 0.0
        row = self.q.get(state) or self.q.setdefault(state, [0.0] * len(self.actions))
        i = self.actions.index(action)
        row[i] += self.eta * (reward + self.gamma * best_next - row[i])


def delivery_reward(delivered: bool, power_w: float, w_delivery: float, w_power: float) -> float:
    return w_delivery * (1.0 if delivered else 0.0) - w_power * power_w
