from __future__ import annotations

import pytest

from vecsim.ecorouting import QLearner, delivery_reward
from vecsim.rng import RngStream

ACTIONS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_learner_validates_rates_and_actions():
    with pytest.raises(ValueError):
        QLearner(owner_an=0, actions=ACTIONS, eta=0.0)
    with pytest.raises(ValueError):
        QLearner(owner_an=0, actions=ACTIONS, eta=1.5)
    with pytest.raises(ValueError):
        QLearner(owner_an=0, actions=ACTIONS, gamma=1.0)
    with pytest.raises(ValueError):
        QLearner(owner_an=0, actions=[])


def test_single_update_with_full_learning_rate():
    learner = QLearner(owner_an=0, actions=ACTIONS, eta=1.0, gamma=0.0)
    learner.update(state=(0,), action=(0, 0), reward=1.0, next_state=(0,))
    assert learner.value((0,), (0, 0)) == 1.0


def test_update_algebra_including_the_bootstrap_term():
    learner = QLearner(owner_an=0, actions=ACTIONS, eta=0.5, gamma=0.5)
    s, s2 = (1,), (2,)
    learner.update(s, (0, 0), reward=2.0, next_state=s2)
    assert learner.value(s, (0, 0)) == pytest.approx(1.0)
    learner.q[s2] = [0.0, 0.0, 0.0, 4.0]      # (1, 1) is the last of ACTIONS
    learner.update(s, (0, 0), reward=2.0, next_state=s2)
    # 1 + 0.5 * (2 + 0.5*4 - 1)
    assert learner.value(s, (0, 0)) == pytest.approx(2.5)


def test_repeated_updates_converge_to_the_discounted_fixed_point():
    learner = QLearner(owner_an=0, actions=[(0, 0)], eta=1.0, gamma=0.9)
    s = (0,)
    for _ in range(200):
        learner.update(s, (0, 0), reward=1.0, next_state=s)
    assert learner.value(s, (0, 0)) == pytest.approx(10.0, abs=1e-6)


def test_best_action_breaks_ties_in_declaration_order():
    learner = QLearner(owner_an=0, actions=ACTIONS)
    assert learner.best_action((0,)) == (0, 0)
    learner.q[(0,)] = [0.0, 0.0, 0.7, 0.7]    # (1, 0) and (1, 1) tie
    assert learner.best_action((0,)) == (1, 0)


def test_select_is_greedy_when_epsilon_is_zero():
    learner = QLearner(owner_an=0, actions=ACTIONS, epsilon=0.0)
    learner.q[(3,)] = [0.0, 1.0, 0.0, 0.0]    # (0, 1) leads
    rng = RngStream(0, "eco")
    assert all(learner.select((3,), rng) == (0, 1) for _ in range(20))


def test_select_explores_within_the_action_set():
    learner = QLearner(owner_an=0, actions=ACTIONS, epsilon=1.0)
    rng = RngStream(4, "eco")
    picks = {learner.select((0,), rng) for _ in range(100)}
    assert picks <= set(ACTIONS)
    assert len(picks) > 1


def test_delivery_reward_trades_delivery_against_power():
    assert delivery_reward(True, 0.5, w_delivery=1.0, w_power=0.2) == pytest.approx(0.9)
    assert delivery_reward(False, 0.5, w_delivery=1.0, w_power=0.2) == pytest.approx(-0.1)


def test_learned_policy_backs_off_to_the_cheapest_delivering_power():
    # rank 0 delivers at either power level; power 0 costs less, so the greedy
    # fixed point is (rank 0, power index 0)
    learner = QLearner(owner_an=0, actions=ACTIONS, eta=0.5, gamma=0.0, epsilon=0.1)
    rng = RngStream(77, "eco")
    powers = [0.1, 1.0]
    for _ in range(400):
        s = (0,)
        a = learner.select(s, rng)
        delivered = a[0] == 0
        r = delivery_reward(delivered, powers[a[1]], w_delivery=1.0, w_power=0.5)
        learner.update(s, a, r, s)
    assert learner.best_action((0,)) == (0, 0)
