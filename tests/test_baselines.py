import numpy as np
import pytest

from epiadapt.baselines import (
    constant_adaptation_ratio,
    constant_adaptation_schedule,
    no_adaptation_schedule,
)
from epiadapt.dynamics import (
    EpidemicParams,
    constraint_value,
    integrate,
    objective_value,
)
from epiadapt.graph import Network, generate_ba
from reference import total_weights

PARAMS = EpidemicParams(beta=0.4, gamma=0.3, p0=0.153, horizon=10, substeps=10)


@pytest.fixture(scope="module")
def net20():
    return generate_ba(20, 5, 5, seed=1)


def bisect_ratio(net, horizon, budget, tol=1e-12):
    """Independent root finder for the budget identity on [0, 1]."""
    s = float(np.sum(net.w0**2))

    def spend(c):
        return (horizon - 1) * (1.0 - c) ** 2 * s - budget

    lo, hi = 0.0, 1.0
    # spend decreases in c: spend(0) = cap - budget >= 0 >= spend(1).
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spend(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestNoAdaptation:
    def test_spends_nothing(self, net20):
        sched = no_adaptation_schedule(net20, 10)
        assert constraint_value(sched, net20, 700.0) == pytest.approx(-700.0)

    def test_total_weights_constant(self, net20):
        sched = no_adaptation_schedule(net20, 10)
        for t in (0.0, 1.0, 5.0, 9.5):
            assert total_weights(sched, net20, t) == pytest.approx(170.0)

    def test_objective_equals_w0_integration(self, net20):
        sched = no_adaptation_schedule(net20, 10)
        traj = integrate(net20, PARAMS, sched)
        assert objective_value(traj) > 0.0
        np.testing.assert_array_equal(sched.blocks[0], net20.w0)


class TestConstantRatio:
    def test_zero_budget_keeps_weights(self, net20):
        assert constant_adaptation_ratio(net20, 10, 0.0) == pytest.approx(1.0)

    def test_full_budget_shuts_down(self, net20):
        cap = 9 * float(np.sum(net20.w0**2))
        assert constant_adaptation_ratio(net20, 10, cap) == pytest.approx(0.0)

    def test_reference_budget_ratio(self, net20):
        # T=10, S=170, C=700: c = 1 - sqrt(700/1530), reported as ~0.33.
        c = constant_adaptation_ratio(net20, 10, 700.0)
        assert c == pytest.approx(0.3236, abs=5e-4)
        assert abs(c - 0.33) < 0.01

    def test_matches_bisection_oracle(self, net20):
        for budget in (0.0, 10.0, 250.0, 700.0, 1200.0):
            expected = bisect_ratio(net20, 10, budget)
            assert constant_adaptation_ratio(net20, 10, budget) == pytest.approx(
                expected, abs=1e-10
            )

    def test_infeasible_budget_rejected(self, net20):
        cap = 9 * float(np.sum(net20.w0**2))
        with pytest.raises(ValueError):
            constant_adaptation_ratio(net20, 10, cap + 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            constant_adaptation_ratio(net20, 10, -1.0)
        with pytest.raises(ValueError, match="horizon"):
            constant_adaptation_ratio(net20, 1, 0.0)
        with pytest.raises(ValueError, match="horizon"):
            no_adaptation_schedule(net20, 1)

    def test_weightless_network_rejected(self):
        net = Network(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            constant_adaptation_ratio(net, 10, 0.0)


class TestConstantSchedule:
    def test_budget_exhausted_exactly(self, net20):
        sched = constant_adaptation_schedule(net20, 10, 700.0)
        assert abs(constraint_value(sched, net20, 700.0)) < 1e-9

    def test_scaled_total_weights(self, net20):
        c = constant_adaptation_ratio(net20, 10, 700.0)
        sched = constant_adaptation_schedule(net20, 10, 700.0)
        for t in (1.0, 4.5, 9.0):
            assert total_weights(sched, net20, t) == pytest.approx(170.0 * c)

    def test_objective_below_no_adaptation(self, net20):
        f_none = objective_value(integrate(net20, PARAMS, no_adaptation_schedule(net20, 10)))
        f_const = objective_value(
            integrate(net20, PARAMS, constant_adaptation_schedule(net20, 10, 700.0))
        )
        assert f_const < f_none

    def test_deterministic_across_calls(self, net20):
        a = constant_adaptation_schedule(net20, 10, 700.0)
        b = constant_adaptation_schedule(net20, 10, 700.0)
        np.testing.assert_array_equal(a.blocks, b.blocks)
