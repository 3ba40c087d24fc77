import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epiadapt.eps_constraint import (
    EpsilonSchedule,
    better_than,
    epsilon_at,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
nonneg = st.floats(allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e12)


class TestEpsilonSchedule:
    def test_starts_at_eps0(self):
        sched = EpsilonSchedule(eps0=470.0, gc=100, gmax=500)
        assert epsilon_at(sched, 0) == pytest.approx(470.0)

    def test_cutoff_value_is_exp_minus_lambda(self):
        # Substituting cp back into the schedule telescopes to exp(-lam),
        # independent of eps0.
        for eps0 in (0.1, 1.0, 37.5, 440.0, 1e6):
            sched = EpsilonSchedule(eps0=eps0, gc=80, gmax=400, lam=10.0)
            assert epsilon_at(sched, 80) == pytest.approx(4.539993e-5, rel=1e-5)

    def test_cutoff_identity_random_schedules(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = float(rng.uniform(1.0, 15.0))
            eps0 = float(math.exp(-lam) * rng.uniform(1.1, 1e6))
            gmax = int(rng.integers(10, 10_000))
            gc = int(rng.integers(1, gmax))
            sched = EpsilonSchedule(eps0=eps0, gc=gc, gmax=gmax, lam=lam)
            assert abs(epsilon_at(sched, gc) - math.exp(-lam)) < 1e-12

    def test_zero_after_cutoff(self):
        sched = EpsilonSchedule(eps0=5.0, gc=10, gmax=100)
        assert epsilon_at(sched, 11) == 0.0
        assert epsilon_at(sched, 100) == 0.0

    def test_monotone_non_increasing(self):
        for eps0 in (0.0, 1e-6, 0.5, 12.0, 3000.0):
            sched = EpsilonSchedule(eps0=eps0, gc=40, gmax=200)
            values = [epsilon_at(sched, g) for g in range(201)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_small_eps0_clamps_cp(self):
        # eps0 below exp(-lam) would invert the schedule; cp clamps to 0 so
        # the tolerance stays flat until the cutoff.
        sched = EpsilonSchedule(eps0=1e-8, gc=10, gmax=100, lam=10.0)
        assert sched.cp == 0.0
        assert epsilon_at(sched, 5) == pytest.approx(1e-8)

    def test_zero_eps0_schedule_is_zero(self):
        sched = EpsilonSchedule(eps0=0.0, gc=10, gmax=100)
        assert all(epsilon_at(sched, g) == 0.0 for g in range(0, 101, 10))

    def test_generation_bounds_checked(self):
        sched = EpsilonSchedule(eps0=1.0, gc=10, gmax=100)
        with pytest.raises(ValueError):
            epsilon_at(sched, -1)
        with pytest.raises(ValueError):
            epsilon_at(sched, 101)

    def test_invalid_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(eps0=1.0, gc=0, gmax=100)
        with pytest.raises(ValueError):
            EpsilonSchedule(eps0=1.0, gc=100, gmax=100)
        with pytest.raises(ValueError):
            EpsilonSchedule(eps0=-1.0, gc=10, gmax=100)


class TestComparator:
    def test_both_feasible_lower_f_wins(self):
        assert better_than(5.0, 0.0, 7.0, 0.0, eps=0.0)
        assert not better_than(7.0, 0.0, 5.0, 0.0, eps=0.0)

    def test_equal_violation_lower_f_wins(self):
        assert better_than(9.0, 0.3, 2.0, 0.3, eps=0.0) is False
        assert better_than(2.0, 0.3, 9.0, 0.3, eps=0.0) is True

    def test_otherwise_lower_violation_wins(self):
        assert better_than(100.0, 0.1, 1.0, 0.5, eps=0.0)

    def test_tolerated_violations_compare_by_f(self):
        assert better_than(1.0, 0.4, 2.0, 0.2, eps=0.5)
        assert not better_than(2.0, 0.2, 1.0, 0.4, eps=0.5)

    @given(fa=finite, va=nonneg, fb=finite, vb=nonneg, eps=nonneg)
    def test_asymmetric(self, fa, va, fb, vb, eps):
        assert not (better_than(fa, va, fb, vb, eps) and better_than(fb, vb, fa, va, eps))

    @given(f=finite, v=nonneg, eps=nonneg)
    def test_irreflexive(self, f, v, eps):
        assert not better_than(f, v, f, v, eps)

    @given(fa=finite, va=nonneg, fb=finite, vb=nonneg)
    def test_zero_eps_equals_feasibility_rule(self, fa, va, fb, vb):
        if va == 0.0 and vb == 0.0:
            expected = fa < fb
        elif va == 0.0:
            expected = True
        elif vb == 0.0:
            expected = False
        else:
            expected = va < vb or (va == vb and fa < fb)
        assert better_than(fa, va, fb, vb, eps=0.0) == expected
