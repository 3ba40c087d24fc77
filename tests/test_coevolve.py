import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiadapt._native as native
import epiadapt.coevolve as coevolve
from epiadapt.coevolve import (
    C3Config,
    ContextBatch,
    grouping_probability,
    optimize_subcomponent,
    random_grouping,
    run_c3,
    run_nsde,
)
from epiadapt.de_core import DEConfig, Population
from epiadapt.dynamics import EpidemicParams, decision_dimension, make_batch_evaluator
from epiadapt.eps_constraint import EpsilonSchedule, epsilon_at
from epiadapt.graph import generate_ba
from reference import traced_peak


def sphere(x):
    x = np.atleast_2d(x)
    return (x**2).sum(axis=1), np.zeros(x.shape[0])


class CountingEvaluator:
    def __init__(self, fn=sphere):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        x = np.atleast_2d(x)
        self.calls += x.shape[0]
        return self.fn(x)


class TestRandomGrouping:
    def test_partition(self):
        plan = random_grouping(6, 3, np.random.default_rng(0))
        groups = [set(plan[j - 1].tolist()) for j in (1, 2, 3)]
        assert all(len(g) == 2 for g in groups)
        assert set().union(*groups) == set(range(6))

    def test_large_decomposition_shape(self):
        plan = random_grouping(3420, 9, np.random.default_rng(1))
        assert plan.shape == (9, 380)
        assert plan[8].size == 380

    def test_same_seed_same_plan(self):
        a = random_grouping(30, 5, np.random.default_rng(7))
        b = random_grouping(30, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            random_grouping(10, 3, np.random.default_rng(0))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            random_grouping(4, 0, np.random.default_rng(0))


class TestGroupingProbability:
    def test_fifty_cycles_nine_groups(self):
        assert round(grouping_probability(1, 50, 9), 4) == 0.9972
        assert round(grouping_probability(2, 50, 9), 4) == 0.9799

    def test_closed_forms(self):
        p1 = grouping_probability(1, 50, 9)
        assert p1 == pytest.approx(1.0 - (1.0 - 1.0 / 9.0) ** 50, rel=1e-12)
        assert grouping_probability(50, 50, 9) == pytest.approx((1.0 / 9.0) ** 50)
        assert grouping_probability(3, 7, 1) == 1.0

    def test_monotone_in_k(self):
        values = [grouping_probability(k, 20, 4) for k in range(1, 21)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            grouping_probability(0, 10, 3)
        with pytest.raises(ValueError):
            grouping_probability(11, 10, 3)
        with pytest.raises(ValueError):
            grouping_probability(1, 10, 0)

    def test_matches_monte_carlo_cogrouping(self):
        # Two fixed indices of a 3420-dim vector share a group of size 380
        # with probability (ds-1)/(D-1) per cycle, independently per cycle.
        rng = np.random.default_rng(12)
        p_cycle = (380 - 1) / (3420 - 1)
        counts = rng.binomial(50, p_cycle, size=100_000)
        for k in (1, 2):
            estimate = float(np.mean(counts >= k))
            assert abs(estimate - grouping_probability(k, 50, 9)) < 0.005


class ForwardingEvaluator:
    """Forwards only ``__call__``, as the benchmark's counting wrapper does.

    It sums ``len(x)`` and keeps a copy of ``np.asarray(x)`` and of f.
    """

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.rows = 0
        self.seen = []

    def __call__(self, x):
        f, viol = self.evaluate(x)
        self.rows += len(x)
        self.seen.append((isinstance(x, np.ndarray), np.array(x), np.array(f)))
        return f, viol


class TestContextBatch:
    def test_rows_are_the_base_with_the_columns_replaced(self):
        base = np.arange(6.0)
        batch = ContextBatch(base, [4, 1], np.array([[10.0, 11.0], [20.0, 21.0], [30.0, 31.0]]))
        assert len(batch) == 3
        expected = np.array([[0, 11, 2, 3, 10, 5], [0, 21, 2, 3, 20, 5], [0, 31, 2, 3, 30, 5]],
                            dtype=float)
        np.testing.assert_array_equal(np.asarray(batch), expected)
        assert np.asarray(batch, dtype=np.float32).dtype == np.float32
        with pytest.raises(ValueError, match="built on request"):
            np.asarray(batch, copy=False)

    def test_refers_to_the_genes_it_was_given(self):
        genes = np.zeros((2, 2))
        batch = ContextBatch(np.ones(4), [0, 3], genes)
        genes[1, 1] = 5.0
        assert np.asarray(batch)[1, 3] == 5.0

    @pytest.mark.parametrize("base,columns,genes,message", [
        (np.zeros((2, 3)), [0], np.zeros((1, 1)), "one row"),
        (np.zeros(6), [0, 1], np.zeros((2, 3)), "one column per entry"),
        (np.zeros(6), [[0, 1]], np.zeros((2, 2)), "one column per entry"),
        (np.zeros(6), [0, 1], np.zeros(2), "one column per entry"),
        (np.zeros(6), [0, 6], np.zeros((2, 2)), r"\[0, 6\)"),
        (np.zeros(6), [-1, 2], np.zeros((2, 2)), r"\[0, 6\)"),
        (np.zeros(6), [], np.zeros((2, 0)), "at least one"),
    ])
    def test_bad_parts_are_refused(self, base, columns, genes, message):
        # An out-of-range column would make the kernel write outside its scratch row.
        with pytest.raises(ValueError, match=message):
            ContextBatch(base, columns, genes)

    @pytest.mark.parametrize("bound", [np.zeros(2), np.zeros((3, 1)), np.float64(0.0)])
    def test_a_bound_needs_one_value_per_row(self, bound):
        with pytest.raises(ValueError, match="one value per row"):
            ContextBatch(np.zeros(6), [0, 1], np.zeros((3, 2)), bound)

    def test_rows_ignore_the_bound(self):
        genes = np.arange(6.0).reshape(3, 2)
        bounded = ContextBatch(np.ones(4), [2, 0], genes, [0.0, np.nan, -np.inf])
        assert bounded.bound.dtype == np.float64
        assert np.asarray(bounded).tobytes() == np.asarray(
            ContextBatch(np.ones(4), [2, 0], genes)).tobytes()

    def test_wrapper_sees_the_context_rows(self):
        # Each visit scores context batches between two whole-population
        # calls; with no violation the context best is the lowest f of the
        # latest whole-population call.
        np_size, dim, ns, seed = 6, 12, 3, 4
        wrapper = ForwardingEvaluator(
            lambda x: sphere(np.atleast_2d(x) - 0.3))
        cfg = C3Config(ds=dim // ns, total_budget=400, sub_fes=3 * np_size)
        result = run_c3(wrapper, dim, cfg, DEConfig(np_size=np_size), seed=seed)
        assert wrapper.rows == result.evaluations
        visit, contexts = -1, 0
        for whole, rows, f in wrapper.seen:
            assert rows.shape == (np_size, dim)
            if whole:
                genes, best, first = rows, rows[np.argmin(f)], True
                continue
            if first:
                visit, first = visit + 1, False
                cycle, group = divmod(visit, ns)
                plan = random_grouping(
                    dim, ns, coevolve._keyed_rng(seed, coevolve._GROUPING, cycle + 1))
                columns = plan[group]
                np.testing.assert_array_equal(rows[:, columns], genes[:, columns])
            expected = np.tile(best, (np_size, 1))
            expected[:, columns] = rows[:, columns]
            assert rows.tobytes() == expected.tobytes()
            contexts += 1
        assert visit + 1 > ns
        assert contexts * np_size + (visit + 2) * np_size == result.evaluations

    def test_a_run_maps_only_sub_population_arrays(self, kernel, monkeypatch):
        net = generate_ba(6, 3, 2, seed=1)
        params = EpidemicParams(beta=0.4, gamma=0.3, p0=0.153, horizon=3, substeps=4)
        dim = decision_dimension(net.n, params.horizon)
        mapped = []
        unpooled_empty = native.unpooled_empty

        def spy(shape):
            mapped.append(shape)
            return unpooled_empty(shape)

        monkeypatch.setattr(native, "unpooled_empty", spy)
        # The initial population, then the sub-population's genes and, on
        # its first generation, its trial buffer, reused by every visit.
        # The kernel splices the context rows, so no other (NP, D) array.
        cfg = C3Config(ds=dim // 3, total_budget=200, sub_fes=24)
        run_c3(make_batch_evaluator(net, params, 5.0), dim, cfg, DEConfig(np_size=8), seed=2)
        assert mapped == [(8, dim)] + [(8, dim // 3)] * 2


class TestOptimizeSubcomponent:
    @staticmethod
    def setup_population(np_size, dim, seed=0):
        rng = np.random.default_rng(seed)
        genes = rng.random((np_size, dim))
        f, viol = sphere(genes)
        return Population(genes, f, viol)

    def test_consumes_sub_fes_exactly(self):
        evaluate = CountingEvaluator()
        pop = self.setup_population(10, 8)
        plan = np.arange(8).reshape(2, 4)
        sched = EpsilonSchedule(eps0=0.0, gc=10, gmax=100)
        used, gens, history = optimize_subcomponent(
            pop, plan, 1, pop.genes[0].copy(), evaluate, sched,
            DEConfig(np_size=10), sub_fes=50, seed=3,
        )
        # 1 context pass + 4 generations, plus the counted re-evaluation.
        assert gens == len(history) == 4
        assert used == 60
        assert evaluate.calls == 60

    def test_caches_consistent_after_writeback(self):
        pop = self.setup_population(8, 6, seed=2)
        plan = random_grouping(6, 3, np.random.default_rng(5))
        sched = EpsilonSchedule(eps0=0.0, gc=5, gmax=50)
        optimize_subcomponent(
            pop, plan, 2, pop.genes[0].copy(), sphere, sched,
            DEConfig(np_size=8), sub_fes=32, seed=1,
        )
        f, viol = sphere(pop.genes)
        np.testing.assert_array_equal(f, pop.f)
        np.testing.assert_array_equal(viol, pop.violation)

    @staticmethod
    def visit(pop, plan, group, evaluate, sub):
        sched = EpsilonSchedule(eps0=0.0, gc=5, gmax=50)
        return optimize_subcomponent(
            pop, plan, group, pop.genes[0].copy(), evaluate, sched,
            DEConfig(np_size=pop.size), sub_fes=3 * pop.size, seed=1, sub=sub,
        )

    def test_a_visit_moves_its_columns_without_a_position_array(self):
        def zero(batch):
            return np.zeros(len(batch)), np.zeros(len(batch))

        np_size, dim, ns = 40, 360, 3
        pop = self.setup_population(np_size, dim, seed=6)
        plan = random_grouping(dim, ns, np.random.default_rng(2))
        sub = Population(np.empty((np_size, dim // ns)), np.empty(np_size), np.empty(np_size))
        # The first visit maps the sub-population's trial buffer.
        self.visit(pop, plan, 1, zero, sub)
        peak = traced_peak(lambda: self.visit(pop, plan, 2, zero, sub))
        # Less than one (NP, ds) int64 array: the columns move without positions.
        assert peak < np_size * (dim // ns) * np.dtype(np.int64).itemsize

    def test_write_back_changes_only_the_group_columns(self):
        pop = self.setup_population(12, 30, seed=3)
        plan = random_grouping(30, 3, np.random.default_rng(4))
        sub = Population(np.empty((12, 10)), np.empty(12), np.empty(12))
        before = pop.genes.copy()
        self.visit(pop, plan, 3, sphere, sub)
        idx = plan[2]
        rest = np.setdiff1d(np.arange(30), idx)
        assert pop.genes[:, rest].tobytes() == before[:, rest].tobytes()
        assert pop.genes[:, idx].tobytes() == sub.genes.tobytes()
        assert not np.array_equal(pop.genes[:, idx], before[:, idx])

    def test_budget_too_small_rejected(self):
        pop = self.setup_population(10, 8)
        plan = np.arange(8).reshape(2, 4)
        sched = EpsilonSchedule(eps0=0.0, gc=10, gmax=100)
        with pytest.raises(ValueError, match="one generation"):
            optimize_subcomponent(
                pop, plan, 1, pop.genes[0].copy(), sphere, sched,
                DEConfig(np_size=10), sub_fes=15, seed=0,
            )

    @pytest.mark.parametrize("groups, sub_fes, message", [
        (2, 19, "sub_fes=19 cannot fund the context pass plus one generation"),
        (1, 9, "sub_fes=9 cannot fund one generation"),
    ], ids=["several-groups", "one-group"])
    def test_a_visit_below_what_it_runs_rejected(self, groups, sub_fes, message):
        pop = self.setup_population(10, 8)
        sched = EpsilonSchedule(eps0=0.0, gc=10, gmax=100)
        with pytest.raises(ValueError, match=message):
            optimize_subcomponent(pop, np.arange(8).reshape(groups, -1), 1,
                                  pop.genes[0].copy(), sphere, sched, DEConfig(np_size=10),
                                  sub_fes=sub_fes, seed=0)

    @pytest.mark.parametrize("sub_fes, gens", [(10, 1), (19, 1), (20, 2)])
    def test_one_group_funds_its_generations_alone(self, sub_fes, gens):
        # No context pass and no re-evaluation: NP funds one generation.
        evaluate = CountingEvaluator()
        pop = self.setup_population(10, 8)
        plan = np.arange(8).reshape(1, 8)
        sched = EpsilonSchedule(eps0=0.0, gc=10, gmax=100)
        used, got, history = optimize_subcomponent(
            pop, plan, 1, pop.genes[0].copy(), evaluate, sched,
            DEConfig(np_size=10), sub_fes=sub_fes, seed=3,
        )
        assert got == len(history) == gens
        assert used == evaluate.calls == 10 * gens
        assert {(row.cycle, row.group) for row in history} == {(0, 0)}

    def test_separable_sphere_best_non_increasing_across_visits(self):
        rng = np.random.default_rng(4)
        np_size, dim = 12, 20
        pop = self.setup_population(np_size, dim, seed=4)
        sched = EpsilonSchedule(eps0=0.0, gc=20, gmax=400)
        de_cfg = DEConfig(np_size=np_size)
        best_values = [float(pop.f[pop.eps_best_index(0.0)])]
        gen = 0
        for cycle in range(1, 6):
            plan = random_grouping(dim, 4, rng)
            for group in range(1, 5):
                best = pop.genes[pop.eps_best_index(0.0)].copy()
                _, gens, _ = optimize_subcomponent(
                    pop, plan, group, best, sphere, sched, de_cfg,
                    sub_fes=np_size * 4, seed=9, gen_start=gen, cycle=cycle,
                )
                gen += gens
                best_values.append(float(pop.f[pop.eps_best_index(0.0)]))
        assert all(b <= a + 1e-12 for a, b in zip(best_values, best_values[1:]))
        assert best_values[-1] < best_values[0]


class TestRunC3:
    def test_budget_never_exceeded_and_history_matches(self):
        evaluate = CountingEvaluator()
        cfg = C3Config(ds=5, total_budget=900, sub_fes=40)
        result = run_c3(evaluate, 20, cfg, DEConfig(np_size=10), seed=5)
        assert result.evaluations <= 900
        assert evaluate.calls == result.evaluations
        assert len(result.history) == result.generations

    def test_cycle_and_group_bookkeeping(self):
        # Initial population 10, then per cycle 4 visits of 10 + 3*10 + 10.
        cfg = C3Config(ds=5, total_budget=410, sub_fes=40)
        result = run_c3(sphere, 20, cfg, DEConfig(np_size=10), seed=5)
        cycles = {row.cycle for row in result.history}
        groups = {row.group for row in result.history}
        assert cycles == {1, 2}
        assert groups == {1, 2, 3, 4}
        # sub_fes = 4*NP funds the context pass plus three generations.
        assert result.generations == 2 * 4 * 3

    def test_budget_ending_mid_cycle_and_mid_visit(self):
        # 10, then cycle 1's four visits of 10 + 4*10 + 10, cycle 2's first
        # visit, and its second with 45 left: the context pass, the two
        # generations that leave room for the re-evaluation, and that.
        evaluate = CountingEvaluator()
        cfg = C3Config(ds=5, total_budget=355, sub_fes=50)
        result = run_c3(evaluate, 20, cfg, DEConfig(np_size=10), seed=5)
        assert result.evaluations == evaluate.calls == 350
        assert result.generations == 22
        labels = [(c, g) for c in (1, 2) for g in (1, 2, 3, 4)]
        assert [(row.generation, row.cycle, row.group) for row in result.history] == [
            (gen, *labels[(gen - 1) // 4]) for gen in range(1, 23)]

    @pytest.mark.parametrize("sub_nps", [1, 3])
    @pytest.mark.parametrize("left", [10, 19])
    def test_one_group_last_visit_spends_what_is_left(self, sub_nps, left):
        # Two whole visits, then a last one with between NP and 2*NP left.
        np_size = 10
        total = np_size + 2 * sub_nps * np_size + left
        evaluate = CountingEvaluator()
        cfg = C3Config(ds=6, total_budget=total, sub_fes=sub_nps * np_size)
        result = run_c3(evaluate, 6, cfg, DEConfig(np_size=np_size), seed=5)
        assert result.evaluations == evaluate.calls == total - left % np_size
        assert result.generations == 2 * sub_nps + 1
        assert result.history == run_nsde(sphere, 6, total, DEConfig(np_size=np_size), 5).history

    def test_a_visit_funds_what_it_runs(self):
        # One generation alone with one group; the context pass too with several.
        assert C3Config(ds=12, total_budget=20, sub_fes=10).layout(12, 10) == (1, 10, 10)
        with pytest.raises(ValueError, match="sub_fes=9 must be at least NP=10"):
            C3Config(ds=12, total_budget=20, sub_fes=9).layout(12, 10)
        assert C3Config(ds=6, total_budget=40, sub_fes=20).layout(12, 10) == (2, 20, 30)
        with pytest.raises(ValueError, match=r"sub_fes=19 must be at least 2\*NP=20"):
            C3Config(ds=6, total_budget=40, sub_fes=19).layout(12, 10)

    def test_every_index_visited_once_per_cycle(self):
        # The partition property: in one cycle, all D genes are owned by
        # exactly one group, so each generation count per group is equal.
        # The budget funds exactly one cycle: 10 + 3 visits of 10 + 2*10 + 10.
        cfg = C3Config(ds=4, total_budget=130, sub_fes=30)
        result = run_c3(sphere, 12, cfg, DEConfig(np_size=10), seed=2)
        per_group = {}
        for row in result.history:
            per_group.setdefault(row.group, 0)
            per_group[row.group] += 1
        assert set(per_group) == {1, 2, 3}
        assert len(set(per_group.values())) == 1

    def test_seed_determinism(self):
        cfg = C3Config(ds=5, total_budget=1200, sub_fes=40)
        a = run_c3(sphere, 15, cfg, DEConfig(np_size=10), seed=11)
        b = run_c3(sphere, 15, cfg, DEConfig(np_size=10), seed=11)
        np.testing.assert_array_equal(a.best.genes, b.best.genes)
        assert a.best.f == b.best.f
        assert a.history == b.history

    def test_different_seeds_differ(self):
        cfg = C3Config(ds=5, total_budget=1200, sub_fes=40)
        a = run_c3(sphere, 15, cfg, DEConfig(np_size=10), seed=11)
        b = run_c3(sphere, 15, cfg, DEConfig(np_size=10), seed=12)
        assert a.best.f != b.best.f

    def test_feasibility_first_report(self):
        # Feasible region is gene0 <= 0.25; objective pulls toward gene0 = 1.
        def evaluate(x):
            x = np.atleast_2d(x)
            return (1.0 - x[:, 0]) ** 2, np.maximum(0.0, x[:, 0] - 0.25)

        cfg = C3Config(ds=4, total_budget=3000, sub_fes=48)
        result = run_c3(evaluate, 4, cfg, DEConfig(np_size=12), seed=3)
        assert result.best.violation == 0.0

    def test_ds_must_divide_dim(self):
        cfg = C3Config(ds=7, total_budget=1000)
        with pytest.raises(ValueError):
            run_c3(sphere, 20, cfg, DEConfig(np_size=10), seed=0)

    def test_infeasible_budget_rejected(self):
        cfg = C3Config(ds=5, total_budget=30, sub_fes=40)
        with pytest.raises(ValueError):
            run_c3(sphere, 20, cfg, DEConfig(np_size=10), seed=0)

    @pytest.mark.parametrize("gc_fraction", [1e-9, float(np.nextafter(1.0, 0.0))])
    @pytest.mark.parametrize("ds, budget_nps, sub_nps", [
        (6, 2, 10), (6, 3, 10), (6, 5, 2), (2, 4, 2), (2, 7, 2), (3, 10, 3),
    ])
    def test_smallest_layouts_keep_the_clamped_schedule(self, gc_fraction, ds, budget_nps,
                                                        sub_nps):
        # From total 2*NP (one group) and 4*NP (several), the least budgets
        # layout admits; each row's eps is the schedule with gmax at least 2,
        # gc in [1, gmax - 1] and the generation at most gmax.
        np_size, dim = 5, 6
        first_violations = []

        def evaluate(x):
            x = np.atleast_2d(x)
            violation = np.abs(x[:, 0] - 0.5) * 10.0
            if not first_violations:
                first_violations.append(violation.max())
            return (x**2).sum(axis=1), violation

        total = budget_nps * np_size
        cfg = C3Config(ds=ds, total_budget=total, sub_fes=sub_nps * np_size,
                       gc_fraction=gc_fraction)
        result = run_c3(evaluate, dim, cfg, DEConfig(np_size=np_size), seed=4)
        gmax = max(2, total // np_size)
        gc = min(max(1, int(gc_fraction * gmax)), gmax - 1)
        sched = EpsilonSchedule(eps0=first_violations[0], gc=gc, gmax=gmax, lam=cfg.lam)
        assert sched.eps0 > 0.0 and result.history
        for row in result.history:
            assert row.epsilon == epsilon_at(sched, min(row.generation - 1, gmax))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            C3Config(ds=0, total_budget=100)
        with pytest.raises(ValueError):
            C3Config(ds=5, total_budget=0)
        with pytest.raises(ValueError):
            C3Config(ds=5, total_budget=100, gc_fraction=1.5)


class TestSingleGroupEquivalence:
    @given(
        np_size=st.integers(4, 12),
        generations=st.integers(1, 30),
        spare=st.integers(0, 11),
        chunk=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_nsde_trajectory(
        self, np_size, generations, spare, chunk, seed
    ):
        dim = 6
        de_cfg = DEConfig(np_size=np_size)
        budget = np_size * (generations + 1) + spare % np_size
        evaluate = CountingEvaluator()
        c3 = run_c3(
            evaluate, dim,
            C3Config(ds=dim, total_budget=budget, sub_fes=chunk * np_size),
            de_cfg, seed,
        )
        plain = run_nsde(sphere, dim, budget, de_cfg, seed)
        assert c3.best.genes.tobytes() == plain.best.genes.tobytes()
        assert c3.best.f == plain.best.f
        assert c3.best.violation == plain.best.violation
        assert c3.evaluations == plain.evaluations == evaluate.calls
        assert c3.generations == plain.generations == generations
        assert c3.history == plain.history
        assert {(row.cycle, row.group) for row in c3.history} == {(0, 0)}


class TestRunNsde:
    def test_budget_and_history(self):
        evaluate = CountingEvaluator()
        result = run_nsde(evaluate, 8, 500, DEConfig(np_size=12), seed=1)
        assert result.evaluations <= 500
        assert evaluate.calls == result.evaluations
        assert result.generations == (500 - 12) // 12
        assert len(result.history) == result.generations

    def test_epsilon_column_decreases(self):
        def evaluate(x):
            x = np.atleast_2d(x)
            return (x**2).sum(axis=1), np.abs(x[:, 0] - 0.5) * 10.0

        result = run_nsde(evaluate, 6, 12 * 60, DEConfig(np_size=12), seed=6)
        eps = [row.epsilon for row in result.history]
        assert eps[0] > 0.0
        assert all(b <= a for a, b in zip(eps, eps[1:]))
        assert eps[-1] == 0.0

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            run_nsde(sphere, 8, 20, DEConfig(np_size=12), seed=0)
