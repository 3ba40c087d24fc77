import functools
import math
import multiprocessing
import os
import platform
import re
import shutil
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import epiadapt._native as native
from epiadapt.baselines import constant_adaptation_schedule, no_adaptation_schedule
from epiadapt.coevolve import (
    C3Config,
    ContextBatch,
    optimize_subcomponent,
    random_grouping,
    run_c3,
)
from epiadapt.de_core import DEConfig, Population
from epiadapt.dynamics import (
    EpidemicParams,
    IntegrationError,
    Trajectory,
    WeightSchedule,
    constraint_value,
    decision_dimension,
    decode_candidate,
    integrate,
    make_batch_evaluator,
    objective_value,
    trace_series,
)
from epiadapt.eps_constraint import EpsilonSchedule
from epiadapt.graph import Network, generate_ba
from reference import (
    encode_schedule,
    evaluate_candidate,
    infected_level,
    kernel_objective,
    total_weights,
    traced_peak,
)

REF_EPI = dict(beta=0.4, gamma=0.3, p0=0.153, horizon=10)


@pytest.fixture(scope="module")
def net20():
    return generate_ba(20, 5, 5, seed=1)


def two_node_net():
    return Network(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestDecisionDimension:
    @pytest.mark.parametrize("n,t,expected", [(20, 10, 3420), (4, 2, 12), (2, 3, 4)])
    def test_values(self, n, t, expected):
        assert decision_dimension(n, t) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            decision_dimension(1, 10)
        with pytest.raises(ValueError):
            decision_dimension(5, 1)


class TestEncoding:
    def test_zero_vector(self):
        sched = decode_candidate(np.zeros(12), n=4, horizon=2)
        assert sched.blocks.shape == (1, 4, 4)
        assert np.all(sched.blocks == 0.0)

    def test_ones_vector(self):
        sched = decode_candidate(np.ones(6), n=3, horizon=2)
        expected = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_array_equal(sched.blocks[0], expected)

    def test_time_major_row_major_layout(self):
        x = np.arange(12, dtype=float) / 12.0
        sched = decode_candidate(x, n=2, horizon=7)
        # Block t consumes slice [(t-1)*2, t*2); entries (0,1) then (1,0).
        for t in range(6):
            assert sched.blocks[t, 0, 1] == x[2 * t]
            assert sched.blocks[t, 1, 0] == x[2 * t + 1]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.random(decision_dimension(4, 3))
            np.testing.assert_array_equal(
                encode_schedule(decode_candidate(x, 4, 3)), x
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_candidate(np.zeros(11), n=4, horizon=2)


class TestIntegrate:
    def test_zero_beta_is_exponential_decay(self, net20):
        params = EpidemicParams(beta=0.0, gamma=0.3, p0=0.5, horizon=10, substeps=50)
        traj = integrate(net20, params, no_adaptation_schedule(net20, 10))
        expected = 0.5 * np.exp(-0.3 * traj.times)
        assert np.abs(traj.p - expected[:, None]).max() < 1e-6
        assert traj.p[traj.times == 1.0][0][0] == pytest.approx(0.370409, abs=1e-6)

    def test_isolated_nodes_decay_despite_positive_beta(self):
        net = Network(np.zeros((2, 2)))
        params = EpidemicParams(beta=0.4, gamma=0.3, p0=0.5, horizon=4, substeps=50)
        sched = WeightSchedule(blocks=np.zeros((3, 2, 2)))
        traj = integrate(net, params, sched)
        expected = 0.5 * np.exp(-0.3 * traj.times)
        assert np.abs(traj.p - expected[:, None]).max() < 1e-6

    def test_two_node_matches_logistic_closed_form(self):
        # Symmetric pair with equal p0 collapses to dp/dt = 0.1 p - 0.4 p^2,
        # a logistic with rate 0.1 and capacity 0.25.
        net = two_node_net()
        params = EpidemicParams(**REF_EPI, substeps=20)
        sched = WeightSchedule(blocks=np.ones((9, 2, 2)) - np.eye(2))
        traj = integrate(net, params, sched)
        a = 0.25 / 0.153 - 1.0
        expected = 0.25 / (1.0 + a * np.exp(-0.1 * traj.times))
        assert np.abs(traj.p - expected[:, None]).max() < 1e-6

    def test_two_node_matches_fine_step_reference(self):
        net = two_node_net()
        sched = WeightSchedule(blocks=np.ones((9, 2, 2)) - np.eye(2))
        coarse = integrate(net, EpidemicParams(**REF_EPI, substeps=20), sched)
        fine = integrate(net, EpidemicParams(**REF_EPI, substeps=2000), sched)
        assert np.abs(coarse.p - fine.p[::100]).max() < 1e-5

    def test_first_row_is_p0_and_grid_shape(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=4)
        traj = integrate(net20, params, no_adaptation_schedule(net20, 10))
        assert traj.p.shape == (41, 20)
        assert np.all(traj.p[0] == 0.153)
        assert traj.times[0] == 0.0 and traj.times[-1] == 10.0

    def test_probabilities_stay_in_unit_interval(self, net20):
        rng = np.random.default_rng(5)
        params = EpidemicParams(**REF_EPI, substeps=10)
        for _ in range(5):
            x = rng.random(decision_dimension(20, 10))
            traj = integrate(net20, params, decode_candidate(x, 20, 10))
            assert traj.p.min() >= 0.0 and traj.p.max() <= 1.0

    def test_dimension_mismatch(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=4)
        with pytest.raises(ValueError):
            integrate(net20, params, WeightSchedule(blocks=np.zeros((9, 4, 4))))
        with pytest.raises(ValueError):
            integrate(net20, params, WeightSchedule(blocks=np.zeros((4, 20, 20))))
        with pytest.raises(ValueError):
            constraint_value(WeightSchedule(blocks=np.zeros((9, 4, 4))), net20, 700.0)

    def test_step_halving_objective_stable(self, net20):
        sched = no_adaptation_schedule(net20, 10)
        f20 = objective_value(integrate(net20, EpidemicParams(**REF_EPI, substeps=20), sched))
        f40 = objective_value(integrate(net20, EpidemicParams(**REF_EPI, substeps=40), sched))
        assert abs(f40 - f20) / abs(f40) < 1e-4

    def test_scaling_weights_never_increases_objective(self, net20):
        # Fewer contacts never increase mean-field infection.
        rng = np.random.default_rng(11)
        params = EpidemicParams(**REF_EPI, substeps=10)
        dim = decision_dimension(20, 10)
        for _ in range(100):
            x = rng.random(dim)
            c = rng.random()
            f_full = objective_value(integrate(net20, params, decode_candidate(x, 20, 10)))
            f_down = objective_value(integrate(net20, params, decode_candidate(c * x, 20, 10)))
            assert f_down <= f_full + 1e-9


class TestObjective:
    def test_constant_quarter(self):
        times = np.linspace(0.0, 10.0, 201)
        traj = Trajectory(times=times, p=np.full((201, 20), 0.25))
        assert objective_value(traj) == pytest.approx(100.0)

    def test_zero_probability(self):
        times = np.linspace(0.0, 10.0, 201)
        traj = Trajectory(times=times, p=np.zeros((201, 20)))
        assert objective_value(traj) == 0.0

    def test_positive_whenever_p0_positive(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=5)
        x = np.zeros(decision_dimension(20, 10))
        assert evaluate_candidate(x, net20, params, 700.0).f > 0.0


class TestConstraint:
    def test_no_adaptation_spends_nothing(self, net20):
        sched = no_adaptation_schedule(net20, 10)
        assert constraint_value(sched, net20, 700.0) == pytest.approx(-700.0)

    def test_solved_ratio_exhausts_budget(self, net20):
        s = float(np.sum(net20.w0**2))
        c = 1.0 - math.sqrt(700.0 / (9 * s))
        sched = WeightSchedule(blocks=np.repeat((c * net20.w0)[None], 9, axis=0))
        assert abs(constraint_value(sched, net20, 700.0)) < 1e-9

    def test_any_deviation_violates_zero_budget(self, net20):
        sched = constant_adaptation_schedule(net20, 10, 700.0)
        assert constraint_value(sched, net20, 0.0) > 0.0

    def test_block_permutation_invariant(self, net20):
        rng = np.random.default_rng(2)
        x = rng.random(decision_dimension(20, 10))
        sched = decode_candidate(x, 20, 10)
        permuted = WeightSchedule(blocks=sched.blocks[rng.permutation(9)])
        assert constraint_value(sched, net20, 700.0) == pytest.approx(
            constraint_value(permuted, net20, 700.0)
        )


class TestEvaluateCandidate:
    def test_w0_everywhere_is_feasible_no_adaptation(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=10)
        x = encode_schedule(no_adaptation_schedule(net20, 10))
        ev = evaluate_candidate(x, net20, params, 700.0)
        expected = objective_value(integrate(net20, params, no_adaptation_schedule(net20, 10)))
        assert ev.f == pytest.approx(expected)
        assert ev.violation == 0.0
        assert ev.g == pytest.approx(-700.0)

    def test_all_zero_vector_violation(self, net20):
        # 170 unit directed weights per block, 9 blocks, budget 700.
        params = EpidemicParams(**REF_EPI, substeps=5)
        ev = evaluate_candidate(np.zeros(3420), net20, params, 700.0)
        assert ev.violation == pytest.approx(9 * 170 - 700)

    def test_batch_evaluator_matches_reference(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=10)
        evaluate = make_batch_evaluator(net20, params, 700.0)
        rng = np.random.default_rng(9)
        x = rng.random((8, 3420))
        f_batch, viol_batch = evaluate(x)
        for i in range(8):
            ref = evaluate_candidate(x[i], net20, params, 700.0)
            assert f_batch[i] == pytest.approx(ref.f, rel=1e-9)
            assert viol_batch[i].tobytes() == np.float64(ref.violation).tobytes()

    def test_batch_violation_bytes_do_not_depend_on_batch(self, net20):
        # 70 rows span several blocks of the constraint sum.
        params = EpidemicParams(**REF_EPI, substeps=3)
        evaluate = make_batch_evaluator(net20, params, 700.0)
        x = np.random.default_rng(4).random((70, 3420))
        _, viol = evaluate(x)
        rows = np.concatenate([evaluate(row)[1] for row in x])
        assert viol.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("numpy_loop", [False, True])
    def test_batch_evaluator_makes_no_batch_sized_temporary(self, net20, numpy_loop):
        # A (B, D) temporary per call would fragment the malloc heap of long
        # runs. The numpy loop builds a context batch's rows in a mapping.
        params = EpidemicParams(**REF_EPI, substeps=3)
        make = functools.partial(kernel_evaluator, None) if numpy_loop else make_batch_evaluator
        evaluate = make(net20, params, 700.0)
        rng = np.random.default_rng(6)
        x = rng.random((256, 3420))
        idx = random_grouping(3420, 9, rng)[0]
        context = ContextBatch(x[0], idx, x[:, idx])
        for batch in (x, context):
            assert traced_peak(lambda: evaluate(batch)) < 0.5 * x.nbytes

    def test_batch_evaluator_rejects_bad_width(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=5)
        evaluate = make_batch_evaluator(net20, params, 700.0)
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 100)))
        # A context batch of another width, on the kernel and on the numpy loop.
        batch = ContextBatch(np.zeros(100), np.arange(10), np.zeros((2, 10)))
        for evaluate in (evaluate, kernel_evaluator(None, net20, params, 700.0)):
            with pytest.raises(ValueError, match="3420 genes"):
                evaluate(batch)


def kernel_evaluator(build, *args):
    """A batch evaluator on one kernel build; None forces its numpy loop, as when no build loads."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "kernel", lambda: build)
        return make_batch_evaluator(*args)


def gene_order_sum(row, x0):
    """The constraint sum as defined: each rounded square added in turn, from 0."""
    acc = 0.0
    for d in row - x0:
        acc += d * d
    return acc


@st.composite
def evaluator_cases(draw):
    """A network, rates, budget and candidates inside RK4's stable region.

    Batch 0 stands for a single 1-D candidate; 7, 8, 16 and 17 leave 8-lane
    groups full or with spare lanes.
    """
    n = draw(st.integers(2, 8))
    horizon = draw(st.integers(2, 4))
    substeps = draw(st.integers(1, 20))
    batch = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w0 = rng.random((n, n)) + 0.01
    np.fill_diagonal(w0, 0.0)
    net = Network(np.minimum(w0, 1.0))
    beta, gamma, p0 = (float(v) for v in rng.random(3))
    # Stay inside RK4's real-axis stability limit, where round-off is not amplified.
    assume((beta * (n - 1) + gamma) / substeps < 2.0)
    params = EpidemicParams(beta=beta, gamma=gamma, p0=p0, horizon=horizon, substeps=substeps)
    dim = decision_dimension(n, horizon)
    x = rng.random(dim) if batch == 0 else rng.random((batch, dim))
    return net, params, float(rng.random() * dim), x


def small_problem(n, rng):
    """An n-node network with random weights and rates over 3 intervals, substeps 7."""
    w0 = np.minimum(rng.random((n, n)) + 0.01, 1.0)
    np.fill_diagonal(w0, 0.0)
    beta, gamma, p0 = (float(v) for v in rng.random(3))
    params = EpidemicParams(beta=beta, gamma=gamma, p0=p0, horizon=3, substeps=7)
    return Network(w0), params


def bound_options(viol):
    """Row b's bound, option b % 7: at, just below or just above its violation, NaN, +inf, 0, -1."""
    b = viol.size
    options = np.stack([viol, np.nextafter(viol, -np.inf), np.nextafter(viol, np.inf),
                        np.full(b, np.nan), np.full(b, np.inf), np.zeros(b), np.full(b, -1.0)])
    return options[np.arange(b) % len(options), np.arange(b)]


# Flags lines of /proc/cpuinfo, trimmed to what the levels test.
HASWELL = ("fpu sse sse2 ssse3 fma cx16 pcid sse4_1 sse4_2 movbe popcnt xsave avx "
           "f16c lahf_lm abm pni bmi1 avx2 bmi2")
SKYLAKE_X = HASWELL + " avx512f avx512dq avx512cd avx512bw avx512vl"
# Knights Landing: AVX-512 without BW, DQ or VL.
KNIGHTS_LANDING = HASWELL + " avx512f avx512pf avx512er avx512cd"
SANDY_BRIDGE = HASWELL.replace(" fma", "").replace(" avx2", "").replace(" bmi1", "")


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(case=evaluator_cases())
    def test_matches_numpy_loop(self, kernel, case):
        net, params, budget, x = case
        f_np, viol_np = kernel_evaluator(None, net, params, budget)(x)
        f_k, viol_k = make_batch_evaluator(net, params, budget)(x)
        assert f_k.shape == f_np.shape == (len(np.atleast_2d(x)),)
        expected = np.array([kernel_objective(row, net, params) for row in np.atleast_2d(x)])
        assert f_np.tobytes() == expected.tobytes()
        assert f_k.tobytes() == f_np.tobytes()
        assert viol_k.tobytes() == viol_np.tobytes()
        x0 = encode_schedule(no_adaptation_schedule(net, params.horizon))
        for row, viol in zip(np.atleast_2d(x), viol_np):
            g = constraint_value(decode_candidate(row, net.n, params.horizon), net, budget)
            assert np.float64(max(0.0, g)).tobytes() == viol.tobytes()
            g = gene_order_sum(row, x0) - budget
            assert np.float64(max(0.0, g)).tobytes() == viol.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=evaluator_cases())
    def test_every_level_gives_baseline_bytes(self, level_builds, case):
        net, params, budget, x = case
        f_base, viol_base = kernel_evaluator(level_builds["base"], net, params, budget)(x)
        for level, build in level_builds.items():
            f, viol = kernel_evaluator(build, net, params, budget)(x)
            assert f.tobytes() == f_base.tobytes(), level
            assert viol.tobytes() == viol_base.tobytes(), level

    @pytest.mark.parametrize("batch", [1, 9, 350])
    def test_violation_bytes_at_workload_scale(self, level_builds, net20, batch):
        # Budget 0 makes each violation the bare sum, so no bit of it is hidden.
        params = EpidemicParams(**REF_EPI, substeps=3)
        rng = np.random.default_rng(batch)
        x = rng.random((batch, 3420))
        x[rng.random(x.shape) < 0.1] = 1.0
        x[rng.random(x.shape) < 0.1] = 0.0
        x0 = encode_schedule(no_adaptation_schedule(net20, 10))
        expected = np.array([gene_order_sum(row, x0) for row in x])
        for level, build in {**level_builds, "numpy loop": None}.items():
            _, viol = kernel_evaluator(build, net20, params, 0.0)(x)
            assert viol.tobytes() == expected.tobytes(), level
        for row, acc in zip(x, expected):
            g = constraint_value(decode_candidate(row, 20, 10), net20, 0.0)
            assert np.float64(max(0.0, g)).tobytes() == acc.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 20])
    def test_every_level_gives_the_scalar_model_bytes(self, level_builds, net20, n):
        # Batch 9 leaves 7 spare lanes in its last group; one row at a time
        # is the numpy loop at B = 1, where numpy would sum the lone node
        # axis pairwise. n = 20 is the reference network at the reference
        # step; 2, 3, 5 and 7 leave rows past the last full block of rows,
        # and carry random rates.
        rng = np.random.default_rng(n)
        if n == 20:
            net, params = net20, EpidemicParams(**REF_EPI, substeps=20)
        else:
            net, params = small_problem(n, rng)
        x = rng.random((9, decision_dimension(n, params.horizon)))
        expected = np.array([kernel_objective(row, net, params) for row in x])
        for level, build in {**level_builds, "numpy loop": None}.items():
            evaluate = kernel_evaluator(build, net, params, 0.0)
            assert evaluate(x)[0].tobytes() == expected.tobytes(), level
            rows = np.concatenate([evaluate(row)[0] for row in x])
            assert rows.tobytes() == expected.tobytes(), level

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_every_level_builds_without_warnings(self, tmp_path):
        # Compile only: an x86_64 compiler builds every level, so the AVX-512
        # fill is checked on hosts below v4 too. Elsewhere only base builds.
        machine = platform.machine()
        for level, _, extra in native.LEVELS:
            if machine != "x86_64" and level not in native.host_levels("", machine):
                continue
            cc = subprocess.run(["cc", *native.CFLAGS, *extra, "-Wall", "-Wextra", "-Werror",
                                 "-o", str(tmp_path / f"{level}.so"), str(native.SOURCE), "-lm"],
                                capture_output=True, text=True)
            assert cc.returncode == 0, f"{level}: {cc.stderr}"

    def test_every_entry_has_its_argument_list(self, kernel):
        # ctypes would pass an entry without one its arguments as C ints.
        source = native.SOURCE_BYTES.decode()
        entries = set(re.findall(r"^(?!static\b)[a-z][\w \t*]*?\b(\w+) *\(", source, re.M))
        assert {"rk4_batch", "de_trials"} <= entries
        for name in entries:
            assert getattr(kernel, name).argtypes is not None, name

    def test_c3_context_batches_give_numpy_loop_bytes(self, kernel, net20):
        # A visit to group 2 of 3 scores context batches, which the kernel
        # splices row by row and the numpy loop builds as (NP, D) arrays.
        # With budget 0 and eps 0 every candidate is infeasible, so selection
        # follows the violations alone and both paths must evolve the same
        # genes.
        params = EpidemicParams(**REF_EPI, substeps=3)
        rng = np.random.default_rng(11)
        plan = random_grouping(3420, 3, rng)
        genes = rng.random((10, 3420))
        runs = []
        for build in (kernel, None):
            evaluate = kernel_evaluator(build, net20, params, 0.0)
            seen = []

            def recording(x, evaluate=evaluate, seen=seen):
                f, viol = evaluate(x)
                seen.append(viol.tobytes())
                return f, viol

            pop = Population(genes.copy(), *evaluate(genes))
            optimize_subcomponent(
                pop, plan, 2, genes[0].copy(), recording,
                EpsilonSchedule(eps0=0.0, gc=10, gmax=100), DEConfig(np_size=10),
                sub_fes=40, seed=3,
            )
            runs.append((seen, pop))
        (seen_k, pop_k), (seen_np, pop_np) = runs
        assert len(seen_k) == 5 and seen_k == seen_np
        assert pop_k.genes.tobytes() == pop_np.genes.tobytes()
        assert pop_k.violation.tobytes() == pop_np.violation.tobytes()
        assert pop_k.f.tobytes() == pop_np.f.tobytes()

    @pytest.mark.parametrize("batch", [1, 7, 9, 60])
    def test_context_batch_gives_the_bytes_of_its_rows(self, level_builds, net20, batch):
        # 1 and 7 rows leave spare lanes in one group, 9 a second group with
        # seven; at 3 threads 60 rows split over three takers of 8 rows.
        # Budget 0 shows every bit of the violation.
        params = EpidemicParams(**REF_EPI, substeps=3)
        rng = np.random.default_rng(batch)
        idx = random_grouping(3420, 9, rng)[4]
        context = ContextBatch(rng.random(3420), idx, rng.random((batch, idx.size)))
        rows = np.asarray(context)
        expected = kernel_evaluator(None, net20, params, 0.0)(rows)
        for level, build in level_builds.items():
            evaluate = kernel_evaluator(build, net20, params, 0.0)
            for threads in (1, 2, 3):
                with native.threads(threads):
                    for got in (evaluate(context), evaluate(rows)):
                        assert got[0].tobytes() == expected[0].tobytes(), (level, threads)
                        assert got[1].tobytes() == expected[1].tobytes(), (level, threads)

    def test_context_batch_builds_no_rows_on_the_kernel_path(self, kernel, net20, monkeypatch):
        params = EpidemicParams(**REF_EPI, substeps=3)
        evaluate = make_batch_evaluator(net20, params, 700.0)
        rng = np.random.default_rng(6)
        idx = random_grouping(3420, 9, rng)[0]
        context = ContextBatch(rng.random(3420), idx, rng.random((60, idx.size)))
        expected = evaluate(np.asarray(context))
        mapped = []
        monkeypatch.setattr(native, "unpooled_empty", lambda shape: mapped.append(shape))
        assert evaluate(context)[0].tobytes() == expected[0].tobytes()
        assert mapped == []

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_edited_source_does_not_change_the_build(self, kernel, net20, tmp_path):
        # A process that imported the package builds the source it imported,
        # whatever _rk4.c holds by the time it first needs the kernel.
        package = tmp_path / "epiadapt"
        shutil.copytree(os.path.dirname(native.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        script = textwrap.dedent("""
            import warnings
            import numpy as np
            import epiadapt._native as native
            from epiadapt.dynamics import EpidemicParams, make_batch_evaluator
            from epiadapt.graph import generate_ba
            native.SOURCE.write_text("this is not C\\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                built = native.kernel()
            assert built is not None
            params = EpidemicParams(beta=0.4, gamma=0.3, p0=0.153, horizon=10, substeps=3)
            evaluate = make_batch_evaluator(generate_ba(20, 5, 5, seed=1), params, 700.0)
            x = np.random.default_rng(3).random((9, 3420))
            print(b"".join(a.tobytes() for a in evaluate(x)).hex())
        """)
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        assert (package / "_rk4.c").read_text() == "this is not C\n"
        assert list((package / "__pycache__").glob("_rk4-*.so"))
        params = EpidemicParams(**REF_EPI, substeps=3)
        x = np.random.default_rng(3).random((9, 3420))
        expected = make_batch_evaluator(net20, params, 700.0)(x)
        assert run.stdout.strip() == b"".join(a.tobytes() for a in expected).hex()

    def test_outer_axis_sums_run_in_order(self):
        # Each column is 1.0 then halves of its ulp: added in order, every
        # term rounds away, while a pairwise sum adds the small ones first.
        n = 20
        col = np.array([1.0] + [2.0 ** -53] * (n - 1))
        assert 1.0 + sum(col[:0:-1]) > 1.0
        message = ("numpy no longer adds an outer axis one row after another; "
                   "the numpy loop's f bytes depend on that order")
        for b in (1, 3):
            a = np.broadcast_to(col[:, None, None], (n, n, b)).copy()
            # The mat-vec of dynamics._advance_unit, and its sqrt sum.
            assert np.all(np.add.reduce(a, axis=0, initial=0.0) == 1.0), message
            assert np.all(np.cumsum(a[:, 0], axis=0)[-1] + 0.0 == 1.0), message

    @pytest.mark.parametrize("flags,machine,level", [
        (SKYLAKE_X, "x86_64", "v4"),
        (KNIGHTS_LANDING, "x86_64", "v3"),
        (HASWELL, "x86_64", "v3"),
        (SANDY_BRIDGE, "x86_64", "base"),
        (SKYLAKE_X, "aarch64", "base"),
    ])
    def test_host_level_from_cpuinfo(self, flags, machine, level):
        cpuinfo = f"processor\t: 0\nvendor_id\t: GenuineIntel\nflags\t\t: {flags}\nbugs\t\t: spectre_v1\n"
        assert native.host_levels(cpuinfo, machine)[0] == level
        assert native.host_levels(cpuinfo, machine)[-1] == "base"
        assert native.host_levels("", machine) == ["base"]

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_unreadable_cpuinfo_means_baseline_build(self, isolated_kernel, monkeypatch):
        monkeypatch.setattr(native, "CPUINFO", isolated_kernel.parent / "no-cpuinfo")
        assert native.kernel() is not None
        (lib,) = isolated_kernel.glob("*")
        assert lib.name.startswith("_rk4-base-")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_failed_wide_build_falls_back_to_baseline(self, isolated_kernel, net20, monkeypatch):
        base = native.LEVELS[-1]
        monkeypatch.setattr(native, "LEVELS",
                            (("wide", frozenset(), ("-fno-such-option",)), base))
        params = EpidemicParams(**REF_EPI, substeps=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate = make_batch_evaluator(net20, params, 700.0)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "runs its base build" in str(caught[0].message)
        # The compiler's own complaint about the flag, not just its exit status.
        assert "error" in str(caught[0].message)
        (lib,) = isolated_kernel.glob("*")
        assert lib.name.startswith("_rk4-base-")
        x = np.random.default_rng(5).random((17, 3420))
        expected = kernel_evaluator(native.build("base"), net20, params, 700.0)(x)
        assert evaluate(x)[0].tobytes() == expected[0].tobytes()

    def test_nan_gene_raises_on_both_paths(self, kernel, net20):
        params = EpidemicParams(**REF_EPI, substeps=4)
        x = np.full((3, 3420), 0.5)
        x[2, 1000] = np.nan
        with pytest.raises(IntegrationError):
            make_batch_evaluator(net20, params, 700.0)(x)
        with pytest.raises(IntegrationError):
            kernel_evaluator(None, net20, params, 700.0)(x)

    def test_failed_compile_falls_back_with_warning(self, isolated_kernel, net20, monkeypatch):
        monkeypatch.setenv("PATH", str(isolated_kernel.parent))
        params = EpidemicParams(**REF_EPI, substeps=4)
        with pytest.warns(RuntimeWarning, match="numpy loop"):
            evaluate = make_batch_evaluator(net20, params, 700.0)
        assert native.kernel() is None
        x = np.random.default_rng(4).random((2, 3420))
        expected = np.array([kernel_objective(row, net20, params) for row in x])
        assert evaluate(x)[0].tobytes() == expected.tobytes()
        assert not list(isolated_kernel.glob("*"))

    def test_host_without_uname_loads_a_kernel_or_warns(self, isolated_kernel, monkeypatch):
        # As on Windows, where os has no uname.
        monkeypatch.delattr(os, "uname")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            native.kernel()

    def test_cached_library_is_reused(self, isolated_kernel, net20, monkeypatch):
        params = EpidemicParams(**REF_EPI, substeps=4)
        make_batch_evaluator(net20, params, 700.0)
        (lib,) = isolated_kernel.glob("*")
        built = lib.stat().st_mtime_ns
        # A fresh process: no in-memory kernel, and no compiler to rebuild with.
        native.kernel.cache_clear()
        monkeypatch.setenv("PATH", str(isolated_kernel.parent))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_batch_evaluator(net20, params, 700.0)
            assert native.kernel() is not None
        assert list(isolated_kernel.glob("*")) == [lib]
        assert lib.stat().st_mtime_ns == built

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_fresh_build_prunes_superseded_builds(self, isolated_kernel):
        isolated_kernel.mkdir()
        stale = isolated_kernel / "_rk4-0123456789abcdef.so"
        stale.write_bytes(b"a build of an earlier source")
        unrelated = isolated_kernel / "module.cpython.pyc"
        unrelated.write_bytes(b"")
        assert native.kernel() is not None
        (lib,) = isolated_kernel.glob("_rk4-*.so")
        assert lib != stale and not stale.exists()
        assert unrelated.exists()


class TestThreadSplit:
    """A kernel call split over threads gives the bytes of one thread."""

    def test_every_level_gives_one_thread_bytes(self, level_builds, net20):
        # 1, 7 and 8 rows fill at most one lane group and stay on one thread;
        # 9 and 17 leave spare lanes in the last group. The C3 batch is a
        # context batch, in which only one group's columns vary.
        params = EpidemicParams(**REF_EPI, substeps=3)
        rng = np.random.default_rng(21)
        batches = {b: rng.random((b, 3420)) for b in (1, 7, 8, 9, 17, 60, 350)}
        context = np.tile(rng.random(3420), (60, 1))
        idx = random_grouping(3420, 9, rng)[4]
        context[:, idx] = rng.random((60, idx.size))
        batches["c3 context"] = context
        for level, build in level_builds.items():
            evaluate = kernel_evaluator(build, net20, params, 0.0)
            for name, x in batches.items():
                with native.threads(1):
                    f1, viol1 = evaluate(x)
                for t in (2, 3):
                    with native.threads(t):
                        f, viol = evaluate(x)
                    assert f.tobytes() == f1.tobytes(), (level, name, t)
                    assert viol.tobytes() == viol1.tobytes(), (level, name, t)

    def test_a_call_takes_only_the_rows_left(self, kernel, net20):
        # Rows below the shared counter are another thread's: a call leaves
        # them, integrates every row from the counter on, each as a call
        # that took them all would, and moves the counter past the batch.
        params = EpidemicParams(**REF_EPI, substeps=3)
        x = np.random.default_rng(5).random((41, 3420))
        f, viol = make_batch_evaluator(net20, params, 700.0)(x)
        counters = []

        class Late:
            def rk4_batch(self, *args):
                next_row = args[-1]
                next_row[0] = 16
                counters.append(next_row)
                return kernel.rk4_batch(*args)

        with native.threads(1):
            f16, viol16 = kernel_evaluator(Late(), net20, params, 700.0)(x)
        assert f16[16:].tobytes() == f[16:].tobytes()
        assert viol16[16:].tobytes() == viol[16:].tobytes()
        assert len(counters) == 1 and counters[0][0] >= 41

    def test_nan_gene_in_last_chunk_raises(self, kernel, net20):
        params = EpidemicParams(**REF_EPI, substeps=4)
        x = np.full((350, 3420), 0.5)
        x[349, 3419] = np.nan
        evaluate = make_batch_evaluator(net20, params, 700.0)
        for threads in (2, 3):
            with native.threads(threads), pytest.raises(IntegrationError):
                evaluate(x)

    @pytest.mark.parametrize("failing,error", [
        ({0: 1}, IntegrationError), ({64: 1}, IntegrationError),
        ({32: 2}, MemoryError), ({0: 1, 64: 2}, MemoryError),
        ({0: KeyboardInterrupt}, KeyboardInterrupt),
    ])
    def test_every_chunk_finishes_before_a_status_raises(self, net20, failing, error):
        # A stand-in kernel whose call takes 32 rows from the shared counter,
        # as the kernel takes its rows, and, having taken rows r on, returns,
        # or raises, failing.get(r, 0); the calls that succeed finish last.
        params = EpidemicParams(**REF_EPI, substeps=4)
        finished, taking = [], threading.Lock()

        class Stub:
            def rk4_batch(self, b, n, t1, k, x, *args):
                next_row = args[-1]
                with taking:
                    first = int(next_row[0])
                    next_row[0] += 32
                if first not in failing:
                    time.sleep(0.1)
                finished.append(first)
                status = failing.get(first, 0)
                if isinstance(status, type):
                    raise status
                return status

        x = np.full((96, 3420), 0.5)
        evaluate = kernel_evaluator(Stub(), net20, params, 700.0)
        with native.threads(3), pytest.raises(error):
            evaluate(x)
        assert sorted(finished) == [0, 32, 64]

    def test_evaluator_works_in_a_forked_child(self, kernel, net20):
        # The parent's helper threads do not survive fork; the child must
        # not wait on them.
        params = EpidemicParams(**REF_EPI, substeps=4)
        evaluate = make_batch_evaluator(net20, params, 700.0)
        x = np.random.default_rng(8).random((60, 3420))

        def run():
            with native.threads(2):
                return b"".join(a.tobytes() for a in evaluate(x))

        expected = run()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(run()))
        child.start()
        try:
            assert receive.poll(60), "the forked child's evaluator did not return"
            assert receive.recv() == expected
            child.join(10)
            assert not child.is_alive()
        finally:
            child.kill()

    def test_lanes_is_the_c_source_lane_count(self):
        # Both passes take rows from the shared counter LANES at a time, and
        # the trial pass jumps each group's lanes to its first row.
        defined = re.findall(rb"^#define LANES (\d+)$", native.SOURCE_BYTES, re.MULTILINE)
        assert [int(n) for n in defined] == [native.LANES]

    def test_threads_must_be_positive(self, monkeypatch):
        monkeypatch.setattr(native, "usable_cpus", lambda: 5)
        for count in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                with native.threads(count):
                    pass
        assert native.thread_count() == 5
        with native.threads(3):
            assert native.thread_count() == 3
            with native.threads(1):
                assert native.thread_count() == 1
            assert native.thread_count() == 3
        assert native.thread_count() == 5


def small_c3_problem():
    """A 6-node network over 3 intervals: 60 genes, 3 groups of 20 at NP 24."""
    net = generate_ba(6, 3, 2, seed=1)
    params = EpidemicParams(beta=0.4, gamma=0.3, p0=0.153, horizon=3, substeps=4)
    cfg = C3Config(ds=20, total_budget=3000, sub_fes=5 * 24)
    return net, params, 5.0, cfg, DEConfig(np_size=24)


def scored_rows(evaluate):
    """``evaluate`` counting rows handed to it and rows integrated, those whose f is not +inf."""
    counts = {"rows": 0, "integrated": 0}

    def counting(x):
        f, viol = evaluate(x)
        counts["rows"] += len(x)
        counts["integrated"] += int(np.count_nonzero(f != np.inf))
        return f, viol

    return counting, counts


def run_bytes(result):
    return (result.best.genes.tobytes(), np.float64(result.best.f).tobytes(),
            np.float64(result.best.violation).tobytes(),
            [(h.generation, h.cycle, h.group, np.float64(h.best_f).tobytes(),
              np.float64(h.best_violation).tobytes(), np.float64(h.epsilon).tobytes())
             for h in result.history])


class TestBoundedBatches:
    """A C3 trial batch carries its parents' keys; rows above them are not integrated."""

    def test_run_c3_gives_the_bytes_of_an_array_only_evaluator(self, level_builds):
        # The wrapper turns every batch into rows, which drops the bound, so
        # it scores every row the run hands it.
        net, params, budget, cfg, de_cfg = small_c3_problem()
        dim = decision_dimension(net.n, params.horizon)
        for level, build in {**level_builds, "numpy loop": None}.items():
            evaluate = kernel_evaluator(build, net, params, budget)
            for threads in (1, 2, 3):
                with native.threads(threads):
                    bounded, counts = scored_rows(evaluate)
                    got = run_c3(bounded, dim, cfg, de_cfg, seed=5)
                    expected = run_c3(lambda x: evaluate(np.asarray(x)), dim, cfg, de_cfg,
                                      seed=5)
                assert run_bytes(got) == run_bytes(expected), (level, threads)
                assert counts["rows"] == got.evaluations
                assert counts["integrated"] < counts["rows"], (level, threads)

    def test_rows_integrated_are_pinned(self, kernel):
        # An exact count: it follows from the bytes, which no host changes.
        # Of the 3000 rows, 1032 score population members and are all
        # integrated; 876 of the 1968 trials are.
        net, params, budget, cfg, de_cfg = small_c3_problem()
        dim = decision_dimension(net.n, params.horizon)
        for build in (kernel, None):
            counting, counts = scored_rows(kernel_evaluator(build, net, params, budget))
            result = run_c3(counting, dim, cfg, de_cfg, seed=5)
            assert (result.evaluations, counts["rows"], counts["integrated"]) == (3000, 3000, 1908)

    @pytest.mark.parametrize("batch", [1, 9, 60])
    def test_f_is_inf_exactly_above_the_bound(self, level_builds, net20, batch):
        # Row 0's bound is just below its violation, the others' from
        # bound_options. The odd rows hold w0's weights and are feasible,
        # violation 0, which only a negative bound is below. 60 rows split
        # over 3 threads.
        params = EpidemicParams(**REF_EPI, substeps=3)
        rng = np.random.default_rng(batch)
        idx = random_grouping(3420, 9, rng)[4]
        x0 = encode_schedule(no_adaptation_schedule(net20, 10))
        genes = rng.random((batch, idx.size))
        genes[1::2] = x0[idx]
        plain = kernel_evaluator(None, net20, params, 50.0)(ContextBatch(x0, idx, genes))
        viol = plain[1]
        bound = bound_options(viol)
        bound[0] = np.nextafter(viol[0], -np.inf)
        skipped = viol > bound
        assert skipped[0] and (batch == 1 or not skipped.all())
        for level, build in {**level_builds, "numpy loop": None}.items():
            evaluate = kernel_evaluator(build, net20, params, 50.0)
            for threads in (1, 2, 3):
                with native.threads(threads):
                    f, got_viol = evaluate(ContextBatch(x0, idx, genes, bound))
                assert got_viol.tobytes() == viol.tobytes(), (level, threads)
                assert np.array_equal(f == np.inf, skipped), (level, threads)
                assert f[~skipped].tobytes() == plain[0][~skipped].tobytes(), (level, threads)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_small_networks_give_the_numpy_loop_bytes(self, level_builds, n):
        # The kernel's working block holds n-node arrays; 2, 3, 5 and 7
        # nodes leave rows past the last full block of rows. A context
        # batch, with and without bound_options' bounds, and its rows as a
        # plain batch; at 3 threads 60 rows split over three takers of 8
        # rows. Budget 0 shows every bit of the violation.
        rng = np.random.default_rng(n)
        net, params = small_problem(n, rng)
        dim = decision_dimension(n, params.horizon)
        idx = random_grouping(dim, 2, rng)[1]
        context = ContextBatch(rng.random(dim), idx, rng.random((60, idx.size)))
        expected = kernel_evaluator(None, net, params, 0.0)(np.asarray(context))
        bound = bound_options(expected[1])
        bounded = ContextBatch(context.base, idx, context.genes, bound)
        expected_bounded = kernel_evaluator(None, net, params, 0.0)(bounded)
        skipped = expected[1] > bound
        assert skipped.any() and not skipped.all()
        assert np.array_equal(expected_bounded[0] == np.inf, skipped)
        assert expected_bounded[0][~skipped].tobytes() == expected[0][~skipped].tobytes()
        for level, build in level_builds.items():
            evaluate = kernel_evaluator(build, net, params, 0.0)
            for threads in (1, 2, 3):
                with native.threads(threads):
                    got = {"context": evaluate(context), "rows": evaluate(np.asarray(context)),
                           "bounded": evaluate(bounded)}
                for name, (f, viol) in got.items():
                    want = expected_bounded if name == "bounded" else expected
                    assert f.tobytes() == want[0].tobytes(), (level, threads, name)
                    assert viol.tobytes() == want[1].tobytes(), (level, threads, name)

    def test_nan_gene_in_a_bounded_batch_raises_on_both_paths(self, kernel, net20):
        # A bound of -1 skips every finite row; the NaN row's violation is
        # NaN, which no bound is below, so it is still integrated.
        params = EpidemicParams(**REF_EPI, substeps=4)
        rng = np.random.default_rng(2)
        idx = random_grouping(3420, 9, rng)[1]
        genes = rng.random((10, idx.size))
        genes[7, 3] = np.nan
        batch = ContextBatch(rng.random(3420), idx, genes, np.full(10, -1.0))
        for build in (kernel, None):
            with pytest.raises(IntegrationError):
                kernel_evaluator(build, net20, params, 700.0)(batch)


class TestTraces:
    def test_infected_level_at_start(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=5)
        traj = integrate(net20, params, no_adaptation_schedule(net20, 10))
        assert infected_level(traj, 0.0) == pytest.approx(0.153)

    def test_infected_level_of_uniform_rows(self):
        times = np.array([0.0, 0.5, 1.0])
        traj = Trajectory(times=times, p=np.array([[0.0, 0.0], [0.2, 0.2], [0.7, 0.7]]))
        assert infected_level(traj, 0.0) == 0.0
        assert infected_level(traj, 0.5) == pytest.approx(0.2)
        assert infected_level(traj, 1.0) == pytest.approx(0.7)

    def test_infected_level_off_grid(self):
        traj = Trajectory(times=np.array([0.0, 1.0]), p=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            infected_level(traj, 0.25)

    def test_total_weights_no_adaptation(self, net20):
        sched = no_adaptation_schedule(net20, 10)
        for t in (0.0, 0.5, 1.0, 4.75, 9.99):
            assert total_weights(sched, net20, t) == pytest.approx(170.0)

    def test_total_weights_constant_scaling(self, net20):
        sched = constant_adaptation_schedule(net20, 10, 700.0)
        c = 1.0 - math.sqrt(700.0 / 1530.0)
        assert total_weights(sched, net20, 0.5) == pytest.approx(170.0)
        for t in (1.0, 5.5, 9.0):
            assert total_weights(sched, net20, t) == pytest.approx(170.0 * c)

    def test_total_weights_zero_block(self, net20):
        sched = decode_candidate(np.zeros(3420), 20, 10)
        assert total_weights(sched, net20, 3.0) == 0.0

    def test_total_weights_out_of_range(self, net20):
        sched = no_adaptation_schedule(net20, 10)
        with pytest.raises(ValueError):
            total_weights(sched, net20, 10.0)
        with pytest.raises(ValueError):
            total_weights(sched, net20, -0.1)

    def test_trajectory_csv_export(self, net20, tmp_path):
        from epiadapt.harness import write_trajectory_csv

        params = EpidemicParams(**REF_EPI, substeps=3)
        sched = no_adaptation_schedule(net20, 10)
        traj = integrate(net20, params, sched)
        tpath = tmp_path / "traj.csv"
        write_trajectory_csv(traj, tpath)
        lines = tpath.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"p_{i}" for i in range(20))
        assert len(lines) == 32

    def test_trace_series_aligned(self, net20):
        params = EpidemicParams(**REF_EPI, substeps=4)
        sched = constant_adaptation_schedule(net20, 10, 700.0)
        traj = integrate(net20, params, sched)
        times, i_level, w_level = trace_series(traj, sched, net20)
        assert len(times) == len(i_level) == len(w_level) == 41
        assert i_level[0] == pytest.approx(0.153)
        assert w_level[0] == pytest.approx(170.0)
        # Final instant carries the last block's value.
        assert w_level[-1] == pytest.approx(total_weights(sched, net20, 9.5))


class TestParamValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            EpidemicParams(beta=-0.1, gamma=0.3, p0=0.1, horizon=5)
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.1, gamma=np.nan, p0=0.1, horizon=5)

    def test_p0_above_one_rejected(self):
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.1, gamma=0.3, p0=1.5, horizon=5)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.1, gamma=0.3, p0=0.1, horizon=1)

    @pytest.mark.parametrize("substeps,stable", [(2, False), (3, True)])
    def test_rk4_step_guard(self, net20, substeps, stable):
        # Rate (n - 1) * beta + gamma = 19 * 0.4 + 0.3 = 7.9, and
        # RK4's real-axis limit is 2.785: 7.9 / 3 = 2.63 passes, 7.9 / 2 fails.
        params = EpidemicParams(**REF_EPI, substeps=substeps)
        sched = no_adaptation_schedule(net20, 10)
        if stable:
            integrate(net20, params, sched)
            make_batch_evaluator(net20, params, 700.0)
            return
        with pytest.raises(ValueError, match="use substeps >= 3"):
            integrate(net20, params, sched)
        with pytest.raises(ValueError, match="use substeps >= 3"):
            make_batch_evaluator(net20, params, 700.0)

    @pytest.mark.parametrize("name", ["beta", "gamma", "p0"])
    @pytest.mark.parametrize("value", [np.array([0.1, 0.2]), np.array(0.1), [0.1], "0.1", None,
                                       True])
    def test_rate_must_be_a_number(self, name, value):
        fields = dict(beta=0.1, gamma=0.3, p0=0.1, horizon=3)
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            EpidemicParams(**{**fields, name: value})

    def test_rates_stored_as_floats(self):
        params = EpidemicParams(beta=1, gamma=np.int64(0), p0=np.float32(0.5), horizon=3)
        assert (params.beta, params.gamma, params.p0) == (1.0, 0.0, 0.5)
        assert all(type(v) is float for v in (params.beta, params.gamma, params.p0))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            WeightSchedule(blocks=np.full((2, 3, 3), 1.5))
        with pytest.raises(ValueError):
            WeightSchedule(blocks=np.zeros((3, 3)))
        bad = np.zeros((2, 3, 3))
        bad[0, 1, 1] = 0.2
        with pytest.raises(ValueError):
            WeightSchedule(blocks=bad)
