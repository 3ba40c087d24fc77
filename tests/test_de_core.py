import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiadapt
import epiadapt.de_core as de_core
import epiadapt._native as native
from epiadapt.coevolve import run_nsde
from epiadapt.de_core import (
    Candidate,
    DEConfig,
    Population,
    build_trials,
    donor_indices,
    init_population,
    nsde_generation,
    sample_scale_factors,
)
from epiadapt.dynamics import EpidemicParams, make_batch_evaluator
from epiadapt.eps_constraint import better_mask, better_than
from epiadapt.graph import generate_ba
from reference import traced_peak


def sphere(x):
    x = np.atleast_2d(x)
    return (x**2).sum(axis=1), np.zeros(x.shape[0])


def make_population(genes, evaluate):
    genes = np.asarray(genes, dtype=float)
    f, viol = evaluate(genes)
    return Population(genes, np.asarray(f, float), np.asarray(viol, float))


def fixed_f(value):
    """Stand-in for the F sampler: every row gets ``value``, no draws consumed."""
    return lambda fp, size, rng: np.full(size, value)


def expected_mutants(genes, best, f, seed):
    """current-to-best/1 mutants replayed from the donor draws of ``seed``.

    Valid when the F sampler is patched to draw nothing, so the donors are
    the first draws of the generation stream.
    """
    r1, r2 = donor_indices(genes.shape[0], np.random.default_rng(seed))
    return genes + f * (best - genes) + f * (genes[r1] - genes[r2])


class FakeRng:
    """Deterministic stand-in feeding preset integer arrays."""

    def __init__(self, integer_draws):
        self._draws = [np.asarray(d) for d in integer_draws]

    def integers(self, _n, size=None):
        return self._draws.pop(0)


class TestInitPopulation:
    def test_per_gene_mean(self):
        cfg = DEConfig(np_size=10_000)
        pop = init_population(cfg, 5, np.random.default_rng(1))
        assert np.all(np.abs(pop.mean(axis=0) - 0.5) < 0.02)

    def test_same_seed_identical(self):
        cfg = DEConfig(np_size=20)
        a = init_population(cfg, 8, np.random.default_rng(42))
        b = init_population(cfg, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_respects_bounds(self):
        cfg = DEConfig(np_size=50)
        pop = init_population(cfg, 10, np.random.default_rng(3))
        assert pop.min() >= 0.0 and pop.max() < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DEConfig(np_size=3)
        with pytest.raises(ValueError):
            DEConfig(np_size=10, cr=1.5)
        with pytest.raises(ValueError):
            DEConfig(np_size=10, fp=-0.1)
        with pytest.raises(ValueError):
            init_population(DEConfig(np_size=10), 0, np.random.default_rng(0))


class TestScaleFactor:
    def test_pure_gaussian_branch(self):
        draws = sample_scale_factors(1.0, 100_000, np.random.default_rng(0))
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.std() - 0.5) < 0.01

    def test_pure_cauchy_branch(self):
        draws = sample_scale_factors(0.0, 100_000, np.random.default_rng(1))
        assert abs(np.median(draws)) < 0.02

    def test_branch_fraction_at_half(self):
        # The first uniform draw of each row picks its branch; replay it on
        # a clone of the generator state.
        n = 100_000
        rng = np.random.default_rng(2)
        probe = np.random.default_rng()
        probe.bit_generator.state = rng.bit_generator.state
        gaussian = probe.random(n) < 0.5
        draws = sample_scale_factors(0.5, n, rng)
        assert abs(gaussian.mean() - 0.5) < 0.01
        np.testing.assert_array_equal(draws[gaussian], probe.normal(0.5, 0.5, n)[gaussian])


class TestMutation:
    def test_arithmetic(self, monkeypatch):
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(0.5))
        genes = np.array([[0.2], [0.4], [0.2], [0.9]])
        best = np.array([0.6])
        trials = build_trials(genes, best, DEConfig(np_size=4, cr=1.0),
                              np.random.default_rng(5))
        expected = np.clip(expected_mutants(genes, best, 0.5, 5), 0.0, 1.0)
        np.testing.assert_allclose(trials, expected, rtol=0.0, atol=1e-15)

    def test_zero_f_returns_target(self, monkeypatch):
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(0.0))
        genes = np.random.default_rng(1).random((6, 4))
        trials = build_trials(genes, genes[0], DEConfig(np_size=6, cr=1.0),
                              np.random.default_rng(0))
        np.testing.assert_array_equal(trials, genes)

    def test_identical_population_is_fixed_point(self):
        genes = np.tile([0.3, 0.7], (5, 1))
        trials = build_trials(genes, genes[0], DEConfig(np_size=5),
                              np.random.default_rng(0))
        np.testing.assert_allclose(trials, genes)

    def test_collisions_shift_past_i_and_r1(self):
        # Row 0 draws 0 for both donors: r1 shifts past i=0 to 1, r2 shifts
        # past 0 and then past 1 to 2. Row 3 draws the top values, which
        # need no shift.
        r1, r2 = donor_indices(4, FakeRng([[0, 0, 0, 2], [0, 0, 0, 1]]))
        assert (r1[0], r2[0]) == (1, 2)
        assert (r1[3], r2[3]) == (2, 1)

    @given(st.integers(4, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_r1_r2_distinct_from_i(self, np_size, seed):
        r1, r2 = donor_indices(np_size, np.random.default_rng(seed))
        i = np.arange(np_size)
        assert np.all((r1 != i) & (r2 != i) & (r1 != r2))
        assert r1.min() >= 0 and r2.min() >= 0
        assert r1.max() < np_size and r2.max() < np_size

    def test_donors_cover_every_other_index(self):
        draws = [donor_indices(5, np.random.default_rng(s)) for s in range(400)]
        pairs = {(int(a[0]), int(b[0])) for a, b in draws}
        assert pairs == {(a, b) for a in range(1, 5) for b in range(1, 5) if a != b}

    def test_too_small_population(self):
        with pytest.raises(ValueError):
            donor_indices(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_trials(np.zeros((3, 2)), np.zeros(2), DEConfig(np_size=4),
                         np.random.default_rng(0))


class TestCrossover:
    def test_cr_one_copies_mutant(self, monkeypatch):
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(0.3))
        genes = np.random.default_rng(1).random((20, 50))
        trials = build_trials(genes, genes[3], DEConfig(np_size=20, cr=1.0),
                              np.random.default_rng(0))
        expected = np.clip(expected_mutants(genes, genes[3], 0.3, 0), 0.0, 1.0)
        np.testing.assert_allclose(trials, expected, rtol=0.0, atol=1e-15)

    def test_cr_zero_forces_single_gene(self, monkeypatch):
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(1.0))
        genes = np.zeros((20, 50))
        trials = build_trials(genes, np.ones(50), DEConfig(np_size=20, cr=0.0),
                              np.random.default_rng(1))
        np.testing.assert_array_equal((trials != genes).sum(axis=1), 1)

    def test_inherited_fraction(self, monkeypatch):
        # Targets 0 and best 1 make every mutant gene 1, so the trial's mean
        # is the share of genes taken from the mutant: cr plus the forced gene.
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(1.0))
        genes = np.zeros((100, 1000))
        trials = build_trials(genes, np.ones(1000), DEConfig(np_size=100, cr=0.9),
                              np.random.default_rng(2))
        assert abs(trials.mean() - 0.9) < 0.01

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_trials(np.zeros((4, 3)), np.zeros(4), DEConfig(np_size=4),
                         np.random.default_rng(0))

    @pytest.mark.parametrize("genes,best,out", [
        (np.zeros((4, 3), np.float32), np.zeros(3), None),
        (np.zeros((3, 4)).T, np.zeros(3), None),
        (np.zeros(12), np.zeros(12), None),
        (np.zeros((4, 3)), np.zeros((1, 3)), None),
        (np.zeros((4, 3)), np.zeros(3), np.zeros((4, 4))),
        (np.zeros((4, 3)), np.zeros(3), np.zeros((4, 3), np.float32)),
        (np.zeros((4, 3)), np.zeros(3), np.zeros((3, 4)).T),
    ])
    def test_malformed_arrays_rejected_before_any_draw(self, genes, best, out):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            build_trials(genes, best, DEConfig(np_size=4), rng, out=out)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("compiled", [True, False])
    def test_out_overlapping_genes_rejected(self, compiled, monkeypatch):
        if not compiled:
            monkeypatch.setattr(native, "kernel", lambda: None)
        genes = np.random.default_rng(1).random((6, 5))
        before = genes.copy()
        out = np.empty_like(genes)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for best, target in ((genes[0], genes), (out[2], out)):
            with pytest.raises(ValueError, match="share memory"):
                build_trials(genes, best, DEConfig(np_size=6), rng, out=target)
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(genes, before)


@st.composite
def trial_cases(draw, nan=True):
    """Genes, best, config and generation seed for :func:`build_trials`.

    Genes and best hold runs of exact 0.0 and 1.0, and with ``nan`` maybe a
    NaN, which the clamp must keep; best is a population row or a row of
    its own. cr and fp take both ends of [0, 1] or a value between, and
    fp = 0 draws every F from the Cauchy, whose large values push mutants
    past both clamp bounds.
    """
    np_size = draw(st.integers(4, 40))
    dim = draw(st.sampled_from([1, 2]) | st.integers(1, 300))
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    cfg = DEConfig(np_size=np_size, cr=draw(rate), fp=draw(rate))
    genes = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((np_size + 1, dim))
    for value in (0.0, 1.0):
        start = draw(st.integers(0, genes.size))
        genes.flat[start:start + draw(st.integers(0, genes.size // 2))] = value
    if nan and draw(st.booleans()):
        genes.flat[draw(st.integers(0, genes.size - 1))] = np.nan
    best = genes[draw(st.integers(0, np_size))]
    return genes[:np_size], best, cfg, draw(st.integers(0, 2**32 - 1))


def trials_on(build, genes, best, cfg, seed):
    """Trials from one kernel build; None forces the numpy passes, as when no build loads."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "kernel", lambda: build)
        return build_trials(genes, best, cfg, np.random.default_rng(seed))


def toy_constrained(x):
    """A cheap objective and violation where trials win and lose alike."""
    return ((x - 0.3) ** 2).sum(axis=1), np.maximum(0.0, x.mean(axis=1) - 0.5)


class TestCompiledTrials:
    @settings(max_examples=150, deadline=None)
    @given(case=trial_cases())
    def test_matches_numpy_bytes(self, kernel, case):
        genes, best, cfg, seed = case
        compiled = trials_on(kernel, genes, best, cfg, seed)
        assert compiled.tobytes() == trials_on(None, genes, best, cfg, seed).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=trial_cases())
    def test_every_level_gives_baseline_bytes(self, level_builds, case):
        genes, best, cfg, seed = case
        base = trials_on(level_builds["base"], genes, best, cfg, seed)
        for level, build in level_builds.items():
            assert trials_on(build, genes, best, cfg, seed).tobytes() == base.tobytes(), level

    @settings(max_examples=40, deadline=None)
    @given(case=trial_cases(nan=False))
    def test_generations_match_numpy_bytes(self, kernel, case):
        genes, _, cfg, seed = case
        runs = []
        for build in (kernel, None):
            pop = make_population(genes.copy(), toy_constrained)
            rng = np.random.default_rng(seed)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(native, "kernel", lambda: build)
                for _ in range(5):
                    nsde_generation(pop, toy_constrained, 0.1, cfg, rng)
            runs.append([a.tobytes() for a in (pop.genes, pop.f, pop.violation)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("compiled", [True, False])
    def test_uniform_equal_to_cr_takes_mutant(self, compiled, request, monkeypatch):
        # cr is one of the generation's own crossover uniforms, replayed from
        # a twin of its PCG64 stream, so the C pass meets the tie on the
        # doubles it draws itself.
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(0.5))
        genes = np.random.default_rng(1).random((10, 7))
        twin = np.random.default_rng(6)
        donor_indices(10, twin)
        uniforms = twin.random(genes.shape)
        i = 4
        j = (twin.integers(7, size=10)[i] + 1) % 7  # not the row's forced gene
        cfg = DEConfig(np_size=10, cr=float(uniforms[i, j]))
        build = request.getfixturevalue("kernel") if compiled else None
        trials = trials_on(build, genes, genes[i], cfg, 6)
        assert trials.tobytes() == trials_on(None, genes, genes[i], cfg, 6).tobytes()
        mutant = np.clip(expected_mutants(genes, genes[i], 0.5, 6)[i, j], 0.0, 1.0)
        assert mutant != genes[i, j]
        np.testing.assert_allclose(trials[i, j], mutant, rtol=0.0, atol=1e-15)

    def test_no_compiler_runs_numpy_code_with_one_warning(self, kernel, isolated_kernel,
                                                           monkeypatch):
        monkeypatch.setenv("PATH", str(isolated_kernel.parent))
        net = generate_ba(20, 5, 5, seed=1)
        params = EpidemicParams(beta=0.4, gamma=0.3, p0=0.153, horizon=10, substeps=4)
        cfg = DEConfig(np_size=8)

        def run(evaluate):
            rng = np.random.default_rng(3)
            pop = make_population(init_population(cfg, 3420, rng), evaluate)
            for _ in range(3):
                nsde_generation(pop, evaluate, 0.0, cfg, rng)
            return [a.tobytes() for a in (pop.genes, pop.f, pop.violation)]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate = make_batch_evaluator(net, params, 700.0)
            fallback = run(evaluate)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert native.kernel() is None
        assert not list(isolated_kernel.glob("*"))
        # The same numpy-loop evaluator, now with the compiled trial pass.
        monkeypatch.setattr(native, "kernel", lambda: kernel)
        assert run(evaluate) == fallback

    def test_import_builds_nothing(self):
        code = ("import epiadapt, epiadapt._native as n; "
                "assert n.kernel.cache_info().misses == 0")
        src = str(Path(epiadapt.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


def generator_at(seed, buffered):
    """A PCG64 generator from ``seed`` and an independent copy of it.

    With ``buffered``, one 32-bit ``integers`` draw first leaves the other
    half of its 64-bit output buffered (``has_uint32`` = 1).
    """
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(7)
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return rng, twin


def assert_trials_match_numpy(level_builds, genes, seed, buffered):
    """Each build's trials, and the state they leave, equal the numpy passes'.

    The C pass runs on 1, 2 and 3 threads, with the gene gate lowered so
    that it splits wherever the rows make more than one lane group.
    """
    cfg = DEConfig(np_size=genes.shape[0])
    for level, build in level_builds.items():
        for threads in (1, 2, 3):
            rng, twin = generator_at(seed, buffered)
            runs = []
            for uniforms_from, gen in ((build, rng), (None, twin)):
                with pytest.MonkeyPatch.context() as m, native.threads(threads):
                    m.setattr(native, "kernel", lambda: uniforms_from)
                    m.setattr(native, "SPLIT_GENES", 1)
                    runs.append(build_trials(genes, genes[3], cfg, gen).tobytes())
            assert runs[0] == runs[1], (level, threads)
            assert rng.bit_generator.state == twin.bit_generator.state, (level, threads)


# Trial-pass shapes whose crossover uniforms _native._trials_match_numpy
# compares with numpy's, the forced last gene aside: 5, 6 and 7 doubles, a
# tail alone; LANES + 1 rows of 9 to 15 genes, a lane group of whole blocks
# and then a second group of one row, whose lanes jump past the first's
# doubles, with every tail of 1 to LANES - 1 doubles; four groups, each
# jumped to its first row; seven intervals of the reference problem's
# genes; and an odd NP * D.
FILL_SHAPES = ((1, 5), (2, 3), (1, 7), *((native.LANES + 1, d) for d in range(9, 16)),
               (3 * native.LANES + 3, 5), (7, 3420), (35, 99))


class TestUniformFill:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), shape=st.sampled_from(FILL_SHAPES))
    def test_every_level_gives_numpy_bytes_and_state(self, level_builds, seed, shape):
        for level, build in level_builds.items():
            assert native._trials_match_numpy(build, seed, shape), level

    @pytest.mark.parametrize("shape", [(1, 7), (native.LANES + 1, 9)])
    def test_every_level_draws_numpy_doubles(self, level_builds, shape):
        # cr at a uniform, and then just below it, flips that gene where its
        # double differs from numpy's in any bit, the last included; at 0.5
        # only the leading bit shows. Every gene but the forced ones, in a
        # tail alone and in blocks carried over into a tail.
        rows, genes = shape
        pins = [p for p in range(rows * genes) if p % genes != genes - 1]
        for level, build in level_builds.items():
            assert native._trials_match_numpy(build, 5, shape, pins=pins), level

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_fill_without_int128_gives_numpy_bytes(self, tmp_path, monkeypatch):
        # Without __int128, lcg_step works in 64-bit halves: in the v3 and
        # base builds it starts the lanes and steps them. v4 steps them with
        # its intrinsics either way.
        monkeypatch.setattr(native, "CACHE", tmp_path)
        monkeypatch.setattr(native, "CFLAGS", (*native.CFLAGS, "-U__SIZEOF_INT128__",
                                               "-Wall", "-Wextra", "-Werror"))
        try:
            cpuinfo = native.CPUINFO.read_text()
        except OSError:
            cpuinfo = ""
        levels = [level for level in native.host_levels(cpuinfo, platform.machine())
                  if level in ("v3", "base")]
        builds = {level: native.build(level) for level in levels}
        for level, build in builds.items():
            for seed, shape in enumerate(FILL_SHAPES):
                assert native._trials_match_numpy(build, 2**63 + seed, shape), level
        for seed, shape in enumerate([(5, 7), (35, 99)]):
            assert_trials_match_numpy(builds, np.random.default_rng(seed).random(shape),
                                      seed, buffered=bool(seed))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), buffered=st.booleans())
    def test_odd_population_trials_give_numpy_bytes(self, level_builds, seed, buffered):
        # The donors draw 2 * NP 32-bit halves, plus any rejections. After an
        # odd count in all (here one earlier draw), the forced genes start
        # from the half left buffered across the fill.
        assert_trials_match_numpy(level_builds, np.random.default_rng(seed).random((35, 99)),
                                  seed, buffered)

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("np_size,dim", [(350, 3420), (5, 7)])
    def test_trial_pass_draws_numpy_bytes_and_state(self, level_builds, np_size, dim,
                                                    buffered):
        # The reference size leaves a last lane group of 6 rows. 5 rows of 7
        # genes are fewer than the 8 lanes, so their one group ends mid-block.
        assert_trials_match_numpy(level_builds, np.random.default_rng(dim).random((np_size, dim)),
                                  np_size + dim, buffered)

    def test_other_generators_draw_with_numpy(self, kernel):
        genes = np.random.default_rng(1).random((11, 40))
        cfg = DEConfig(np_size=11)
        runs = []
        for build in (kernel, None):
            rng = np.random.Generator(np.random.Philox(9))
            with pytest.MonkeyPatch.context() as m:
                m.setattr(native, "kernel", lambda: build)
                pop = init_population(cfg, 40, rng)
                trials = build_trials(genes, genes[0], cfg, rng)
            after = rng.integers(1 << 40, size=3)
            runs.append([a.tobytes() for a in (pop, trials, after)])
        assert runs[0] == runs[1]

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_fill_unlike_numpy_is_refused_with_one_warning(self, isolated_kernel, monkeypatch):
        # numpy's PCG64 multiplier, off in its second bit.
        assert_edit_is_refused(monkeypatch, b"0x4385df649fccf645ULL", b"0x4385df649fccf647ULL")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_trial_pass_from_another_state_is_refused(self, isolated_kernel, monkeypatch):
        # Only each lane group's lanes, in de_trials, start from a state
        # next to the one the group jumped to.
        assert_edit_is_refused(monkeypatch, b"pcg_start(&g, hi, lo,", b"pcg_start(&g, hi, lo ^ 1,")

    def test_load_check_pins_each_lane_and_the_tail(self):
        # The load check's default shape: LANES + 1 rows of 5 genes, so its
        # whole blocks end at 40 and the tail runs from 40 to 44.
        pins = np.array(native.PINNED)
        assert sorted(pins[:-1] % native.LANES) == list(range(native.LANES))
        assert np.all(pins[:-1] < native.LANES * 5) and 40 <= pins[-1] < 45
        assert np.all(pins % 5 != 4)  # no row's forced last gene

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_block_doubles_off_in_their_last_bit_are_refused(self, isolated_kernel,
                                                             monkeypatch):
        # Every double of v4's AVX-512 blocks, off in its last bit: at cr 0.5
        # alone no gene shows it.
        try:
            cpuinfo = native.CPUINFO.read_text()
        except OSError:
            cpuinfo = ""
        if "v4" not in native.host_levels(cpuinfo, platform.machine()):
            pytest.skip("this host runs no v4 build")
        assert_edit_is_refused(monkeypatch, b"_mm512_srli_epi64(u, 11)",
                               b"_mm512_xor_si512(_mm512_srli_epi64(u, 11), one)")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_scalar_doubles_off_in_their_last_bit_are_refused(self, isolated_kernel,
                                                              monkeypatch):
        # pcg_double, which every level's tail goes through, off in its last bit.
        assert_edit_is_refused(monkeypatch, b"(u >> 11)", b"((u >> 11) ^ 1)")


def assert_edit_is_refused(monkeypatch, old, new):
    """With ``old`` replaced by ``new`` in the source, no build loads, with one warning.

    The loader compiles the source it read at import, so the edit goes to
    SOURCE_BYTES; the caller isolates the cache. The trials then come from
    the numpy passes.
    """
    assert native.SOURCE_BYTES.count(old) == 1
    monkeypatch.setattr(native, "SOURCE_BYTES", native.SOURCE_BYTES.replace(old, new))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert native.kernel() is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "de_trials' uniforms differ" in str(caught[0].message)
    genes = np.random.default_rng(2).random((9, 30))
    cfg = DEConfig(np_size=9)
    trials = build_trials(genes, genes[1], cfg, np.random.default_rng(4))
    assert trials.tobytes() == trials_on(None, genes, genes[1], cfg, 4).tobytes()


class TestTrialPassSplit:
    """The C trial pass split over threads gives the bytes of one thread."""

    @pytest.mark.parametrize("shape,calls", [((60, 380), 1), ((350, 380), 1), ((350, 3420), 2)])
    def test_only_large_passes_split(self, kernel, monkeypatch, shape, calls):
        # At the default gate: the campaign-desk and C3 subcomponent passes
        # stay on one thread, a reference-size pass over all genes splits.
        # Every thread gets the whole pass and one shared counter, which
        # ends past the rows.
        seen = []
        de_trials = kernel.de_trials
        monkeypatch.setattr(native, "kernel", lambda: kernel)
        monkeypatch.setattr(kernel, "de_trials", lambda *a: seen.append(a) or de_trials(*a))
        genes = np.random.default_rng(4).random(shape)
        with native.threads(2):
            build_trials(genes, genes[0], DEConfig(np_size=shape[0]), np.random.default_rng(5))
        assert len(seen) == calls
        assert all(args[0] == shape[0] and args[-1] is seen[0][-1] for args in seen)
        assert seen[0][-1][0] >= shape[0]

    def test_a_call_takes_only_the_rows_left(self, kernel, monkeypatch):
        # Rows below the shared counter are another thread's: a call leaves
        # them, builds every row from the counter on as a pass over all of
        # them would, whichever group it takes first, and moves the counter
        # past the population. 41 rows of 99 genes end in a partial group.
        genes = np.random.default_rng(6).random((41, 99))
        cfg = DEConfig(np_size=41)
        full = trials_on(kernel, genes, genes[2], cfg, 7)
        counters = []

        class Late:
            def de_trials(self, *args):
                next_row = args[-1]
                next_row[0] = 16
                counters.append(next_row)
                return kernel.de_trials(*args)

        monkeypatch.setattr(native, "kernel", lambda: Late())
        out = np.full_like(genes, 2.0)
        with native.threads(1):
            late = build_trials(genes, genes[2], cfg, np.random.default_rng(7), out=out)
        assert late[16:].tobytes() == full[16:].tobytes()
        assert np.all(late[:16] == 2.0)
        assert len(counters) == 1 and counters[0][0] >= 41

    def test_run_nsde_gives_one_thread_bytes(self, kernel, monkeypatch):
        monkeypatch.setattr(native, "kernel", lambda: kernel)
        monkeypatch.setattr(native, "SPLIT_GENES", 1)
        cfg = DEConfig(np_size=30)
        runs = []
        for threads in (1, 2):
            with native.threads(threads):
                result = run_nsde(toy_constrained, 50, 900, cfg, 11)
            rows = [(h.generation, h.best_f, h.best_violation, h.epsilon) for h in result.history]
            runs.append([result.best.genes.tobytes(), float(result.best.f).hex(),
                         float(result.best.violation).hex(), np.array(rows).tobytes()])
        assert runs[0] == runs[1]

    def test_split_pass_works_in_a_forked_child(self, kernel, monkeypatch):
        # The parent's helper threads do not survive fork; the child must
        # not wait on them.
        monkeypatch.setattr(native, "kernel", lambda: kernel)
        monkeypatch.setattr(native, "SPLIT_GENES", 1)
        genes = np.random.default_rng(8).random((60, 380))
        cfg = DEConfig(np_size=60)

        def run():
            with native.threads(2):
                return build_trials(genes, genes[0], cfg, np.random.default_rng(9)).tobytes()

        expected = run()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(run()))
        child.start()
        try:
            assert receive.poll(60), "the forked child's trial pass did not return"
            assert receive.recv() == expected
            child.join(10)
            assert not child.is_alive()
        finally:
            child.kill()


class TestNsdeGeneration:
    def test_sphere_smoke(self):
        cfg = DEConfig(np_size=30)
        rng = np.random.default_rng(7)
        pop = make_population(init_population(cfg, 10, rng), sphere)
        best_values = [pop.f[pop.eps_best_index(0.0)]]
        for _ in range(200):
            nsde_generation(pop, sphere, 0.0, cfg, rng)
            best_values.append(pop.f[pop.eps_best_index(0.0)])
        assert all(b <= a + 1e-12 for a, b in zip(best_values, best_values[1:]))
        assert best_values[-1] < 1e-2

    def test_returns_nothing(self):
        cfg = DEConfig(np_size=12)
        rng = np.random.default_rng(0)
        pop = make_population(init_population(cfg, 5, rng), sphere)
        assert nsde_generation(pop, sphere, 0.0, cfg, rng) is None

    def test_same_seed_same_outcome(self):
        cfg = DEConfig(np_size=10)

        def run():
            rng = np.random.default_rng(33)
            pop = make_population(init_population(cfg, 6, rng), sphere)
            for _ in range(5):
                nsde_generation(pop, sphere, 0.0, cfg, rng)
            return pop.genes.copy()

        np.testing.assert_array_equal(run(), run())

    def test_genes_stay_in_bounds(self):
        cfg = DEConfig(np_size=15)
        rng = np.random.default_rng(4)
        pop = make_population(init_population(cfg, 8, rng), sphere)
        for _ in range(30):
            nsde_generation(pop, sphere, 0.0, cfg, rng)
            assert pop.genes.min() >= 0.0 and pop.genes.max() <= 1.0

    def test_elitism_under_fixed_eps(self):
        # Constrained toy problem: violation is distance above 0.5 in gene 0.
        def evaluate(x):
            x = np.atleast_2d(x)
            return (x**2).sum(axis=1), np.maximum(0.0, x[:, 0] - 0.5)

        cfg = DEConfig(np_size=12)
        rng = np.random.default_rng(8)
        pop = make_population(init_population(cfg, 5, rng), evaluate)
        eps = 0.1
        for _ in range(40):
            i = pop.eps_best_index(eps)
            before = (float(pop.f[i]), float(pop.violation[i]))
            nsde_generation(pop, evaluate, eps, cfg, rng)
            j = pop.eps_best_index(eps)
            after = (float(pop.f[j]), float(pop.violation[j]))
            assert not better_than(before[0], before[1], after[0], after[1], eps)

    def test_zero_f_and_zero_cr_changes_nothing(self, monkeypatch):
        # F = 0 makes every mutant equal its target, so trials are identical
        # and strict improvement never triggers a replacement.
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(0.0))
        cfg = DEConfig(np_size=8, cr=0.0)
        rng = np.random.default_rng(2)
        pop = make_population(init_population(cfg, 4, rng), sphere)
        before = pop.genes.copy()
        nsde_generation(pop, sphere, 0.0, cfg, rng)
        np.testing.assert_array_equal(pop.genes, before)

    def test_constant_f_and_zero_cr_single_gene_moves(self, monkeypatch):
        # With cr = 0 a trial differs from its target in at most the forced
        # gene, so survivors differ from their predecessors in <= 1 position.
        monkeypatch.setattr(de_core, "sample_scale_factors", fixed_f(0.5))
        cfg = DEConfig(np_size=8, cr=0.0)
        rng = np.random.default_rng(3)
        pop = make_population(init_population(cfg, 6, rng), sphere)
        before = pop.genes.copy()
        nsde_generation(pop, sphere, 0.0, cfg, rng)
        changed = (pop.genes != before).sum(axis=1)
        assert changed.max() <= 1

    def test_generations_reuse_one_trial_buffer(self):
        # Every trial wins, so selection copies all NP rows each time.
        calls = []

        def always_better(x):
            calls.append(None)
            return np.full(x.shape[0], -float(len(calls))), np.zeros(x.shape[0])

        cfg = DEConfig(np_size=256)
        rng = np.random.default_rng(5)
        pop = make_population(init_population(cfg, 2000, rng), sphere)
        nsde_generation(pop, always_better, 0.0, cfg, rng)
        trials = pop.trials
        peak = traced_peak(lambda: nsde_generation(pop, always_better, 0.0, cfg, rng))
        assert pop.trials is trials
        assert np.all(pop.f == -2.0)
        assert peak < 0.5 * pop.genes.nbytes

    def test_population_size_mismatch(self):
        cfg = DEConfig(np_size=10)
        pop = make_population(np.zeros((8, 3)), sphere)
        with pytest.raises(ValueError):
            nsde_generation(pop, sphere, 0.0, cfg, np.random.default_rng(0))


class TestPopulation:
    def test_eps_best_prefers_feasible(self):
        pop = Population(
            genes=np.zeros((3, 2)),
            f=np.array([5.0, 1.0, 3.0]),
            violation=np.array([0.0, 2.0, 0.0]),
        )
        assert pop.eps_best_index(0.0) == 2

    def test_candidate_snapshot_detached(self):
        pop = Population(
            genes=np.array([[0.1, 0.2]]), f=np.array([1.0]), violation=np.array([0.0])
        )
        cand = pop.candidate(0)
        pop.genes[0, 0] = 0.9
        assert isinstance(cand, Candidate)
        assert cand.genes[0] == pytest.approx(0.1)


def scan_best_index(f, viol, eps):
    """Reference: the sequential better_than scan the population used to run."""
    best = 0
    for i in range(1, len(f)):
        if better_than(f[i], viol[i], f[best], viol[best], eps):
            best = i
    return best


# Small value pools make ties, values exactly at eps, and NaNs in both arrays common.
EPS_VALUES = st.sampled_from([0.0, 0.5, 1.0])
VIOLATION_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, np.nan])
VIOLATIONS = st.lists(VIOLATION_VALUES, min_size=1, max_size=12)
OBJECTIVES = st.sampled_from([-1.0, 0.0, 1.0, 3.0, np.inf, np.nan])


class TestEpsComparatorArrays:
    @given(st.data(), EPS_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_eps_best_index_matches_sequential_scan(self, data, eps):
        viol = np.array(data.draw(VIOLATIONS))
        f = np.array(data.draw(st.lists(OBJECTIVES, min_size=viol.size, max_size=viol.size)))
        pop = Population(np.zeros((viol.size, 1)), f, viol)
        assert pop.eps_best_index(eps) == scan_best_index(f, viol, eps)

    @given(st.data(), EPS_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_selection_mask_matches_better_than(self, data, eps):
        viol_a = np.array(data.draw(VIOLATIONS))
        size = viol_a.size
        viol_b = np.array(data.draw(st.lists(VIOLATION_VALUES, min_size=size, max_size=size)))
        f_a, f_b = (np.array(data.draw(st.lists(OBJECTIVES, min_size=size, max_size=size)))
                    for _ in range(2))
        expected = [better_than(f_a[i], viol_a[i], f_b[i], viol_b[i], eps) for i in range(size)]
        np.testing.assert_array_equal(better_mask(f_a, viol_a, f_b, viol_b, eps), expected)

    def test_first_index_wins_ties(self):
        pop = Population(np.zeros((4, 1)), np.array([2.0, 1.0, 1.0, 1.0]),
                         np.array([0.0, 0.3, 0.0, 0.0]))
        assert pop.eps_best_index(0.5) == 1
        assert pop.eps_best_index(0.0) == 2

    def test_nan_objective_at_head_of_ties_is_kept(self):
        pop = Population(np.zeros((3, 1)), np.array([np.nan, 1.0, 0.5]), np.zeros(3))
        assert pop.eps_best_index(0.0) == 0
        pop.f[0] = 2.0
        assert pop.eps_best_index(0.0) == 2
