from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiadapt.stats import (
    _exact_p,
    _midranks,
    _normal_p,
    summarize,
    wilcoxon_rank_sum,
)
from reference import exact_p_loop, midranks_loop


class TestMidranks:
    def test_no_ties(self):
        np.testing.assert_array_equal(
            _midranks(np.array([30.0, 10.0, 20.0])), np.array([3.0, 1.0, 2.0])
        )

    def test_ties_get_mean_rank(self):
        np.testing.assert_array_equal(
            _midranks(np.array([1.0, 2.0, 2.0, 3.0])), np.array([1.0, 2.5, 2.5, 4.0])
        )

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0, np.nan, np.inf])
                    | st.floats(allow_nan=True, width=64), min_size=1, max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_run_scan(self, values):
        values = np.array(values)
        assert _midranks(values).tobytes() == midranks_loop(values).tobytes()

    def test_nan_never_ties_and_signed_zeros_do(self):
        ranks = _midranks(np.array([np.nan, 0.0, np.nan, -0.0]))
        np.testing.assert_array_equal(ranks, [3.0, 1.5, 4.0, 1.5])


class TestExactP:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_the_subset_loop_for_every_n1(self, n):
        rng = np.random.default_rng(n)
        samples = [rng.normal(size=n), rng.integers(0, 3, size=n).astype(float),
                   np.full(n, 7.0)]
        for pooled in samples:
            ranks = _midranks(pooled)
            for n1 in range(1, n):
                subsets = list(combinations(range(n), n1))
                for subset in subsets[:: max(1, len(subsets) // 4)]:
                    w = float(ranks[list(subset)].sum())
                    assert _exact_p(ranks, n1, w) == exact_p_loop(ranks, n1, w), (n, n1, w)


class TestWilcoxon:
    def test_most_extreme_small_case(self):
        # Complete separation of 3 vs 3: two of C(6,3)=20 assignments are
        # at least this extreme, two-sided.
        stat, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert stat == pytest.approx(6.0)
        assert p == pytest.approx(0.1)

    def test_identical_multisets(self):
        _, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == pytest.approx(1.0)

    def test_identical_multisets_normal_path(self):
        a = [5.0] * 13
        _, p = wilcoxon_rank_sum(a, list(a))
        assert p == 1.0

    def test_separated_normals(self):
        rng = np.random.default_rng(0)
        a = rng.normal(106.0, 0.15, size=25)
        b = rng.normal(127.0, 1.3, size=25)
        _, p = wilcoxon_rank_sum(list(a), list(b))
        assert p < 1e-8

    def test_exact_and_normal_agree(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            pooled = rng.normal(size=12) + rng.uniform(-1, 1)
            ranks = _midranks(pooled)
            w = float(ranks[:6].sum())
            worst = max(worst, abs(_exact_p(ranks, 6, w) - _normal_p(ranks, 6, w)))
        assert worst < 0.02

    def test_symmetry_in_sample_order(self):
        rng = np.random.default_rng(2)
        a = list(rng.normal(size=8))
        b = list(rng.normal(size=9))
        _, p_ab = wilcoxon_rank_sum(a, b)
        _, p_ba = wilcoxon_rank_sum(b, a)
        assert p_ab == pytest.approx(p_ba)

    def test_exact_path_handles_ties(self):
        _, p = wilcoxon_rank_sum([1.0, 1.0, 2.0], [1.0, 2.0, 2.0])
        assert 0.0 < p <= 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([1.0], [])


class TestSummarize:
    def test_single_deterministic_record(self):
        rows = summarize({"none": [160.5], "ref": [100.0, 101.0]}, reference="ref",
                         violations={"none": [0.0], "ref": [0.0, 0.0]})
        by_name = {row.algorithm: row for row in rows}
        assert by_name["none"].std == 0.0
        assert by_name["ref"].p_value is None

    def test_reference_row_first_and_unflagged_p(self):
        rows = summarize({"b": [2.0, 3.0], "a": [1.0, 2.0]}, reference="a",
                         violations={"b": [0.0, 0.0], "a": [0.0, 0.0]})
        assert rows[0].algorithm == "a"
        assert rows[0].p_value is None
        assert rows[1].p_value is not None

    def test_identical_algorithms_p_one(self):
        rows = summarize({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}, reference="a",
                         violations={"a": [0.0] * 3, "b": [0.0] * 3})
        assert rows[1].p_value == pytest.approx(1.0)

    def test_best_mean_flagged(self):
        rows = summarize(
            {"ref": [10.0, 11.0], "good": [1.0, 2.0], "bad": [20.0, 21.0]},
            reference="ref",
            violations={"ref": [0.0, 0.0], "good": [0.0, 0.0], "bad": [0.0, 0.0]},
        )
        flags = {row.algorithm: row.is_best for row in rows}
        assert flags == {"ref": False, "good": True, "bad": False}

    def test_infeasible_runs_counted(self):
        rows = summarize(
            {"a": [1.0, 2.0], "ref": [1.0]},
            reference="ref",
            violations={"a": [0.0, 3.5], "ref": [0.0]},
        )
        by_name = {row.algorithm: row for row in rows}
        assert by_name["a"].n_infeasible == 1
        assert by_name["ref"].n_infeasible == 0

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            summarize({"a": [1.0]}, reference="zzz", violations={"a": [0.0]})

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize({"a": [], "ref": [1.0]}, reference="ref", violations={"a": [], "ref": [0.0]})
