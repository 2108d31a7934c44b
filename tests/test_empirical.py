import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmetric import (
    DegenerateDataError,
    InputError,
    empirical_cdfs,
    empirical_priors,
    ingest,
    read_scores_csv,
)


class TestIngest:
    def test_valid(self):
        data = ingest([0.2, 0.8], [0, 1])
        assert data.n == 2
        assert data.normalization == "reject"

    def test_reject_out_of_range(self):
        with pytest.raises(InputError, match="outside"):
            ingest([-1.0, 3.0], [0, 1])

    def test_minmax_endpoints(self):
        data = ingest([-1.0, 3.0], [0, 1], normalization="minmax")
        assert data.scores.tolist() == [0.0, 1.0]

    def test_minmax_constant_maps_to_half(self):
        data = ingest([2.0, 2.0, 2.0], [0, 1, 0], normalization="minmax")
        assert np.all(data.scores == 0.5)

    def test_logistic(self):
        data = ingest([0.0, 100.0, -100.0], [0, 1, 0], normalization="logistic")
        assert data.scores[0] == pytest.approx(0.5)
        assert data.scores[1] == pytest.approx(1.0)
        assert data.scores[2] == pytest.approx(0.0, abs=1e-30)

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="parallel"):
            ingest([0.1, 0.2], [0])

    def test_non_finite(self):
        with pytest.raises(InputError, match="non-finite"):
            ingest([0.1, float("nan")], [0, 1])

    def test_bad_labels(self):
        with pytest.raises(InputError, match="labels"):
            ingest([0.1, 0.2], [0, 2])

    def test_empty(self):
        with pytest.raises(InputError, match="nonempty"):
            ingest([], [])

    def test_single_class_allowed_at_ingest(self):
        data = ingest([0.1, 0.2], [0, 0])
        assert data.n1 == 0

    def test_immutable(self):
        data = ingest([0.1, 0.2], [0, 1])
        with pytest.raises(ValueError):
            data.scores[0] = 0.7


class TestEmpiricalPriors:
    def test_three_to_one(self):
        data = ingest([0.1, 0.2, 0.3, 0.9], [0, 0, 0, 1])
        assert empirical_priors(data).pi0 == 0.75

    def test_balanced(self):
        data = ingest([0.1] * 5 + [0.9] * 5, [0] * 5 + [1] * 5)
        priors = empirical_priors(data)
        assert priors.pi0 == 0.5
        assert priors.pi0 + priors.pi1 == 1.0

    def test_single_class_rejected(self):
        data = ingest([0.1, 0.2], [0, 0])
        with pytest.raises(DegenerateDataError):
            empirical_priors(data)


class TestEmpiricalCdfs:
    def test_half_below(self):
        data = ingest([0.1, 0.4, 0.5], [0, 0, 1])
        cdfs = empirical_cdfs(data)
        assert cdfs.f0(0.3) == 0.5

    def test_total_mass(self):
        data = ingest([0.1, 0.4, 0.5], [0, 0, 1])
        cdfs = empirical_cdfs(data)
        assert cdfs.f0(1.0) == 1.0
        assert cdfs.f1(1.0) == 1.0

    def test_tie_convention_less_or_equal(self):
        data = ingest([0.05, 0.3, 0.3, 0.9], [0, 1, 1, 1])
        cdfs = empirical_cdfs(data)
        assert cdfs.f1(0.3) == pytest.approx(2.0 / 3.0)

    def test_tie_grouped_table(self):
        data = ingest([0.4, 0.1, 0.4, 0.9, 0.1, 0.4], [0, 1, 1, 1, 0, 0])
        table = empirical_cdfs(data)
        assert table.u.tolist() == [0.1, 0.4, 0.9]
        assert table.cum0.tolist() == [1, 3, 3]
        assert table.cum1.tolist() == [1, 2, 3]
        assert table.sorted0.tolist() == [0.1, 0.4, 0.4]
        assert table.sorted1.tolist() == [0.1, 0.4, 0.9]
        assert (table.n0, table.n1) == (3, 3)
        # one sort per column, shared by every metric that asks for it
        assert empirical_cdfs(data) is table is data.table

    def test_hull_is_lower_convex_chain(self):
        # ROC points (0,0), (1,0), (1,1), (2,1), (3,1), (3,3): (1,1) and
        # (2,1) lie above the chain, so it runs (0,0) (1,0) (3,1) (3,3)
        data = ingest([0.1, 0.2, 0.3, 0.4, 0.5, 0.5], [0, 1, 0, 0, 1, 1])
        f0, f1 = empirical_cdfs(data).hull
        assert f0.tolist() == [0.0, 1 / 3, 1.0, 1.0]
        assert f1.tolist() == [0.0, 0.0, 1 / 3, 1.0]

    def test_vectorized_queries(self):
        data = ingest([0.1, 0.4, 0.5], [0, 0, 1])
        cdfs = empirical_cdfs(data)
        out = cdfs.f0(np.array([0.0, 0.1, 0.2, 0.4, 1.0]))
        assert out.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        labels = np.r_[0, 1, (rng.random(28) < 0.5).astype(int)]
        cdfs = empirical_cdfs(ingest(scores, labels))
        grid = np.sort(rng.random(50))
        assert np.all(np.diff(cdfs.f0(grid)) >= 0)
        assert np.all(np.diff(cdfs.f1(grid)) >= 0)

    def test_mixture_identity(self):
        rng = np.random.default_rng(5)
        scores = np.round(rng.random(60), 2)  # force some ties
        labels = np.r_[0, 1, (rng.random(58) < 0.3).astype(int)]
        data = ingest(scores, labels)
        priors = empirical_priors(data)
        cdfs = empirical_cdfs(data)
        pooled_sorted = np.sort(scores)
        for c in np.unique(scores):
            pooled = np.searchsorted(pooled_sorted, c, side="right") / data.n
            mix = priors.pi0 * cdfs.f0(c) + priors.pi1 * cdfs.f1(c)
            assert mix == pytest.approx(pooled, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.random(40)
        labels = np.r_[0, 1, (rng.random(38) < 0.5).astype(int)]
        perm = rng.permutation(40)
        a = empirical_cdfs(ingest(scores, labels))
        b = empirical_cdfs(ingest(scores[perm], labels[perm]))
        grid = rng.random(100)
        assert np.array_equal(a.f0(grid), b.f0(grid))
        assert np.array_equal(a.f1(grid), b.f1(grid))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            empirical_cdfs(ingest([0.1, 0.2], [1, 1]))


class TestReadScoresCsv:
    def test_good_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("label,model_a,model_b\n0,0.1,0.3\n1,0.9,0.7\n", encoding="utf-8")
        names, columns, labels = read_scores_csv(path)
        assert names == ["model_a", "model_b"]
        assert columns["model_a"].tolist() == [0.1, 0.9]
        assert labels.tolist() == [0, 1]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n0.1,0.3\n", encoding="utf-8")
        with pytest.raises(InputError, match="label"):
            read_scores_csv(path)

    def test_missing_value_line_numbered(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("label,s\n0,0.1\n1,\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"scores\.csv:3"):
            read_scores_csv(path)

    def test_non_numeric_line_numbered(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("label,s\n0,0.1\n1,oops\n0,0.2\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"scores\.csv:3.*oops"):
            read_scores_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("label,s\n2,0.1\n", encoding="utf-8")
        with pytest.raises(InputError, match="label must be 0 or 1"):
            read_scores_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("label,s\n0,0.1,extra\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"scores\.csv:2"):
            read_scores_csv(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("label,s\n", encoding="utf-8")
        with pytest.raises(InputError, match="no data rows"):
            read_scores_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_scores_csv(tmp_path / "nope.csv")
