import array
import ast
import csv
import io
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmetric import empirical
from hmetric import (
    ConfigError,
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

    @pytest.mark.parametrize("labels,bad", [
        (np.array([True, False, True]), None),
        ([1, 0.5, 1], 1),
        ([1, 0, np.nan], 2),
        (np.array(["1", "0", "1"]), 0),  # no string equals a number
        (np.array([1, "1", 1], dtype=object), 1),
        (np.array([1, None, 1], dtype=object), 1),
    ], ids=["bool", "half", "nan", "str", "object-str", "object-none"])
    def test_label_kinds_accepted_or_rejected_at_their_position(self, labels, bad):
        if bad is None:
            assert ingest([0.1, 0.2, 0.3], labels).labels.tolist() == [1, 0, 1]
        else:
            with pytest.raises(InputError, match=f"offending value at position {bad}$"):
                ingest([0.1, 0.2, 0.3], labels)

    def test_score_rules_name_the_first_offender(self):
        with pytest.raises(InputError, match="^non-finite score at position 1$"):
            ingest([0.1, np.inf, np.nan], [0, 1, 2])
        with pytest.raises(InputError, match=r"^score 1\.5 at position 1 outside"):
            ingest([0.1, 1.5, -1.0], [0, 1, 1])

    def test_empty(self):
        with pytest.raises(InputError, match="nonempty"):
            ingest([], [])

    @pytest.mark.parametrize("scores, normalization, message", [
        ([[0.1, 0.2], [0.3, 0.4]], "reject", "scores and labels must be one-dimensional"),
        ([0.1, 0.2], "bogus", "unknown normalization 'bogus'; expected one of "),
    ], ids=["2d", "normalization"])
    def test_structure_rejected(self, scores, normalization, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            ingest(scores, [0, 1], normalization=normalization)

    def test_single_class_allowed_at_ingest(self):
        data = ingest([0.1, 0.2], [0, 0])
        assert data.n1 == 0

    def test_immutable(self):
        data = ingest([0.1, 0.2], [0, 1])
        with pytest.raises(ValueError):
            data.scores[0] = 0.7

    @pytest.mark.parametrize("normalization", ["reject", "minmax", "logistic"])
    @pytest.mark.parametrize("make", [
        np.array,
        lambda v: np.array([v, v])[1],  # a view of a larger array
        lambda v: array.array("d", v),  # a buffer np.asarray shares
    ], ids=["array", "view", "buffer"])
    def test_later_writes_to_the_inputs_leave_it_unchanged(self, make, normalization):
        scores, labels = make([0.2, 0.9, 0.4]), np.array([0, 1, 1])
        data = ingest(scores, labels, normalization=normalization)
        kept = data.scores.copy(), data.labels.copy()
        scores[0], labels[0] = 0.7, 1
        np.testing.assert_array_equal(data.scores, kept[0])
        np.testing.assert_array_equal(data.labels, kept[1])
        assert not (data.scores.flags.writeable or data.labels.flags.writeable)

    def test_read_only_array_that_owns_its_memory_is_shared(self):
        scores = _read_only(np.array([0.2, 0.9, 0.4]))
        assert np.shares_memory(ingest(scores, [0, 1, 1]).scores, scores)

    @pytest.mark.parametrize("make", [
        np.array,
        lambda v: np.array([v, v])[1],
        lambda v: _read_only(np.array([v, v])[1]),
    ], ids=["writeable", "view", "read-only-view"])
    def test_writeable_array_or_view_is_copied(self, make):
        scores = make([0.2, 0.9, 0.4])
        assert not np.shares_memory(ingest(scores, [0, 1, 1]).scores, scores)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


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


class TestTableSums:
    """EmpiricalCdfPair.sums over a table of more than three runs of
    _BLOCK groups, with ties in both classes."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(21)
        scores = rng.integers(0, 100_000, 80_000) / 100_000
        table = ingest(scores, rng.random(80_000) < 0.3).table
        assert table.u.size > 3 * empirical._BLOCK
        assert table.count0.max() > 1 and table.count1.max() > 1
        return table

    def test_integer_sums_are_exact_python_ints(self, table):
        got = table.sums(lambda u, cum0, cum1, count0, count1: (
            count1 * (2 * cum0 - count0), count0 * cum1, count0 + count1))
        cum0, cum1 = table.cum0.tolist(), table.cum1.tolist()
        count0, count1 = table.count0.tolist(), table.count1.tolist()
        want = (sum(c1 * (2 * k0 - c0) for c1, k0, c0 in zip(count1, cum0, count0)),
                sum(c0 * k1 for c0, k1 in zip(count0, cum1)),
                table.n0 + table.n1)
        assert got == want
        assert [type(total) for total in got] == [int] * 3

    @pytest.mark.parametrize("size", [None, 1000])
    def test_float_sums_add_the_runs_in_order(self, table, size):
        size = size or empirical._BLOCK
        got = table.sums(lambda u, cum0, cum1, count0, count1: (
            count0 * u, count1 * (1.0 - u)), size)
        want = [0.0, 0.0]
        for lo in range(0, table.u.size, size):
            run = slice(lo, lo + size)
            want[0] += np.add.reduce(table.count0[run] * table.u[run])
            want[1] += np.add.reduce(table.count1[run] * (1.0 - table.u[run]))
        assert list(got) == want

    def test_a_term_of_rows_sums_each_row(self, table):
        rows = np.arange(1.0, 25.0)[:, None]
        got, = table.sums(lambda u, cum0, cum1, count0, count1: (count0 * u * rows,))
        assert got.shape == (24,)
        for j in (0, 7, 23):
            want, = table.sums(lambda u, cum0, cum1, count0, count1: (count0 * u * rows[j],))
            assert got[j] == want


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

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,s\n0,0.1\n1,0.9\n")
        names, columns, labels = read_scores_csv(path)
        assert names == ["s"]
        assert columns["s"].tolist() == [0.1, 0.9]
        assert labels.tolist() == [0, 1]

    def test_not_utf8_line_numbered(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"label,s\n0,0.1\n1,0.9\xff\n")
        with pytest.raises(InputError, match=r"scores\.csv:3: not UTF-8 text"):
            read_scores_csv(path)

    def test_not_utf8_reported_before_an_earlier_bad_row(self):
        # a body that is not ASCII is decoded whole before any row is
        # parsed, so a byte past the first 8 KiB chunk is what is reported
        rows = [b"0,0.1"] * 2000
        rows[1], rows[-1] = b"0,oops", b"1,0.9\xff"  # lines 3 and 2001
        content = b"label,s\n" + b"\n".join(rows) + b"\n"
        with pytest.raises(InputError, match=r"^in\.csv:2001: not UTF-8 text$"):
            read_scores_csv("in.csv", content=content)

    def test_content_is_parsed_instead_of_the_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("label,s\n0,0.1\n1,0.9\n", encoding="utf-8")
        _, columns, _ = read_scores_csv(path, content=b"label,s\n0,0.2\n1,0.8\n")
        assert columns["s"].tolist() == [0.2, 0.8]


def _line_reader(path, content):
    """read_scores_csv with the bulk path switched off: every row goes
    through the line reader."""
    with mock.patch.object(empirical, "_read_plain", return_value=None):
        return read_scores_csv(path, content=content)


def _outcome(read, path, content):
    try:
        names, columns, labels = read(path, content)
    except InputError as exc:
        return str(exc)
    except csv.Error as exc:  # a NUL byte, in the csv module before Python 3.11
        return f"csv.Error: {exc}"
    return (
        names,
        [(name, col.dtype.str, col.tobytes()) for name, col in columns.items()],
        (labels.dtype.str, labels.tobytes()),
    )


_PLAIN_SCORES = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.17g}"),
    st.integers(0, 1000).map(lambda k: f"{k / 1000:.3f}"),
    st.sampled_from(["0", "1", "-0", "+.5", "5.", "1e-5", "2.5E+3", "-1e300", "1e-320"]),
)
_ODD_SCORES = st.sampled_from(
    ["", " 0.5", "0.5 ", '"0.5"', "1_0", "nan", "inf", "-inf", "1e999", "abc",
     "1e", ".", "-", "1-2", "0x1", "0.5\t", "\x0b0.5", "0.5\x0c", "\x1f0.5", "0.5\x00",
     " 0.5 ", "0.5\u00a0", "\u0661"]
)
_ODD_LABELS = st.sampled_from(
    ["01", "+1", "1.0", "-0", "2", " 1", "", '"1"', "1e0", "00", "1.", ".0", "0e5"]
)


@st.composite
def _csv_texts(draw):
    n_scores = draw(st.integers(1, 2))
    names = [f"s{k}" for k in range(n_scores)]
    label_idx = draw(st.integers(0, n_scores))
    header = names[:label_idx] + ["label"] + names[label_idx:]
    if draw(st.integers(0, 9)) == 0:
        quoted = draw(st.integers(0, n_scores))
        header[quoted] = f'"{header[quoted]}"'
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["plain"] * 6 + ["odd score", "odd label", "ragged", "blank"]))
        if kind == "blank":
            lines.append("")
            continue
        fields = [draw(_PLAIN_SCORES) for _ in header]
        fields[label_idx] = draw(st.sampled_from(["0", "1"]))
        if kind == "odd score":
            fields[draw(st.sampled_from([k for k in range(len(header)) if k != label_idx]))] = (
                draw(_ODD_SCORES)
            )
        elif kind == "odd label":
            fields[label_idx] = draw(_ODD_LABELS)
        elif kind == "ragged":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0.5"]
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    ends = [
        draw(st.sampled_from(["\n", "\r\n", "\r"])) if newline == "mixed" else newline
        for _ in lines
    ]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + text).encode("utf-8")


class TestBulkReader:
    """The bulk numpy path against the line reader: same names, same bits
    and dtypes, or the same error."""

    @given(_csv_texts())
    @example(b"label,s\r0,0.5\n1,0.6\n")  # a lone CR ends the header record
    @example(b"label,s\n0,0.5\r1,0.6\n")  # and a data record
    @example(b"label,s\n0,0.5\n\n1,0.6\n")
    @example(b"label,s\n0,0.5\n1,0.6\n\n")
    @example(b"s,t\n0.1,0.2\xff\n")  # not UTF-8 is reported before a bad header
    @example(b"label,s\r\n0,0.5\r\n\r\n1,0.6\r\n")  # a CRLF blank line
    @example(b"label,s\n0,0.5\n1,0.6\r")  # a lone CR at the end of the file
    @example(b"label,s\n0,0.5\n \t\n1,0.6\n")  # a whitespace-only row
    @settings(max_examples=400, deadline=None)
    def test_matches_line_reader(self, content):
        path = "in.csv"
        bulk = _outcome(lambda p, c: read_scores_csv(p, content=c), path, content)
        assert bulk == _outcome(_line_reader, path, content)

    @staticmethod
    def _benchmark_like(n, newline, label_at=0, names=("model_a", "model_b")):
        """A plain file of n rows: the label in column label_at, then a
        17-digit score column and one rounded to 3 decimals, in that order."""
        rng = np.random.default_rng(17)
        labels = (rng.random(n) < 0.3).astype(np.int8)
        cont = 1.0 / (1.0 + np.exp(-rng.standard_normal(n) - labels))
        rounded = np.rint(rng.random(n) * 1e3) / 1e3
        fields = [names[0], names[1]]
        fields.insert(label_at, "label")
        lines = [",".join(fields)]
        for y, a, b in zip(labels.tolist(), cont, rounded):
            fields = [f"{a:.17g}", f"{b:.3f}"]
            fields.insert(label_at, str(y))
            lines.append(",".join(fields))
        text = newline.join(lines) + newline
        return text.encode("utf-8"), labels, cont, rounded

    @pytest.mark.parametrize("newline, label_at, names", [
        pytest.param("\n", 0, ("model_a", "model_b"), id="lf"),
        pytest.param("\r\n", 0, ("model_a", "model_b"), id="crlf"),
        pytest.param("\n", 1, ("model_a", "model_b"), id="lf-label-middle"),
        pytest.param("\r\n", 1, ("model_a", "model_b"), id="crlf-label-middle"),
        pytest.param("\n", 2, ("model_a", "model_b"), id="lf-label-last"),
        pytest.param("\r\n", 2, ("model_a", "model_b"), id="crlf-label-last"),
        # a UTF-8 header over an ASCII body
        pytest.param("\n", 0, ("mod\u00e8le_a", "model_b"), id="lf-utf8-name"),
        pytest.param("\r\n", 2, ("mod\u00e8le_a", "model_b"), id="crlf-utf8-name-label-last"),
    ])
    def test_plain_file_skips_line_reader(self, tmp_path, newline, label_at, names):
        content, labels, cont, rounded = self._benchmark_like(10_000, newline, label_at, names)
        path = tmp_path / "scores.csv"
        path.write_bytes(content)
        with mock.patch.object(
            empirical, "_read_lines", side_effect=AssertionError("line reader called")
        ):
            read_names, columns, read_labels = read_scores_csv(path)
        assert read_names == list(names)
        assert read_labels.dtype == np.int8
        assert read_labels.tobytes() == labels.tobytes()
        for name, expected in zip(names, (cont, rounded)):
            col = columns[name]
            assert col.dtype == np.float64 and col.flags.c_contiguous
            assert col.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("1,oops,0.5", "non-numeric score 'oops' in column 'model_a'"),
            ("1,1-2,0.5", "non-numeric score '1-2' in column 'model_a'"),
            ("1,1e999,0.5", "non-finite score '1e999' in column 'model_a'"),
            ("1,0.5,nan", "non-finite score 'nan' in column 'model_b'"),
            ("1.0,0.5,0.5", "label must be 0 or 1, got '1.0'"),
            ("1,0.5", "expected 3 fields, got 2"),
            ("1,0.5,", "missing value in column 'model_b'"),
            ("", "expected 3 fields, got 0"),
        ],
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_bad_row_keeps_its_line_number(self, tmp_path, newline, bad_row, message):
        content, *_ = self._benchmark_like(10_000, newline)
        lines = content.decode("ascii").split(newline)
        lineno = 6_543
        lines.insert(lineno - 1, bad_row)
        path = tmp_path / "scores.csv"
        path.write_bytes(newline.join(lines).encode("ascii"))
        with pytest.raises(InputError, match=f"^{re.escape(f'{path}:{lineno}: {message}')}$"):
            read_scores_csv(path)



class TestBlockParse:
    """A plain file is parsed in blocks of about _PARSE_ROWS rows into the
    kept columns: the arrays are a whole-body parse's, whatever the rows'
    place among the blocks, and a bad row in any block sends the file to
    the line reader, which names its line."""

    @staticmethod
    def _fixed_width(n, newline, bom=False, final=True):
        """A plain file of n rows of one width, so that each block but the
        last holds exactly _PARSE_ROWS rows; with the same rows' LF text."""
        rng = np.random.default_rng(n)
        labels = (rng.random(n) < 0.3).astype(int)
        scores = rng.random((n, 2))
        rows = [f"{y},{a:.15f},{b:.6f}" for y, (a, b) in zip(labels.tolist(), scores.tolist())]
        text = newline.join(["label,model_a,model_b", *rows]) + (newline if final else "")
        lf = "\n".join(["label,model_a,model_b", *rows, ""])
        return ("\ufeff" * bom + text).encode("utf-8"), lf.encode("ascii")

    @staticmethod
    def _read_in_blocks(content, path="in.csv"):
        """read_scores_csv of content with the line reader switched off,
        and the row count of each block numpy parsed."""
        loadtxt, sizes = np.loadtxt, []

        def counted(*args, **kwargs):
            table = loadtxt(*args, **kwargs)
            sizes.append(len(table))
            return table

        with mock.patch.object(empirical, "_read_lines", side_effect=AssertionError("line reader")), \
                mock.patch("numpy.loadtxt", counted):
            return read_scores_csv(path, content=content), sizes

    @pytest.mark.parametrize("block", [64, empirical._PARSE_ROWS], ids=["block64", "block"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("newline, bom, final", [
        pytest.param("\n", False, True, id="lf"),
        pytest.param("\r\n", False, True, id="crlf"),
        pytest.param("\n", True, True, id="bom"),
        pytest.param("\r\n", True, False, id="crlf-bom-no-final-newline"),
    ])
    def test_blocks_give_the_whole_parse(self, monkeypatch, block, extra, newline, bom, final):
        monkeypatch.setattr(empirical, "_PARSE_ROWS", block)
        n = 2 * block + extra
        content, lf = self._fixed_width(n, newline, bom, final)
        whole = np.loadtxt(io.BytesIO(lf), delimiter=",", skiprows=1)
        (names, columns, labels), sizes = self._read_in_blocks(content)
        assert sizes == [block] * (n // block) + [n % block] * (n % block > 0)
        assert names == ["model_a", "model_b"]
        assert labels.dtype == np.int8 and labels.tobytes() == whole[:, 0].astype(np.int8).tobytes()
        for k, name in enumerate(names, start=1):
            assert columns[name].flags.c_contiguous
            assert columns[name].tobytes() == whole[:, k].tobytes()

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad_row, message", [
        ("1,,0.5", "missing value in column 'model_a'"),
        ("1,0.5,", "missing value in column 'model_b'"),
        ("1,inf,0.5", "non-finite score 'inf' in column 'model_a'"),
        ("1,0.5,0.5,0.5", "expected 3 fields, got 4"),
        ("1,0.5", "expected 3 fields, got 2"),
        ("2,0.5,0.5", "label must be 0 or 1, got '2'"),
    ])
    def test_bad_row_in_any_block_keeps_its_line_number(self, monkeypatch, where, bad_row,
                                                         message):
        monkeypatch.setattr(empirical, "_PARSE_ROWS", 64)
        content, _ = self._fixed_width(3 * 64 + 1, "\n")
        lines = content.decode("ascii").split("\n")
        lineno = {"first": 5, "middle": 64 + 30, "last": 3 * 64 + 2}[where]  # the file's last row
        lines[lineno - 1] = bad_row
        with pytest.raises(InputError, match=f"^{re.escape(f'in.csv:{lineno}: {message}')}$"):
            read_scores_csv("in.csv", content="\n".join(lines).encode("ascii"))

    def test_a_block_of_wider_rows_goes_to_the_line_reader(self, monkeypatch):
        # a whole block of four-field rows parses, but not to the header's width
        monkeypatch.setattr(empirical, "_PARSE_ROWS", 64)
        content, _ = self._fixed_width(3 * 64, "\n")
        lines = content.decode("ascii").split("\n")
        lines[65:129] = [line + ",0.5" for line in lines[65:129]]
        with pytest.raises(InputError, match=r"^in\.csv:66: expected 3 fields, got 4$"):
            read_scores_csv("in.csv", content="\n".join(lines).encode("ascii"))

    @given(_csv_texts(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_small_blocks_match_line_reader(self, content, block):
        # blocks of one to three rows' bytes, so cuts land inside rows of
        # every length and a bad row may sit in any block
        with mock.patch.object(empirical, "_PARSE_ROWS", block):
            bulk = _outcome(lambda p, c: read_scores_csv(p, content=c), "in.csv", content)
        assert bulk == _outcome(_line_reader, "in.csv", content)

class _Picked(Exception):
    """What a pick raises to stop the read once it has the names."""


def _names_picked(content):
    """The score names read_scores_csv hands its pick, with no row parsed."""
    seen = []

    def pick(names):
        seen.append(names)
        raise _Picked

    parsed = AssertionError("a row was parsed")
    with mock.patch.object(empirical, "_read_plain", side_effect=parsed), \
            mock.patch.object(empirical, "_read_lines", side_effect=parsed), \
            pytest.raises(_Picked):
        read_scores_csv("in.csv", content=content, pick=pick)
    return seen[0]


class TestScoreNames:
    """The names read_scores_csv hands its pick, from the header alone, are
    the names the whole read returns; a bad header is its error."""

    @given(_csv_texts())
    @example(b'label,"a\nb"\n0,0.5\n')  # a quoted name across two lines
    @example(b"label,s\r0,0.5\r1,0.6\r")  # lone CR line ends
    @example(b"\xef\xbb\xbf" + b"label,s\n0,0.5\n")
    @settings(max_examples=200, deadline=None)
    def test_names_match_the_reader(self, content):
        try:
            names = read_scores_csv("in.csv", content=content)[0]
        except InputError:
            return
        assert _names_picked(content) == names

    @pytest.mark.parametrize("content, message", [
        (b"label,s\xff\n0,0.1\n1,0.9\n", "in.csv:1: not UTF-8 text"),
        (b"label,s\n0,0.1\n1,0.9\xff\n", "in.csv:3: not UTF-8 text"),
        (b"s,t\n0.1,0.2\n", "in.csv: header must contain a 'label' column"),
        (b"", "in.csv: empty file, expected a header row"),
        (b"label\n0\n1\n", "in.csv: need at least one score column besides 'label'"),
        (b"label,s,s\n0,0.1,0.2\n", "in.csv: duplicate column names in header"),
    ])
    def test_rejections_match_the_reader(self, content, message):
        for read in (_names_picked, lambda c: read_scores_csv("in.csv", content=c)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                read(content)

    def test_unknown_picked_name_is_a_config_error(self):
        # "label" is in the header, but it is no score column
        parsed = AssertionError("a row was parsed")
        with mock.patch.object(empirical, "_read_plain", side_effect=parsed), \
                mock.patch.object(empirical, "_read_lines", side_effect=parsed), \
                pytest.raises(ConfigError,
                              match="^score columns not in the input: nope, label$"):
            read_scores_csv("in.csv", content=b"label,s\n0,0.1\n1,0.9\n",
                            pick=lambda names: ["s", "nope", "label"])

    @pytest.mark.parametrize("content", [
        b"label,a,b\n0,0.1,0.2\n1,0.9,0.8\n",
        b'label,a,b\n0,"0.1",0.2\n1,0.9,0.8\n',
    ], ids=["plain", "quoted"])
    def test_picked_columns_in_their_order(self, content):
        names, columns, labels = read_scores_csv("in.csv", content=content,
                                                 pick=lambda names: ["b", "a"])
        assert names == list(columns) == ["b", "a"]
        assert columns["a"].tolist() == [0.1, 0.9] and columns["b"].tolist() == [0.2, 0.8]
        assert labels.tolist() == [0, 1]

    @pytest.mark.parametrize("content", [
        b"label,a,b\n0,0.1,0.2\n1,0.9,0.8\n",
        b'label,a,b\n0,"0.1",0.2\n1,0.9,0.8\n',
        b"\xef\xbb\xbf" + b"label,a,b\r\n0,0.1,0.2\r\n1,0.9,0.8\r\n",
    ], ids=["plain", "quoted", "bom-crlf"])
    def test_header_checked_once(self, content):
        with mock.patch.object(empirical, "_header", wraps=empirical._header) as header:
            read_scores_csv("in.csv", content=content, pick=lambda names: names[:1])
        assert header.call_count == 1


def test_regexes_need_no_newer_python():
    """pyproject.toml declares Python 3.10: no pattern in the package may use
    a possessive quantifier or an atomic group, which re accepts from 3.11
    on only (on 3.10 they raise re.error when the pattern is compiled)."""
    newer = re.compile(r"[+*?}]\+|\(\?>")
    found = []
    for source in sorted(Path(empirical.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            value = getattr(node, "value", None)
            if isinstance(node, ast.Constant) and isinstance(value, (str, bytes)):
                text = value.decode("latin-1") if isinstance(value, bytes) else value
                if newer.search(text):
                    found.append(f"{source.name}:{node.lineno}")
    assert found == []
