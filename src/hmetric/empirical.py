"""Labeled score containers, the tie-grouped table of a column, and priors.

Scores are probability-like values in [0, 1] (enforced or normalized at
ingestion); labels are binary.  The CDF convention is fixed here once for
the whole package: F(c) is the fraction of scores less than or equal to c,
which makes F right-continuous with jumps at the observed scores.  For
continuous scores a strictly-less reading would differ only on a
measure-zero set.  Each column is sorted once, into its distinct scores
with the cumulative class counts at each (EmpiricalCdfPair); every metric
reads that table, and the optimal rule its ROC hull, which depends on
neither the priors nor the cost weight.  The hull's monotone chain walks
only the corners of the ROC path (a class-0 step followed by a class-1
step) and the two ends, which one numpy mask picks: no other point can be
a hull vertex, so the chain over the corners is the exact hull.  A second
mask, by comparisons alone, drops the corners that lie on or above the
segment joining their neighbours.

read_scores_csv parses a plain file (every data field bare digits, '.',
'e', 'E', '+' or '-', labels exactly 0 or 1, rows ending in LF or CRLF, no
blank row, every value finite: what numpy.savetxt and pandas write) in
one numpy pass.  Any other file, and any file with a malformed row, goes
through the line reader, which reports the row by its line number, as it
does for a tabulated weight file.  score_names reads the header alone.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import re
from functools import cached_property
from pathlib import Path

import numpy as np

from ._record import Record
from .config import NORMALIZATIONS
from .distributions import _BLOCK, TabulatedWeight
from .errors import DegenerateDataError, InputError

__all__ = [
    "LabeledScores",
    "ClassPriors",
    "EmpiricalCdfPair",
    "ingest",
    "empirical_priors",
    "empirical_cdfs",
    "read_scores_csv",
    "load_tabulated_weight",
]


class LabeledScores(Record):
    """Immutable test-set scores with parallel binary labels."""

    __slots__ = ("scores", "labels", "normalization", "__dict__")  # __dict__: for table
    _defaults = {"normalization": "reject"}

    @property
    def n(self) -> int:
        return self.scores.size

    @property
    def n0(self) -> int:
        return self.table.n0

    @property
    def n1(self) -> int:
        return self.table.n1

    @cached_property
    def table(self) -> EmpiricalCdfPair:
        """The tie-grouped table of these scores, built by one sort; the
        sort's index and sorted copy are dropped as soon as they are read."""
        order = np.argsort(self.scores)
        ranked = self.scores[order]
        ones = self.labels[order]
        del order
        last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
        u = ranked[last]
        del ranked
        cum1 = np.cumsum(ones, dtype=np.int64)[last]
        cum0 = last + 1 - cum1
        for arr in (u, cum0, cum1):
            arr.setflags(write=False)
        return EmpiricalCdfPair(u=u, cum0=cum0, cum1=cum1)


class ClassPriors(Record):
    """Strictly interior class proportions; pi1 is derived, so the pair
    sums to one exactly."""

    __slots__ = ("pi0",)

    def __post_init__(self):
        if not (np.isfinite(self.pi0) and 0.0 < self.pi0 < 1.0):
            raise InputError(f"pi0 must lie strictly inside (0, 1), got {self.pi0}")

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0


class EmpiricalCdfPair(Record):
    """Tie-grouped table of one score column: the distinct pooled scores u
    in ascending order with the counts cum0 and cum1 of class-0 and
    class-1 scores at or below each.  The right-continuous class CDFs are
    F0(c) = cum0[k] / n0 at the last u[k] <= c, and zero below u[0]."""

    __slots__ = ("u", "cum0", "cum1", "__dict__")  # __dict__: for hull

    def __repr__(self):  # without the arrays, which may be long
        return f"{type(self).__qualname__}()"

    @property
    def n0(self) -> int:
        return int(self.cum0[-1])

    @property
    def n1(self) -> int:
        return int(self.cum1[-1])

    @property
    def count0(self) -> np.ndarray:
        """Class-0 scores equal to each u[k]."""
        return np.diff(self.cum0, prepend=0)

    @property
    def count1(self) -> np.ndarray:
        """Class-1 scores equal to each u[k]."""
        return np.diff(self.cum1, prepend=0)

    @property
    def sorted0(self) -> np.ndarray:
        """Class-0 scores in ascending order."""
        return np.repeat(self.u, self.count0)

    @property
    def sorted1(self) -> np.ndarray:
        """Class-1 scores in ascending order."""
        return np.repeat(self.u, self.count1)

    def blocks(self, size: int = _BLOCK):
        """(u, cum0, cum1, count0, count1) of each run of size groups, in
        order, so that a sum over the groups holds one run's temporaries."""
        for lo in range(0, self.u.size, size):
            run = slice(lo, lo + size)
            cum0, cum1 = self.cum0[run], self.cum1[run]
            yield (self.u[run], cum0, cum1,
                   np.diff(cum0, prepend=self.cum0[lo - 1] if lo else 0),
                   np.diff(cum1, prepend=self.cum1[lo - 1] if lo else 0))

    def _cdf(self, cum, c):
        k = np.searchsorted(self.u, c, side="right")
        out = np.where(k > 0, cum[k - 1], 0) / cum[-1]
        return float(out) if np.isscalar(c) else out

    def f0(self, c):
        """Fraction of class-0 scores <= c."""
        return self._cdf(self.cum0, c)

    def f1(self, c):
        """Fraction of class-1 scores <= c."""
        return self._cdf(self.cum1, c)

    @cached_property
    def hull(self) -> tuple[np.ndarray, np.ndarray]:
        """(F0, F1) at the vertices of the lower convex chain through the
        ROC points (0, 0) and (cum0[k], cum1[k]), from (0, 0) to (1, 1),
        collinear points dropped.

        Only a corner of the ROC path can be a vertex: an endpoint, or a
        point entered by a step that adds class-0 scores and left by one
        that adds class-1 scores.  A point entered by a purely vertical
        step lies directly above its predecessor, and one left by a purely
        horizontal step lies on or above the segment from its predecessor
        to its successor, so neither is a vertex, and dropping them leaves
        the hull as it is.  One boolean mask picks the corners.  A second
        drops each corner whose step to the next corner is at least as
        wide and at most as tall as its step from the previous one: it
        lies on or above the segment joining those two, so it is no
        vertex either, and the test compares counts without multiplying
        them.  The monotone chain then runs over the rest, in their
        lexicographic order, turning on exact integer counts."""
        corner = np.append((self.count0[:-1] > 0) & (self.count1[1:] > 0), True)
        xs = np.append(0, self.cum0[corner])
        ys = np.append(0, self.cum1[corner])
        dx, dy = np.diff(xs), np.diff(ys)
        keep = np.ones(xs.size, dtype=bool)
        keep[1:-1] = (dx[1:] < dx[:-1]) | (dy[1:] > dy[:-1])
        xs, ys = xs[keep].tolist(), ys[keep].tolist()
        chain = [0]
        for k in range(1, len(xs)):
            while len(chain) >= 2:
                i, j = chain[-2], chain[-1]
                if (xs[j] - xs[i]) * (ys[k] - ys[i]) > (ys[j] - ys[i]) * (xs[k] - xs[i]):
                    break
                chain.pop()
            chain.append(k)
        f0, f1 = np.asarray(xs)[chain] / self.n0, np.asarray(ys)[chain] / self.n1
        for arr in (f0, f1):
            arr.setflags(write=False)
        return f0, f1


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ingest(scores, labels, normalization: str = "reject") -> LabeledScores:
    """Validate raw scores and labels into a LabeledScores container.

    normalization:
        reject   -- scores must already lie in [0, 1]
        minmax   -- affine map of the observed range onto [0, 1]
                    (a constant score vector maps to all 0.5)
        logistic -- standard sigmoid, for real-valued margins

    Raises InputError for structural problems.  Single-class label vectors
    are accepted here (CDF-only use); metric entry points reject them.

    Under reject, a float array that is read-only and owns its memory is
    shared, not copied: whoever made it read-only has handed it over.  A
    writeable array or a view is copied, so that no one can write to the
    container's scores.
    """
    if normalization not in NORMALIZATIONS:
        raise InputError(
            f"unknown normalization {normalization!r}; expected one of {NORMALIZATIONS}"
        )
    raw, scores = scores, np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise InputError("scores and labels must be one-dimensional")
    if scores.size == 0:
        raise InputError("scores must be nonempty")
    if scores.size != labels.size:
        raise InputError(
            f"scores and labels must be parallel, got lengths {scores.size} and {labels.size}"
        )
    if np.any(~np.isfinite(scores)):
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise InputError(f"non-finite score at position {bad}")
    if not np.all(np.isin(labels, (0, 1))):
        bad = int(np.flatnonzero(~np.isin(labels, (0, 1)))[0])
        raise InputError(f"labels must be 0 or 1; offending value at position {bad}")
    labels = labels.astype(np.int8)  # a copy, whatever the caller passed

    if normalization == "minmax":
        lo, hi = float(scores.min()), float(scores.max())
        if hi > lo:
            scores = (scores - lo) / (hi - lo)
        else:
            scores = np.full_like(scores, 0.5)
    elif normalization == "logistic":
        scores = _sigmoid(scores)
    else:
        if np.any(scores < 0.0) or np.any(scores > 1.0):
            bad = int(np.flatnonzero((scores < 0.0) | (scores > 1.0))[0])
            raise InputError(
                f"score {scores[bad]} at position {bad} outside [0, 1]; "
                "pass normalization='minmax' or 'logistic' to rescale"
            )
        # minmax and logistic return fresh arrays; np.asarray may have kept
        # the caller's buffer, shared only when read-only and its own
        if scores.base is not None or (scores is raw and scores.flags.writeable):
            scores = scores.copy()

    scores.setflags(write=False)
    labels.setflags(write=False)
    return LabeledScores(scores=scores, labels=labels, normalization=normalization)


def _require_both_classes(data: LabeledScores):
    if data.n0 == 0 or data.n1 == 0:
        raise DegenerateDataError(
            f"both classes required, got {data.n0} class-0 and {data.n1} class-1 rows"
        )


def empirical_priors(data: LabeledScores) -> ClassPriors:
    """Class proportions of the test set: pi0 = n0 / (n0 + n1)."""
    _require_both_classes(data)
    return ClassPriors(pi0=data.n0 / data.n)


def empirical_cdfs(data: LabeledScores) -> EmpiricalCdfPair:
    """Plug-in class-conditional CDF pair: the column's tie-grouped table,
    shared by every metric of the column (requires both classes)."""
    _require_both_classes(data)
    return data.table


def read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file; an unreadable file is an InputError."""
    path = Path(path)
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def csv_records(path: str | Path, content: bytes):
    """The csv records of a file's bytes, read as UTF-8 with or without a
    byte-order mark; a non-UTF-8 byte is an InputError naming its line."""
    try:
        content.decode("utf-8-sig")  # whole, so that the error can name its line
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{lineno}: not UTF-8 text") from None
    return csv.reader(io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig", newline=""))


def read_scores_csv(path: str | Path, *, content: bytes | None = None):
    """Read a scored test set from CSV.

    Expected layout: header row with a 'label' column (values 0/1) and one
    or more numeric score columns.  Rows with missing, non-numeric or
    non-finite values are rejected with the offending line number.  The
    text is UTF-8, with or without a byte-order mark.  content, when given,
    is the file's bytes, already read (path then only names the input in
    messages); the CLI parses and fingerprints the same bytes this way.

    Returns (column_names, columns, labels) where columns maps each score
    column name to a float array.
    """
    path = Path(path)
    if content is None:
        content = read_bytes(path)
    parsed = _read_plain(path, content)
    return parsed if parsed is not None else _read_lines(path, content)


def _read_plain(path: Path, content: bytes):
    """Parse a plain file in one numpy pass; None sends it to the line reader.

    Plain means: a valid header on the first line, with no quote or lone
    CR; then rows of bare digits, '.', 'e', 'E', '+' and '-', one field per
    column, the label exactly 0 or 1, each row ending in LF or CRLF (the
    last may end the file instead); and every value a finite float.  So
    whitespace, quotes, empty fields, nan, blank lines and ragged rows all
    go to the line reader.  numpy and Python's float both round correctly,
    so the two readers give the same bits.  numpy reads the whole text
    past its first line from a BytesIO, which shares the bytes, so the
    body is never copied.
    """
    text = content.removeprefix(codecs.BOM_UTF8)
    end = text.find(b"\n")  # the header's newline
    head = text[:end]
    if end <= 0 or end + 1 == len(text) or b'"' in head or b"\r" in head[:-1]:
        return None
    try:
        header = _header(path, next(csv.reader([head.decode("utf-8")])))
    except (UnicodeDecodeError, InputError):
        return None  # the line reader reports it, after any non-UTF-8 byte
    label_idx = header.index("label")
    fields = [rb"[0-9.eE+\-]+"] * len(header)
    fields[label_idx] = rb"[01]"
    # one search, from the header's newline, for a newline whose row breaks
    # the rule: the literal prefix keeps the scan fast, and unlike a repeated
    # group it keeps no state per row (a possessive one needs Python 3.11)
    row = b",".join(fields) + rb"(?:\r?\n|\Z)"
    if re.compile(rb"\n(?!\Z)(?!" + row + rb")").search(text, end):
        return None
    try:
        table = np.loadtxt(io.BytesIO(text), delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError:
        return None
    rows = text.count(b"\n", end + 1) + (not text.endswith(b"\n"))
    if table.shape != (rows, len(header)) or not np.isfinite(table).all():
        return None
    columns = {name: table[:, k].copy() for k, name in enumerate(header) if k != label_idx}
    return list(columns), columns, table[:, label_idx].astype(np.int8)


def score_names(path: str | Path, content: bytes) -> list[str]:
    """The score column names read_scores_csv(path, content=content) returns,
    from the header: no row is parsed, and only the 8 KiB chunks holding it decoded."""
    path = Path(path)
    stream = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig", newline="")
    try:
        record = next(csv.reader(stream), None)
    except UnicodeDecodeError:
        record = next(csv_records(path, content), None)  # names the line
    return [h for h in _header(path, record) if h != "label"]


def _header(path: Path, record: list[str] | None) -> list[str]:
    if record is None:
        raise InputError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in record]
    if "label" not in header:
        raise InputError(f"{path}: header must contain a 'label' column")
    if header.count("label") == len(header):
        raise InputError(f"{path}: need at least one score column besides 'label'")
    if len(set(header)) != len(header):
        raise InputError(f"{path}: duplicate column names in header")
    return header


def _weight_header(path: Path, record: list[str] | None) -> list[str]:
    if record is None or [h.strip() for h in record] != ["c", "density"]:
        raise InputError(f"{path}: tabulated weight CSV must have header 'c,density'")
    return ["c", "density"]


def _read_lines(path: Path, content: bytes, header_rule=_header, noun: str = "score"):
    """The line reader: record by record, with the csv module.  It is the
    only code that reports a malformed file, and a malformed row by its
    line number.  header_rule checks the header record and returns its
    names; a 'label' column holds 0 or 1, each other one a finite noun."""
    reader = csv_records(path, content)
    header = header_rule(path, next(reader, None))
    label_idx = header.index("label") if "label" in header else None
    value_idx = [k for k in range(len(header)) if k != label_idx]
    cols: list[list[float]] = [[] for _ in header]
    labels: list[int] = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise InputError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        for name, value in zip(header, row):
            if value.strip() == "":
                raise InputError(f"{path}:{lineno}: missing value in column {name!r}")
        if label_idx is not None:
            raw_label = row[label_idx].strip()
            if raw_label not in ("0", "1"):
                raise InputError(
                    f"{path}:{lineno}: label must be 0 or 1, got {raw_label!r}"
                )
            labels.append(int(raw_label))
        for k in value_idx:
            value = row[k].strip()
            try:
                number = float(value)
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: non-numeric {noun} {value!r} in column {header[k]!r}"
                ) from None
            if not math.isfinite(number):
                raise InputError(
                    f"{path}:{lineno}: non-finite {noun} {value!r} in column {header[k]!r}"
                )
            cols[k].append(number)
    if not cols[value_idx[0]]:
        raise InputError(f"{path}: no data rows")
    columns = {header[k]: np.asarray(cols[k], dtype=float) for k in value_idx}
    return list(columns), columns, np.asarray(labels, dtype=np.int8)


def load_tabulated_weight(path: str | Path) -> TabulatedWeight:
    """A tabulated weight from a CSV with header ``c,density``, read as score rows are."""
    _, columns, _ = _read_lines(Path(path), read_bytes(path), _weight_header, "value")
    return TabulatedWeight(columns["c"], columns["density"])
