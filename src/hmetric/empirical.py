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

read_scores_csv parses a plain file (an ASCII body, labels exactly 0 or
1, rows ending in LF or CRLF, no blank or ragged row, every value a
finite number: what numpy.savetxt and pandas write) in one numpy pass.
Any other file, and any file with a malformed row, goes through the line
reader, which reports the row by its line number, as it does for a
tabulated weight file.  Both store only the picked columns.
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
from .errors import ConfigError, DegenerateDataError, InputError

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
    byte-order mark; a non-UTF-8 byte is an InputError naming its line.
    ASCII bytes hold no such byte, so only other bytes are decoded first."""
    try:
        if not content.isascii():
            content.decode("utf-8-sig")  # whole, so that the error can name its line
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{lineno}: not UTF-8 text") from None
    return csv.reader(io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig", newline=""))


def read_scores_csv(path: str | Path, *, content: bytes | None = None, pick=None):
    """Read a scored test set from CSV.

    Expected layout: header row with a 'label' column (values 0/1) and one
    or more numeric score columns.  Rows with missing, non-numeric or
    non-finite values are rejected with the offending line number.  The
    text is UTF-8, with or without a byte-order mark.  content, when given,
    is the file's bytes, already read (path then only names the input in
    messages); the CLI parses and fingerprints the same bytes this way.

    pick, when given, gets the score column names from the header (read
    first, from the 8 KiB that hold it) and returns the names to keep, in
    order (one the header lacks is a ConfigError); every field of every
    row is still checked.

    Returns (column_names, columns, labels) where columns maps each kept
    score column name to a float array.
    """
    path = Path(path)
    if content is None:
        content = read_bytes(path)
    header = _header(path, _first_record(path, content))
    names = [h for h in header if h != "label"]
    kept = names if pick is None else pick(names)
    missing = [name for name in kept if name not in names]
    if missing:
        raise ConfigError(f"score columns not in the input: {', '.join(missing)}")
    parsed = _read_plain(content, header, kept)
    return parsed if parsed is not None else _read_lines(path, content, header, kept)


def _first_record(path: Path, content: bytes) -> list[str] | None:
    """The first csv record of a file's bytes, or None; only the 8 KiB
    chunks holding it are decoded (a non-UTF-8 byte there names its line)."""
    stream = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig", newline="")
    try:
        return next(csv.reader(stream), None)
    except UnicodeDecodeError:
        return next(csv_records(path, content), None)  # names the line


def _read_plain(content: bytes, header: list[str], kept: list[str]):
    """Parse a plain file in one numpy pass; None sends it to the line reader.

    Plain means: a valid header on the first line, with no quote or lone
    CR; an ASCII body whose CRs each end a CRLF; a label field of exactly
    0 or 1 in every row (so no blank row); and a table that numpy parses
    with one value per column, each a finite float.  numpy reads a score
    field as Python's float reads it stripped: both skip the same
    whitespace and round correctly, so the two readers give the same
    bits.  Non-ASCII bytes, other label spellings, lone CRs, and empty,
    blank or ragged rows all go to the line reader.  The checks scan the
    bytes without copying them, and numpy reads the whole text past its
    first line from a BytesIO, which shares the bytes, so the body is
    never copied; only the kept columns are copied from its table.
    """
    # the checks start past a byte-order mark; numpy skips it with the header
    start = 3 if content.startswith(codecs.BOM_UTF8) else 0
    end = content.find(b"\n", start)  # the header's newline
    head = content[start:end]
    if end <= start or end + 1 == len(content) or b'"' in head or b"\r" in head[:-1]:
        return None
    if np.frombuffer(content, np.uint8, offset=end).max() >= 0x80:
        return None  # a non-ASCII body, found by numpy's max over the bytes in place
    if content.find(b"\r", end) >= 0 and content.count(b"\r", end) != content.count(b"\r\n", end):
        return None  # a lone CR
    label_idx = header.index("label")
    # one search, from the header's newline, for a newline (not the file's
    # last byte) that starts no row with a 0 or 1 label: the literal prefix
    # keeps the scan fast, and the lookahead keeps no state per row
    label_end = rb"," if label_idx + 1 < len(header) else rb"(?:\r?\n|\Z)"
    row = rb"[^,\r\n]*," * label_idx + rb"[01]" + label_end
    if re.compile(rb"\n(?!" + row + rb")(?!\Z)").search(content, end):
        return None
    try:
        table = np.loadtxt(io.BytesIO(content), delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != len(header) or not np.isfinite(table).all():
        return None
    columns = {name: table[:, header.index(name)].copy() for name in kept}
    return list(columns), columns, table[:, label_idx].astype(np.int8)


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


def _read_lines(path: Path, content: bytes, header: list[str], kept: list[str], noun="score"):
    """The line reader: record by record, with the csv module.  It is the
    only code that reports a malformed file, and a malformed row by its
    line number.  Of the checked header's columns, a 'label' one holds 0
    or 1 and each other one a finite noun; only those in kept are stored."""
    reader = csv_records(path, content)
    next(reader)  # the header, checked already
    label_idx = header.index("label") if "label" in header else None
    value_idx = [k for k in range(len(header)) if k != label_idx]
    cols: dict[int, list[float]] = {header.index(name): [] for name in kept}
    labels: list[int] = []
    lineno = 1
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
            if k in cols:
                cols[k].append(number)
    if lineno == 1:
        raise InputError(f"{path}: no data rows")
    columns = {header[k]: np.asarray(values, dtype=float) for k, values in cols.items()}
    return list(columns), columns, np.asarray(labels, dtype=np.int8)


def load_tabulated_weight(path: str | Path) -> TabulatedWeight:
    """A tabulated weight from a CSV with header ``c,density``, read as score rows are."""
    path = Path(path)
    content = read_bytes(path)
    header = _weight_header(path, _first_record(path, content))
    _, columns, _ = _read_lines(path, content, header, header, "value")
    return TabulatedWeight(columns["c"], columns["density"])
