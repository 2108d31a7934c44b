"""Independent checks of the program's outputs.

Every reference here is the benchmark's own code: the AUC by a rank sum,
calibrated H from ``scipy.special.betainc``, optimal H from a ROC convex
hull (qhull), and the distributed-prior H from a replay of the seeded
prior draws.  Each check returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from jsonschema import ValidationError, validate
from scipy.spatial import ConvexHull
from scipy.special import betainc

# Relative tolerance against the references.  The program evaluates the
# same closed forms with its own incomplete beta (documented to ~1e-12)
# and sums in another order, so agreement is far tighter than this.
REL_TOL = 1e-9
# The standard error is a difference of large sums and loses digits to
# cancellation, so it gets a looser tolerance.
STDERR_REL_TOL = 1e-6

# Prior replay constants: Beta(2, 2) over pi0, drawn in chunks of 16,384
# from SeedSequence(seed).spawn, clipped into the open interval.
PRIOR_SHAPES = (2.0, 2.0)
PRIOR_CHUNK = 16384
PRIOR_CLIP = (np.finfo(float).tiny, 1.0 - 1e-16)

# The program's default number of prior draws, which the CLI does not expose.
PRIOR_DRAWS = 10_000
CURVE_GRID = 4096


def mismatch(label, got, want, tol=REL_TOL) -> list[str]:
    if isinstance(got, (int, float)) and abs(got - want) <= tol * abs(want):
        return []
    return [f"{label}: got {got!r}, reference {want!r}"]


def split(labels, scores):
    return scores[labels == 0], scores[labels == 1]


def rank_sum_auc(s0, s1) -> float:
    """Mann-Whitney AUC from average ranks of the pooled scores."""
    n0, n1 = s0.size, s1.size
    _, inverse, counts = np.unique(np.concatenate([s0, s1]), return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = upper - (counts - 1) / 2.0
    r1 = float(np.sum(avg_rank[inverse[n0:]]))
    return (r1 - n1 * (n1 + 1) / 2.0) / (n0 * n1)


def _priors(s0, s1):
    pi0 = s0.size / (s0.size + s1.size)
    return pi0, 1.0 - pi0


def _default_shapes(pi0, pi1):
    return 1.0 + pi1, 1.0 + pi0


def _reference_loss(pi0, pi1, a, b):
    m0 = a / (a + b) * betainc(a + 1.0, b, pi1)
    m1 = b / (a + b) * (1.0 - betainc(a, b + 1.0, pi1))
    return pi0 * m0 + pi1 * m1


def calibrated_h(s0, s1) -> tuple[float, float, float]:
    """(h, loss, reference) under the default weight and calibrated rule."""
    pi0, pi1 = _priors(s0, s1)
    a, b = _default_shapes(pi0, pi1)
    m0 = a / (a + b) * betainc(a + 1.0, b, s0)
    m1 = b / (a + b) * (1.0 - betainc(a, b + 1.0, s1))
    loss = float(pi0 * np.mean(m0) + pi1 * np.mean(m1))
    ref = float(_reference_loss(pi0, pi1, a, b))
    return 1.0 - loss / ref, loss, ref


def roc_hull(s0, s1) -> np.ndarray:
    """Vertices of the lower-right hull of the (F0, F1) points, from
    (0, 0) to the first vertex with F0 = 1, in order of rising cost."""
    u = np.unique(np.concatenate([s0, s1]))
    x = np.searchsorted(np.sort(s0), u, side="right") / s0.size
    y = np.searchsorted(np.sort(s1), u, side="right") / s1.size
    pts = np.column_stack([np.concatenate([[0.0], x, [1.0]]), np.concatenate([[0.0], y, [1.0]])])
    ring = ConvexHull(pts).vertices  # counter-clockwise
    start = int(np.flatnonzero(ring == 0)[0])
    chain = []
    for i in range(ring.size):
        v = pts[ring[(start + i) % ring.size]]
        chain.append(v)
        if v[0] == 1.0:
            break
    return np.asarray(chain)


def _hull_breaks(s0, s1):
    """Hull vertices and the costs where the best vertex changes."""
    pi0, pi1 = _priors(s0, s1)
    hull = roc_hull(s0, s1)
    dx, dy = np.diff(hull[:, 0]), np.diff(hull[:, 1])
    return hull, np.concatenate([[0.0], pi1 * dy / (pi0 * dx + pi1 * dy), [1.0]])


def envelope_segments(s0, s1) -> int:
    """Pieces of the optimal-rule loss envelope with positive cost width."""
    return int(np.count_nonzero(np.diff(_hull_breaks(s0, s1)[1]) > 0.0))


def optimal_h(s0, s1) -> tuple[float, float, float]:
    """(h, loss, reference) under the default weight and optimal rule.

    Hull vertex k is the best threshold for costs between the breakpoints
    of its two edges; on that interval the loss is affine in the cost, so
    its expectation needs only the weight's CDF and first partial moment.
    """
    pi0, pi1 = _priors(s0, s1)
    a, b = _default_shapes(pi0, pi1)
    hull, breaks = _hull_breaks(s0, s1)
    intercept = pi1 * hull[:, 1]
    slope = pi0 * (1.0 - hull[:, 0]) - intercept
    d_cdf = np.diff(betainc(a, b, breaks))
    d_m0 = np.diff(a / (a + b) * betainc(a + 1.0, b, breaks))
    loss = float(np.sum(intercept * d_cdf + slope * d_m0))
    ref = float(_reference_loss(pi0, pi1, a, b))
    return 1.0 - loss / ref, loss, ref


def prior_replay_h(s0, s1, seed: int, draws: int) -> tuple[float, float]:
    """(h, stderr) of the distributed-prior H under calibrated thresholds,
    replaying the program's seeded draws of pi0 chunk by chunk."""
    n_chunks = -(-draws // PRIOR_CHUNK)
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    total = total_sq = 0.0
    for k, stream in enumerate(streams):
        count = min(PRIOR_CHUNK, draws - k * PRIOR_CHUNK)
        pi0 = np.clip(np.random.default_rng(stream).beta(*PRIOR_SHAPES, size=count), *PRIOR_CLIP)
        pi1 = 1.0 - pi0
        a, b = 2.0 - pi0, 1.0 + pi0
        col_a, col_b = a[:, None], b[:, None]
        m0 = np.mean(betainc(col_a + 1.0, col_b, s0[None, :]), axis=1) * a / (a + b)
        m1 = np.mean(1.0 - betainc(col_a, col_b + 1.0, s1[None, :]), axis=1) * b / (a + b)
        ratio = (pi0 * m0 + pi1 * m1) / _reference_loss(pi0, pi1, a, b)
        total += float(np.sum(ratio))
        total_sq += float(np.sum(ratio * ratio))
    mean = total / draws
    var = max(total_sq - draws * mean * mean, 0.0) / (draws - 1)
    return 1.0 - mean, float(np.sqrt(var / draws))


class Checker:
    """Checks reports and curve files against one generated input."""

    def __init__(self, inputs, schema: dict):
        self.inputs = inputs
        self.schema = schema
        self._refs: dict = {}

    def _ref(self, key, fn, *args):
        if key not in self._refs:
            self._refs[key] = fn(*args)
        return self._refs[key]

    def report(self, report: dict, mode: str, prior_seed: int | None = None,
               draws: int | None = None) -> list[str]:
        """Check a parsed evaluate/compare report.

        mode is the threshold rule the report was made with; prior_seed
        and draws are given when it was made under --prior beta.
        """
        try:
            validate(report, self.schema)
        except ValidationError as exc:
            return [f"schema: {exc.message}"]
        if set(report["columns"]) != set(self.inputs.columns):
            return [f"columns {sorted(report['columns'])}, expected {sorted(self.inputs.columns)}"]
        errors = []
        n = self.inputs.labels.size
        if report["provenance"]["n_rows"] != n:
            errors.append(f"n_rows {report['provenance']['n_rows']} != {n}")
        for name, col in report["columns"].items():
            s0, s1 = split(self.inputs.labels, self.inputs.columns[name])
            pi0, pi1 = _priors(s0, s1)
            h, auc = col["h"], col["auc"]
            errors += mismatch(f"{name}: h identity", h["h"],
                               1.0 - h["loss"] / h["reference_loss"])
            errors += mismatch(f"{name}: equivalent_loss identity", auc["equivalent_loss"],
                               2.0 * pi0 * pi1 * (1.0 - auc["auc"]))
            errors += mismatch(f"{name}: auc", auc["auc"],
                               self._ref(("auc", name), rank_sum_auc, s0, s1))
            if prior_seed is not None:
                ref_h, ref_se = self._ref(("prior", name), prior_replay_h, s0, s1, prior_seed, draws)
                errors += mismatch(f"{name}: prior h", h["h"], ref_h)
                errors += mismatch(f"{name}: prior stderr", h["mc_stderr"], ref_se, STDERR_REL_TOL)
            else:
                fn = calibrated_h if mode == "calibrated" else optimal_h
                ref_h, ref_loss, ref_ref = self._ref((mode, name), fn, s0, s1)
                errors += mismatch(f"{name}: {mode} h", h["h"], ref_h)
                errors += mismatch(f"{name}: {mode} loss", h["loss"], ref_loss)
                errors += mismatch(f"{name}: reference loss", h["reference_loss"], ref_ref)
            for entry in col["screening"]:
                if sum(entry["confusion"].values()) != n:
                    errors.append(f"{name}: screening counts do not sum to {n}")
        if "comparison" in report:
            cols = report["columns"]
            by_h = sorted(cols, key=lambda c: (-cols[c]["h"]["h"], c))
            if report["comparison"]["ranking_by_h"] != by_h:
                errors.append("comparison: ranking_by_h does not follow h")
        return errors

    def report_file(self, path: Path, mode: str, **kw) -> list[str]:
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"unreadable report {path.name}: {exc}"]
        return self.report(report, mode, **kw)

    def curves_dir(self, out_dir: Path, column: str) -> list[str]:
        """Row counts: one ROC row per distinct score, one curve row per
        grid point, each file with a header."""
        expected = {
            "roc.csv": self.inputs.manifest["n_distinct"][column],
            "loss_curve.csv": CURVE_GRID,
            "weight.csv": CURVE_GRID,
        }
        errors = []
        for fname, rows in expected.items():
            try:
                data = (out_dir / fname).read_bytes()
            except OSError as exc:
                errors.append(f"{fname}: {exc}")
                continue
            got = data.count(b"\n") - 1
            if got != rows:
                errors.append(f"{fname}: {got} rows, expected {rows}")
        return errors
