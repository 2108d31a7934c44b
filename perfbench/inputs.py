"""Seeded synthetic inputs for the benchmark workloads.

Every input is a CSV with a ``label`` column (class 1 on 30% of the rows)
and two logistic-of-Gaussian score columns, ``model_a`` and ``model_b``,
that separate the classes by different amounts.  A workload may round
some columns to 3 decimals; the others are written at 17 significant
digits, so nearly every score is distinct.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABEL_RATE = 0.3
SEPARATION = {"model_a": 1.5, "model_b": 0.8}
ROUND_DECIMALS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    rounded: tuple[str, ...]  # columns rounded to ROUND_DECIMALS
    prior_beta: bool          # evaluate under --prior beta


# Why each workload exists is recorded in BENCHMARK.json.  On mixed-1e5,
# model_a has ~1e5 distinct scores and model_b ~1e3, each shared by ~100
# rows, so one column exercises the optimal envelope and the ROC rows at
# their maximum and the other exercises tie-grouping.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed-1e5", 100_000, ("model_b",), False),
        Workload("prior-beta-100", 100, (), True),
    )
}


@dataclass(frozen=True)
class Inputs:
    path: Path
    labels: np.ndarray
    columns: dict[str, np.ndarray]
    program_seed: int
    manifest: dict


def program_seed(seed: int) -> int:
    """The only seed the program sees, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


def draw(n: int, seed: int, rounded: tuple[str, ...]):
    """Labels and score columns, as the CSV will hold them exactly."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    # a fixed class-1 count keeps array sizes, and so time and memory,
    # the same from seed to seed
    labels = np.zeros(n, dtype=np.int8)
    labels[: round(LABEL_RATE * n)] = 1
    rng.shuffle(labels)
    columns = {}
    for name, sep in SEPARATION.items():
        margin = rng.standard_normal(n) + sep * (labels - 0.5)
        scores = 1.0 / (1.0 + np.exp(-margin))
        if name in rounded:
            scores = np.rint(scores * 10.0**ROUND_DECIMALS) / 10.0**ROUND_DECIMALS
        columns[name] = scores
    return labels, columns


def write_csv(path: Path, labels, columns, rounded: tuple[str, ...]):
    """Write the rows; %.17g, and %.3f of k/1e3, both parse back bit-exactly."""
    row = "%d," + ",".join(f"%.{ROUND_DECIMALS}f" if name in rounded else "%.17g"
                           for name in columns)
    body = "\n".join(map(row.__mod__, zip(labels.tolist(), *(c.tolist() for c in columns.values()))))
    path.write_text("label," + ",".join(columns) + "\n" + body + "\n", encoding="ascii")


def build(workload: Workload, seed: int, out_dir: Path, n: int | None = None) -> Inputs:
    """Generate one workload's CSV under out_dir and describe it.

    n overrides the workload's row count (the self-test runs tiny sizes).
    """
    n = workload.n if n is None else n
    labels, columns = draw(n, seed, workload.rounded)
    path = out_dir / f"{workload.name}-{seed}.csv"
    write_csv(path, labels, columns, workload.rounded)
    data = path.read_bytes()
    manifest = {
        "file": path.name,
        "n": n,
        "n1": int(labels.sum()),
        "n_distinct": {name: int(np.unique(c).size) for name, c in columns.items()},
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    return Inputs(path, labels, columns, program_seed(seed), manifest)
