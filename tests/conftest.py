import contextlib
import io
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from hmetric import ingest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def golden4():
    """Four-point dataset used throughout: class-0 scores {0.1, 0.4},
    class-1 scores {0.3, 0.9}, balanced priors."""
    return ingest([0.1, 0.4, 0.3, 0.9], [0, 0, 1, 1])


@pytest.fixture
def separated():
    """Separated interior scores: every class-0 score below every class-1.

    Optimal-mode losses vanish here; calibrated-mode losses do not,
    because the scores are not the extreme probabilities."""
    return ingest([0.05, 0.1, 0.2, 0.7, 0.8, 0.9], [0, 0, 0, 1, 1, 1])


@pytest.fixture
def perfect():
    """The perfect probabilistic classifier: class-0 scored 0, class-1
    scored 1.  Loss is exactly zero in both threshold modes."""
    return ingest([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [0, 0, 0, 1, 1, 1])


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def random_dataset(seed, n=80, calibrated=False):
    """Test-set factory: continuous scores, both classes guaranteed."""
    rng = np.random.default_rng(seed)
    scores = rng.beta(2.0, 2.0, n)
    if calibrated:
        labels = (rng.random(n) < scores).astype(int)
    else:
        labels = (rng.random(n) < 0.4).astype(int)
    labels[0], labels[1] = 0, 1
    return ingest(scores, labels)


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args) -> CliResult:
    """Run hmetric.cli.main(args) in this process: the code of the
    SystemExit it ends in, and what it wrote to stdout and to stderr."""
    from hmetric.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args)
        except SystemExit as exc:
            return CliResult(exc.code, stdout.getvalue(), stderr.getvalue())
    raise AssertionError(f"main({args!r}) returned instead of exiting")
