"""Deterministic chunked Monte Carlo over the prior draws.

Work is split into fixed-size chunks, each driven by its own child stream
of the root seed.  Chunk boundaries and per-chunk streams depend only on
(seed, total), and partial results are reduced in chunk order, so a
result depends on nothing but the seed and the draw count.  Chunks and
their streams are made as they start and their results are consumed as
they finish, so memory does not grow with the sample count.  Callers
validate the seed and the count (EvalConfig.validate) before they get
here.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

MC_CHUNK = 16384


def chunk_counts(total: int, chunk: int = MC_CHUNK):
    """The chunk sizes of total draws, lazily: full chunks, then the rest."""
    full, rem = divmod(total, chunk)
    return chain(repeat(chunk, full), [rem] if rem else [])


def run_chunks(fn, seed: int, total: int, chunk: int = MC_CHUNK):
    """Run fn(rng, count) over deterministic chunks; an iterator over the
    results in chunk order.

    Chunk i draws from SeedSequence(seed, spawn_key=(i,)), the i-th child
    that SeedSequence(seed).spawn would give, made when the chunk starts.
    """
    return (fn(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))), count)
            for i, count in enumerate(chunk_counts(total, chunk)))


def combine_mean_stderr(parts) -> tuple[float, float]:
    """Combine per-chunk (sum, sum_of_squares, count) into mean and the
    standard error of the mean; reduction order is fixed by the caller."""
    total_s = 0.0
    total_ss = 0.0
    total_n = 0
    for s, ss, n in parts:
        total_s += s
        total_ss += ss
        total_n += n
    mean = total_s / total_n
    var = max(total_ss - total_n * mean * mean, 0.0) / (total_n - 1)
    return mean, float(np.sqrt(var / total_n))
