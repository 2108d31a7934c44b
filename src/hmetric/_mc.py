"""Deterministic chunked Monte Carlo execution.

Work is split into fixed-size chunks, each driven by its own child stream
of the root seed.  Chunk boundaries and per-chunk streams depend only on
(seed, total), never on the worker count, and partial results are
reduced in chunk order, so results are bit-identical whether chunks run
sequentially or on a thread pool.  Chunks and their streams are made as
they start and their results are consumed as they finish, so memory does
not grow with the sample count.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError

MC_CHUNK = 16384


def require_seed(seed) -> int:
    if seed is None:
        raise ConfigError("a seed is required whenever Monte Carlo estimation is active")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def chunk_counts(total: int, chunk: int = MC_CHUNK):
    """The chunk sizes of total draws, lazily: full chunks, then the rest."""
    if total < 2:  # a standard error needs two draws
        raise ConfigError(f"Monte Carlo sample count must be at least 2, got {total}")
    full, rem = divmod(total, chunk)
    return chain(repeat(chunk, full), [rem] if rem else [])


def run_chunks(fn, seed: int, total: int, n_workers: int = 1, chunk: int = MC_CHUNK):
    """Run fn(rng, count) over deterministic chunks; an iterator over the
    results in chunk order.

    Chunk i draws from SeedSequence(seed, spawn_key=(i,)), the i-th child
    that SeedSequence(seed).spawn would give, made when the chunk starts.
    At most n_workers chunks are in flight at once.
    """
    seed = require_seed(seed)
    tasks = ((np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))), count)
             for i, count in enumerate(chunk_counts(total, chunk)))
    if n_workers <= 1:
        return (fn(rng, count) for rng, count in tasks)
    return _in_flight(fn, tasks, n_workers)


def _in_flight(fn, tasks, n_workers: int):
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pending = deque()
        for rng, count in tasks:
            pending.append(pool.submit(fn, rng, count))
            if len(pending) == n_workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


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
