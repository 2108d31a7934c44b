"""Deterministic chunked Monte Carlo execution.

Work is split into fixed-size chunks, each driven by its own child stream
spawned from the root seed.  Chunk boundaries and per-chunk streams depend
only on (seed, total), never on the worker count, and partial results are
reduced in chunk order, so results are bit-identical whether chunks run
sequentially or on a thread pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

MC_CHUNK = 16384


def require_seed(seed) -> int:
    if seed is None:
        raise ConfigError("a seed is required whenever Monte Carlo estimation is active")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def chunk_counts(total: int, chunk: int = MC_CHUNK) -> list[int]:
    if total < 2:  # a standard error needs two draws
        raise ConfigError(f"Monte Carlo sample count must be at least 2, got {total}")
    full, rem = divmod(total, chunk)
    return [chunk] * full + ([rem] if rem else [])


def run_chunks(fn, seed: int, total: int, n_workers: int = 1, chunk: int = MC_CHUNK) -> list:
    """Run fn(rng, count) over deterministic chunks; results in chunk order."""
    counts = chunk_counts(total, chunk)
    streams = np.random.SeedSequence(require_seed(seed)).spawn(len(counts))
    rngs = [np.random.default_rng(s) for s in streams]
    if n_workers <= 1 or len(counts) == 1:
        return [fn(rng, cnt) for rng, cnt in zip(rngs, counts)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, rngs, counts))


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
