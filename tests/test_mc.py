"""Chunked Monte Carlo: per-chunk streams made as chunks are asked for,
in chunk order, memory flat in the number of chunks."""

import tracemalloc

import numpy as np
import pytest

from hmetric._mc import MC_CHUNK, chunk_streams


def _draws(rng, count):
    v = rng.random(count)
    return float(v.sum()), float(v @ v), count


@pytest.mark.parametrize("total", [2, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7])
def test_chunks_match_spawned_streams(total):
    # chunk i draws from the i-th child that SeedSequence(seed).spawn gives
    full, rem = divmod(total, MC_CHUNK)
    counts = [MC_CHUNK] * full + ([rem] if rem else [])
    streams = np.random.SeedSequence(17).spawn(len(counts))
    want = [_draws(np.random.default_rng(s), c) for s, c in zip(streams, counts)]
    assert [_draws(rng, count) for rng, count in chunk_streams(17, total)] == want


def test_memory_flat_in_chunk_count():
    sum(count for _, count in chunk_streams(5, 100, chunk=1))  # first-use allocations
    tracemalloc.start()
    try:
        sum(count for _, count in chunk_streams(5, 20000, chunk=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
