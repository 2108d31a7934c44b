"""Chunked Monte Carlo: per-chunk streams made as chunks start, results
in chunk order, memory flat in the number of chunks."""

import tracemalloc

import numpy as np
import pytest

from hmetric._mc import MC_CHUNK, combine_mean_stderr, run_chunks


def _draws(rng, count):
    v = rng.random(count)
    return float(v.sum()), float(v @ v), count


def _trivial(rng, count):
    return 0.0, 0.0, count


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("total", [2, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7])
def test_chunks_match_spawned_streams(total, n_workers):
    # chunk i draws from the i-th child that SeedSequence(seed).spawn gives
    full, rem = divmod(total, MC_CHUNK)
    counts = [MC_CHUNK] * full + ([rem] if rem else [])
    streams = np.random.SeedSequence(17).spawn(len(counts))
    want = [_draws(np.random.default_rng(s), c) for s, c in zip(streams, counts)]
    assert list(run_chunks(_draws, 17, total, n_workers=n_workers)) == want


def test_memory_flat_in_chunk_count():
    combine_mean_stderr(run_chunks(_trivial, 5, 100, chunk=1))  # first-use allocations
    tracemalloc.start()
    try:
        combine_mean_stderr(run_chunks(_trivial, 5, 20000, chunk=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_workers_keep_few_chunks_in_flight():
    started = []

    def fn(rng, count):
        started.append(count)
        return _trivial(rng, count)

    for consumed, _ in enumerate(run_chunks(fn, 5, 200, n_workers=2, chunk=1), start=1):
        assert len(started) - consumed <= 2
    assert len(started) == 200
