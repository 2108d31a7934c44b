"""The deterministic chunk layout of the prior draws.

Draws are split into fixed-size chunks, each driven by its own child
stream of the root seed.  Chunk boundaries and per-chunk streams depend
only on (seed, total), and the caller adds its chunk sums in chunk order,
so a result depends on nothing but the seed and the draw count.  Each
chunk's stream is made when the caller asks for it, so memory does not
grow with the sample count.  The seed and the count come from an
EvalConfig, which checked them when it was built.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

MC_CHUNK = 16384


def chunk_streams(seed: int, total: int, chunk: int = MC_CHUNK):
    """(rng, count) of each chunk of total draws, lazily and in chunk order:
    full chunks, then the rest.

    Chunk i draws from SeedSequence(seed, spawn_key=(i,)), the i-th child
    that SeedSequence(seed).spawn would give.
    """
    full, rem = divmod(total, chunk)
    for i, count in enumerate(chain(repeat(chunk, full), [rem] if rem else [])):
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))), count
