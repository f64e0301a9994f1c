"""Counter-based random streams and chunking shared by the Monte Carlo
simulators (mac_code.simulate and p2p_gaussian.sk_recursion_simulate).

Trials are split into fixed chunks of CHUNK trials. Chunk k draws from one
Philox generator keyed by the 128-bit value (seed, k): the low word is the
run seed, the high word the chunk index. A chunk draws its messages first and
then its noise, so a report depends only on the seed and the trial count,
never on the thread count or on the order in which chunks run.
Both simulators read each trial's error off the final state they step.
"""
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

RNG_ALGORITHM = "philox4x64 keyed by (seed, 1024-trial chunk)"
CHUNK = 1024


def check_seed(seed):
    """Reject seeds that do not fit the low 64-bit word of the stream key."""
    if seed < 0 or int(seed) >> 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def chunk_draws(seed, chunk, msg_shape, noise_shape, noise_std):
    """Uniform(0, 1) messages, then N(0, noise_std^2) noise, for one chunk."""
    key = (int(seed) & ((1 << 64) - 1)) | (int(chunk) << 64)
    g = np.random.Generator(np.random.Philox(key=key))
    return g.random(size=msg_shape), g.normal(0.0, noise_std, size=noise_shape)


def map_chunks(run, trials, threads=1):
    """[run(k, count) for each chunk k of trials], in chunk order.

    With threads > 1 the chunks run on a thread pool; the stepping is numpy
    work that releases the interpreter lock. The result list keeps chunk
    order, so sums taken over it do not depend on the thread count.
    """
    jobs = [(k, min(CHUNK, trials - k * CHUNK))
            for k in range(math.ceil(trials / CHUNK))]
    if threads and threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            return list(pool.map(lambda job: run(*job), jobs))
    return [run(k, count) for k, count in jobs]

