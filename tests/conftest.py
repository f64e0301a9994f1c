"""Frozen reference values for the test suite, and the noiseless stand-in
for the Monte Carlo draws.

The values were computed once with an independent 50-digit
bisection/series script and pinned here so the library under test never
generates its own expected values.
"""
import numpy as np

from feedcap.montecarlo import chunk_draws


def noiseless_draws(seed, chunk, msg_shape, noise_shape, noise_std):
    """chunk_draws with the channel noise zeroed. The messages are drawn
    before the noise, so they are the ones the noisy run uses."""
    u, _ = chunk_draws(seed, chunk, msg_shape, noise_shape, noise_std)
    return u, np.zeros(noise_shape)


# unique root of the capacity crossing in [1, N], keyed by (N, P)
PHI = {
    (2, 0.1): 1.04751664063872372169579748011,
    (2, 1.0): 1.31110781746598189993028147679,
    (2, 2.0): 1.44504186791262880857780512899,
    (3, 1.0): 1.60897827347881256875,
    (3, 2.0): 1.84503311104059428702679712644,
    (3, 5.0): 2.12868461778401076689515707898,
    (4, 1.0): 1.87914932030716195693,
    (4, 3.0): 2.36184481672035840332289657196,
    (5, 1.0): 2.12033261523794973831,
    (5, 20.0): 3.45772311741010162021026351406,
    (6, 1.0): 2.33546957440395916997,
}

# sum capacity in bits at the root, keyed by (N, P)
SUMCAP_BITS = {
    (2, 1.0): 0.928436217123451865610743686822,
    (3, 1.0): 1.27136858645991223346,
    (4, 1.0): 1.54513856580926128151,
    (5, 1.0): 1.76812986131816431958,
    (6, 1.0): 1.95406142348288383857,
}

# optimal converse weight at (N, P) = (2, 1)
GAMMA_STAR_2_1 = 0.457831809379113923659155232091

# beta_for_power(2, 1) = (1 + 2 phi)^{1/4}
BETA_2_1 = 1.37956947121613027070186012044

# entropy rate of a unit white Gaussian source, bits
HALF_LOG2_2PIE = 2.04709558518064110270
