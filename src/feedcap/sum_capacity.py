"""Sum-rate characterization of the N-sender AWGN multiple access channel
with feedback, plus the numeric probes behind its converse.

The central object is the crossing point phi(P) in [1, N] of the two
capacity expressions

    C1(P, phi) = 1/2 log(1 + N P phi)
    C2(P, phi) = N / (2(N-1)) log(1 + (N - phi) P phi)

whose common value at the root is the feedback sum capacity. phi encodes a
symmetric input correlation rho through phi = 1 + (N-1) rho.

The converse side is covered by evaluators, not proofs: the positive
quadratic root phi*(gamma, x) of the weighted first-order condition, the
weight gamma* that makes phi*(gamma*, P) land back on phi(P), the weighted
combination g = (1-gamma) C1 + gamma C2, Gaussian mutual-information forms
over explicit covariances (read off the output variance and its O(N^2)
leave-one-out Schur complements), and randomized concavity /
dependence-balance probes.

Every rate is in bits: each log is a natural log divided by LN2.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .matrix_core import hermitian_psd, output_variances

LN2 = math.log(2.0)


@dataclass(frozen=True)
class MacParams:
    """Channel configuration: number of senders and per-sender block power."""
    n_senders: int
    power: float

    def __post_init__(self):
        if self.n_senders < 2:
            raise ValueError("n_senders must be >= 2")
        if not math.isfinite(self.power) or self.power < 0:
            raise ValueError("power must be finite and >= 0")


@dataclass(frozen=True)
class PhiSolution:
    """Root of C1 = C2 with the capacity values and implied correlation."""
    phi: float
    rho: float
    c1: float
    c2: float
    residual: float


def c1(params, phi):
    """First capacity expression, 1/2 log(1 + N P phi)."""
    if phi < 0:
        raise ValueError("phi must be >= 0")
    return 0.5 * math.log1p(params.n_senders * params.power * phi) / LN2


def c2(params, phi):
    """Second capacity expression, N/(2(N-1)) log(1 + (N - phi) P phi)."""
    n = params.n_senders
    if not 0.0 <= phi <= n:
        raise ValueError(f"phi must lie in [0, {n}]")
    x = (n - phi) * params.power * phi
    return n / (2.0 * (n - 1)) * math.log1p(x) / LN2


def solve_phi(params):
    """Bisect for the unique phi in [1, N] where C1 and C2 cross.

    C2 - C1 is positive at phi = 1, negative at phi = N, and strictly
    decreasing in between, so plain bisection is safe. It stops once the
    bracket holds two adjacent floats, where the midpoint rounds onto one
    end (52-58 halvings from [1, N]), so no tolerance on phi is set. P = 0
    short-circuits to the analytic limit phi = 1 with zero capacity.
    """
    n, p = params.n_senders, params.power
    if p == 0.0:
        return PhiSolution(phi=1.0, rho=0.0, c1=0.0, c2=0.0, residual=0.0)
    f = lambda phi: c2(params, phi) - c1(params, phi)
    lo, hi = 1.0, float(n)
    if not (f(lo) >= 0.0 and f(hi) < 0.0):
        raise SolverError(f"no sign change on [1, {n}] for N={n}, P={p}")
    while True:
        phi = 0.5 * (lo + hi)
        if phi in (lo, hi):
            break
        if f(phi) >= 0.0:
            lo = phi
        else:
            hi = phi
    v1 = c1(params, phi)
    v2 = c2(params, phi)
    return PhiSolution(phi=phi, rho=(phi - 1.0) / (n - 1),
                       c1=v1, c2=v2, residual=abs(v1 - v2))


def sum_capacity(params):
    """Feedback sum capacity C1(P, phi(P))."""
    return solve_phi(params).c1


def phi_star(n, gamma, x):
    """Positive root of the weighted first-order condition in phi.

    Solves a phi^2 + b phi + c = 0 with
        a = (N + gamma - 1 + gamma N) x
        b = -N (N + gamma - 1) x + 2 gamma
        c = -(N + gamma - 1).
    At x = 0 the quadratic degenerates and the root is
    (N + gamma - 1) / (2 gamma), which requires gamma > 0. For gamma > 1
    the root lies in [(N + gamma - 1)/(2 gamma), N/2), increasing in x.
    """
    if gamma < 0 or x < 0:
        raise ValueError("gamma and x must be >= 0")
    a = (n + gamma - 1.0 + gamma * n) * x
    b = -n * (n + gamma - 1.0) * x + 2.0 * gamma
    c = -(n + gamma - 1.0)
    if a == 0.0:
        if gamma == 0.0:
            raise ValueError("gamma = 0 with x = 0 is degenerate")
        return -c / b
    disc = math.sqrt(b * b - 4.0 * a * c)
    # a > 0 and c < 0 guarantee one positive root; pick the subtraction-free
    # branch of the quadratic formula (-b + disc cancels when b > 0 and
    # 4|ac| << b^2, i.e. for small x)
    if b >= 0.0:
        return 2.0 * c / (-b - disc)
    return (-b + disc) / (2.0 * a)


def gamma_star(params, phi):
    """Weight gamma* for which phi*(gamma*, P) equals the supplied root phi.

    Closed form from solving the first-order condition linearly in gamma:

        gamma* = (N-1)(1 + P phi (N - phi))
                 / [ (N-1)(1 + P phi (N - phi)) + (2 phi - N)(1 + N P phi) ].

    The denominator stays positive for roots phi in [1, N]; a nonpositive
    denominator is reported as a failure rather than returning a negative
    weight.
    """
    n, p = params.n_senders, params.power
    num = (n - 1.0) * (1.0 + p * phi * (n - phi))
    den = num + (2.0 * phi - n) * (1.0 + n * p * phi)
    if den <= 0.0:
        raise SolverError(
            f"no valid weight: denominator {den:.3e} at N={n}, P={p}, phi={phi}")
    g = num / den
    if g < 0.0:
        raise SolverError(f"no valid weight: gamma* = {g:.3e} is negative")
    return g


def g_value(n, gamma, x):
    """Weighted capacity combination (1-gamma) C1 + gamma C2 at phi*(gamma, x).

    gamma = 0 is rejected: without the C2 term the inner maximization over
    phi is unbounded and the quadratic provides no interior optimum.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    ph = phi_star(n, gamma, x)
    params = MacParams(n_senders=n, power=float(x))
    return (1.0 - gamma) * c1(params, ph) + gamma * c2(params, ph)


def g_derivative(n, gamma, x):
    """Closed-form x-derivative of g_value for gamma > 1.

    The envelope derivative evaluates to
        N (gamma - 1) phi*^2 / ((1 + N x phi*) (N - 2 phi*))
    in the convention where the capacities carry no 1/2 and natural logs;
    rescaled here by 1/2 and to bits.
    """
    ph = phi_star(n, gamma, x)
    core = n * (gamma - 1.0) * ph * ph / ((1.0 + n * x * ph) * (n - 2.0 * ph))
    return 0.5 * core / LN2


def g_derivative_check(n, gamma, x):
    """|central finite difference of g_value - closed form| at relative step 1e-6."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    if x <= 0.0:
        raise ValueError("x must be positive")
    h = 1e-6 * max(1.0, abs(x))
    num = (g_value(n, gamma, x + h) - g_value(n, gamma, x - h)) / (2 * h)
    return abs(num - g_derivative(n, gamma, x))


def validate_cov(k):
    """Check a real symmetric PSD covariance and return it as floats; a
    nonzero imaginary part is rejected, not dropped."""
    a, _ = hermitian_psd(k, "covariance")
    if np.any(a.imag):
        raise ValueError("covariance must be real")
    return a.real.copy()


def symmetric_cov(n, x, rho):
    """Exchangeable covariance x [(1 - rho) I + rho J] used by the converse."""
    if not -1.0 / (n - 1) <= rho <= 1.0:
        raise ValueError("rho outside the positive-semidefinite range")
    return x * ((1.0 - rho) * np.eye(n) + rho * np.ones((n, n)))


def gaussian_mutual_info(k):
    """I(X(S); Y) for Y = sum_k X_k + Z with unit-variance noise.

    Equals 1/2 log(1 + sum_ij K_ij).
    """
    return _mutual_info(validate_cov(k))


def gaussian_conditional_mi(k, j):
    """I(X(S minus j); Y | X_j) for the same channel.

    Equals 1/2 log Var(Y | X_j), the Schur complement
    1 + sum_ik K_ik - (sum_i K_ij)^2 / K_jj.
    """
    a = validate_cov(k)
    if not 0 <= j < a.shape[0]:
        raise ValueError("sender index out of range")
    return float(_conditional_mis(a)[j])


# The private forms below take a covariance that validate_cov has already
# accepted, so each probe runs one eigendecomposition per covariance.

def _mutual_info(a):
    # 1 + 1'K1 >= 1 for PSD K, with or without a sender of zero power
    return 0.5 * math.log(1.0 + float(a.sum())) / LN2


def _conditional_mis(a):
    _, loo = output_variances(a)
    return 0.5 * np.log(loo) / LN2


def _c2(a):
    return float(np.sum(_conditional_mis(a))) / (a.shape[0] - 1)


def c2_from_cov(k):
    """C2 evaluated on an explicit covariance: the per-sender conditional
    informations averaged with weight 1/(N-1)."""
    return _c2(validate_cov(k))


def dependence_balance_gap(k):
    """C2(K) - I(X(S); Y); nonnegative for covariances feasible for codes.

    Zero exactly at the symmetric optimizer (x = P, phi = phi(P)); negative
    beyond the root, where the bound rules the covariance out.
    """
    a = validate_cov(k)
    return _c2(a) - _mutual_info(a)


def c2_concavity_probe(k1, k2, t):
    """Concavity margin C2(t K1 + (1-t) K2) - t C2(K1) - (1-t) C2(K2).

    Nonnegative (up to round-off) if C2 is concave along the segment.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    a = validate_cov(k1)
    b = validate_cov(k2)
    if a.shape != b.shape:
        raise ValueError("covariances must share a dimension")
    # a mix of two accepted covariances is PSD by convexity
    return _c2(t * a + (1.0 - t) * b) - t * _c2(a) - (1.0 - t) * _c2(b)
