"""Discrete algebraic Riccati and Lyapunov solvers for diagonal unstable
systems driven through an all-ones input column.

The Riccati equation solved here is the estimation form

    K = A K A' - A K B (1 + B' K B)^{-1} (A K B)'

whose unique positive-definite solution is the stationary covariance of the
feedback code. Two independent routes are provided. The information form
runs the recursion on M = K^{-1}, where it is the linear Stein recursion
M <- A^{-H} (M + B B') A^{-1} driven by the stable A^{-1}. The closed form
is a circulant construction for the symmetric system (equal gains beta,
phases at the n-th roots of unity). It carries a geometric eigenvalue
ladder on the DFT bins:

    lambda_1 = (beta^{2n} - 1) / n,   lambda_k = lambda_{k-1} / beta^2.

Cross-identities (the output variance 1 + B'KB = prod beta_j^2 and its
leave-one-out variant) are exposed as a verification record.

No linear recursion T(X) = F X F' + Q is stepped here: one doubling kernel
serves the information-form Riccati solution, the stationary Lyapunov
solution and the exact covariances at a horizon, in O(N^3) per doubling.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .matrix_core import (as_matrix, circulant_from_eigs, hermitian_psd,
                          output_variances, spectral_radius)

# doubling solves stop once a doubling changes the sum by less than this
# share of it (Frobenius norms)
DOUBLING_RTOL = 1e-15
DALE_MAX_DOUBLINGS = 64


@dataclass(frozen=True)
class MacSystem:
    """Symmetric code system: A = beta * diag(n-th roots of unity), B = ones."""
    n: int
    beta: float
    A: np.ndarray
    B: np.ndarray

    @property
    def betas(self):
        return (self.beta,) * self.n

    @property
    def phases(self):
        return tuple(np.exp(2j * np.pi * np.arange(self.n) / self.n))

    @property
    def a_diag(self):
        return np.diag(self.A)


def symmetric_system(n, beta):
    """Symmetric system with equal gains beta and phases at the n-th roots
    of unity.

    The diagonal entries are distinct, so (A, B) is detectable through the
    scalar output sum. beta must exceed 1 (beta = 1 carries zero rate), and
    beta^{2n}, the top of the Riccati eigenvalue ladder, must be a finite
    float64; NaN and Inf fail both conditions.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    if not (beta > 1.0 and 2 * n * math.log2(beta) < 1024):
        raise ValueError(
            "beta must exceed 1 (beta = 1 carries zero rate) and beta^(2n) "
            f"must be finite in float64; got n={n}, beta={beta}")
    w = np.exp(2j * np.pi * np.arange(n) / n)
    A = np.diag(beta * w)
    B = np.ones((n, 1), dtype=complex)
    return MacSystem(n=n, beta=float(beta), A=A, B=B)


@dataclass(frozen=True)
class DareSolution:
    """Positive-definite Riccati solution with solver metadata."""
    G: np.ndarray
    iterations: int
    residual: float


def riccati_residual(K, A, B):
    """Frobenius residual of K against one application of the Riccati map.

    This is the `residual` of DareSolution and of the `dare` payload. It is
    absolute, and the map subtracts two terms of size
    beta^2 |K|, so round-off alone leaves a floor of about
    1e-16 beta^2 |K|: `dare --n 1 --beta 3e5` reports 326657 against the
    exact G = beta^2 - 1 = 9e10, which is that noise, not an error in G.
    """
    return float(np.linalg.norm(K - _riccati_map(K, A, B)))


def _riccati_map(K, A, B):
    s = 1.0 + (B.conj().T @ K @ B).real.item()
    akb = A @ K @ B
    out = A @ K @ A.conj().T - (akb @ akb.conj().T) / s
    # re-symmetrize each application to suppress round-off drift
    return (out + out.conj().T) / 2


def dare_iterate(sys, k0):
    """Solve the Riccati equation by doubling its information form.

    For K positive definite,

        K - K B (1 + B'K B)^{-1} B'K = (K^{-1} + B B')^{-1},

    so one Riccati step maps M = K^{-1} to A^{-H} (M + B B') A^{-1}: the
    linear recursion T(M) = f M f' + q with f = A^{-H}, q = f B B' f',
    driven by the stable A^{-1}. The doubling kernel gives its runs
    T^m(M_0) = S_m + f^m M_0 f'^m, so 2^k Riccati steps cost k doublings.
    They stop once a doubling changes M by less than DOUBLING_RTOL of it.
    The limit is M = sum_{t>=1} A^{-Ht} B B' A^{-t} and G = M^{-1}; this
    route never uses the DFT ladder of the closed form.

    Converges to the unique positive-definite fixed point from any
    positive-definite start when every |a_j| > 1. Zero is also a fixed
    point of the recursion (there is no process noise to re-excite a
    collapsed covariance), and a singular start can never leave its own
    range; singular seeds k0 are therefore lifted to k0 + I, which has no
    effect on the limit.

    Args:
        sys: MacSystem (or any object with fields A, B, n, beta).
        k0: Hermitian positive-semidefinite start.

    Returns:
        DareSolution with the fixed point, the number of doublings taken as
        `iterations` (they cover 2^iterations Riccati steps) and the
        Riccati residual.

    Raises:
        SolverError: if DALE_MAX_DOUBLINGS doublings do not converge, M is
            singular or G or its residual is not finite in float64, or G's
            Riccati residual exceeds 1e-8 of |G|.
    """
    A, B = sys.A, sys.B
    k0, eig_min = hermitian_psd(k0, "k0")
    if k0.shape[0] != sys.n:
        raise ValueError("k0 dimension does not match the system")
    if eig_min <= 1e-12 * max(1.0, np.abs(k0).max()):
        k0 = k0 + np.eye(sys.n)
    m0 = np.linalg.inv(k0)
    f = np.linalg.inv(A).conj().T
    fb = f @ B
    where = f"(n={sys.n}, beta={sys.beta})"
    # overflow is caught by the finite check below instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        prev = m0
        for doubled, (_, P, S, _, _) in enumerate(
                _doublings(f, fb @ fb.conj().T)):
            M = S + _congruence(P, m0)
            if np.linalg.norm(M - prev) <= DOUBLING_RTOL * np.linalg.norm(M):
                break
            if doubled == DALE_MAX_DOUBLINGS:
                raise SolverError(f"Riccati doubling did not converge in "
                                  f"{doubled} doublings {where}")
            prev = M
        try:
            G = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise SolverError(
                f"Riccati information form is singular in float64 {where}"
            ) from None
        G = (G + G.conj().T) / 2
        residual = riccati_residual(G, A, B)
        size = np.linalg.norm(G)
    if not (math.isfinite(size) and math.isfinite(residual)):
        raise SolverError("Riccati iteration overflows float64: G or its "
                          f"residual is not finite {where}")
    # inverting M amplifies its round-off by cond(M), beta^(2(n-1)) on the
    # symmetric system, and the residual itself cancels to about
    # eps beta^2 |G|; past either, G cannot be shown to be the fixed point
    if residual > 1e-8 * size:
        raise SolverError(
            "Riccati information form fails its fixed-point check in "
            f"float64: residual {residual:.3e} against |G| = {size:.3e} "
            f"{where}")
    return DareSolution(G=G, iterations=doubled, residual=residual)


def dare_circulant(n, beta):
    """Closed-form circulant Riccati solution for the symmetric system.

    The solution is Q diag(lambda) Q' with Q the n-point DFT matrix and the
    geometric ladder lambda_k = lambda_1 / beta^{2k}, lambda_1 =
    (beta^{2n} - 1)/n. Every row sum equals lambda_1, so K B = lambda_1 B.
    It is formed from log1p(beta - 1) and expm1, which keep their digits
    where beta^{2n} - 1 cancels (7.5e-10 of G lost at N = 2, P = 1e-9).

    Raises:
        SolverError: if G or its Riccati residual overflows float64.
    """
    sys = symmetric_system(n, beta)
    log_beta = np.log1p(beta - 1.0)
    # the constructor bounds beta^{2n}; G and its residual need more
    # headroom (about beta^{2n+2}), so overflow is caught here instead
    with np.errstate(over="ignore", invalid="ignore"):
        lam1 = np.expm1(2 * n * log_beta) / n
        G = circulant_from_eigs(lam1 * np.exp(-2.0 * log_beta * np.arange(n)))
        G = (G + G.conj().T) / 2
        residual = riccati_residual(G, sys.A, sys.B)
    if not (np.all(np.isfinite(G)) and math.isfinite(residual)):
        raise SolverError(
            "Riccati closed form overflows float64: G or its residual is "
            f"not finite (n={n}, beta={beta})")
    return DareSolution(G=G, iterations=0, residual=residual)


def _congruence(p, x):
    """sym(p x p'): the congruence, symmetrized so round-off cannot build
    up an anti-Hermitian part."""
    y = p @ x @ p.conj().T
    return (y + y.conj().T) / 2


def _doublings(f, q, x0=None):
    """Square-and-accumulate doubling of T(X) = f X f' + q.

    Yields (m, P, S, U, dS) for runs of m = 1, 2, 4, ... steps, where
    P = f^m, S = T^m(0) = sum_{t<m} f^t q f'^t, dS is the term the last
    doubling added to S (q itself at m = 1) and, when a start x0 is given,
    U = sum_{t<m} T^t(x0) (None otherwise). A doubling costs O(N^3):

        S_2m = S_m + P_m S_m P_m',   U_2m = U_m + P_m U_m P_m' + m S_m,
        P_2m = P_m P_m.

    A run of m steps maps X to S_m + P_m X P_m', so runs compose without
    stepping: T^m(X) = S_m + P_m X P_m'.
    """
    m, P, S, U, dS = 1, f, q, x0, q
    while True:
        yield m, P, S, U, dS
        dS = _congruence(P, S)
        if U is not None:
            U = U + _congruence(P, U) + m * S
        S = S + dS
        P = P @ P
        m *= 2


def _trajectory_sums(f, q, x0, n_steps):
    """(K_n, K_1 + ... + K_n) for K_1 = x0 and K_i = f K_{i-1} f' + q, in
    O(N^3 log n): square-and-multiply over the bits of n - 1.

    The accumulated run of m steps holds V = T^m(x0) and U = sum_{t<m}
    T^t(x0); a doubled run of M steps is applied on top of it as
    V <- S_M + P_M V P_M' and U <- U_M + P_M U P_M' + m S_M.
    """
    m, V, U = 0, x0, np.zeros_like(x0)
    rest = n_steps - 1
    for M, P, S, U_M, _ in _doublings(f, q, x0):
        if rest & 1:
            V, U = S + _congruence(P, V), U_M + _congruence(P, U) + m * S
            m += M
        rest >>= 1
        if not rest:
            return V, U + V


def dale_solve(f, q):
    """Solve the discrete Lyapunov equation K = f K f' + q by squared-Smith
    doubling.

    K = sum_t f^t q f'^t; each doubling squares f and adds the next block
    of terms, so 2^k terms cost k doublings. Stops once a doubling adds
    less than DOUBLING_RTOL of K (Frobenius norms). Requires
    spectral_radius(f) < 1; DALE_MAX_DOUBLINGS caps the number of doublings.
    """
    f = as_matrix(f, square=True)
    q, _ = hermitian_psd(q, "q")
    rad = spectral_radius(f)
    if rad >= 1.0:
        raise SolverError(f"Lyapunov solve requires a stable f; "
                          f"spectral radius is {rad:.6f}")
    for doubled, (_, _, S, _, dS) in enumerate(_doublings(f, q)):
        if np.linalg.norm(dS) <= DOUBLING_RTOL * np.linalg.norm(S):
            return S
        if doubled == DALE_MAX_DOUBLINGS:
            break
    raise SolverError(f"Lyapunov doubling did not converge in {doubled} "
                      f"doublings (size {len(f)}, spectral radius {rad:.6f})")


@dataclass(frozen=True)
class RiclemCheck:
    """Residuals of the two Riccati sum identities."""
    residual_a: float
    residual_b: float


def riclem_verify(sol, sys):
    """Check the sum identities satisfied by the Riccati solution: the
    output variance and the conditional output variances at G.

    (a) Var(Y) = 1 + B'GB = prod_j beta_j^2.
    (b) Var(Y | X_m) = Var(Y) - |(GB)_m|^2 / G_mm = prod_{j != m} beta_j^2.
        For Hermitian G this Schur complement equals the row form
        1 + B_m'GB_m - |sigma_m - G_mm|^2 / G_mm, with sigma_m the m-th row
        sum and B_m the all-ones column with entry m zeroed.

    Both hold for unequal betas. Returns the absolute residuals; each
    should be at machine level for a valid solution.
    """
    s, loo = output_variances(sol.G)
    beta2 = np.asarray(sys.betas, dtype=float) ** 2
    prod_all = float(np.prod(beta2))
    res_b = float(np.max(np.abs(loo - prod_all / beta2)))
    return RiclemCheck(residual_a=abs(s - prod_all), residual_b=res_b)
