"""Discrete algebraic Riccati and Lyapunov solvers for diagonal unstable
systems driven through an all-ones input column.

The Riccati equation solved here is the estimation form

    K = A K A' - A K B (1 + B' K B)^{-1} (A K B)'

whose unique positive-definite solution is the stationary covariance of the
feedback code. Two independent routes are provided. The Cauchy route
takes the limit of the information-form recursion on M = K^{-1}, a Cauchy
matrix in diag(A), and inverts it by its explicit formula. The closed form
is a circulant construction for the symmetric system (equal gains beta,
phases at the n-th roots of unity). It carries a geometric eigenvalue
ladder on the DFT bins:

    lambda_1 = (beta^{2n} - 1) / n,   lambda_k = lambda_{k-1} / beta^2.

Cross-identities (the output variance 1 + B'KB = prod beta_j^2 and its
leave-one-out variant) are exposed as a verification record.

No linear recursion T(X) = F X F' + Q is stepped here: the Lyapunov
solution is a doubling, O(N^3) per doubling (the code's covariances are
closed forms on the DFT bins, in mac_code).
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
    # O(N^2): A K scales row j of K by a_j, A K A' then column l by a_l*
    a = np.diag(A)
    if np.any(A != np.diag(a)):
        raise ValueError("the Riccati map requires a diagonal A")
    s = 1.0 + (B.conj().T @ K @ B).real.item()
    ak = a[:, None] * K
    akb = ak @ B
    out = ak * a.conj() - (akb @ akb.conj().T) / s
    # re-symmetrize each application to suppress round-off drift
    return (out + out.conj().T) / 2


def dare_iterate(sys, k0):
    """Solve the Riccati equation by the explicit inverse of its Cauchy limit.

    For K positive definite one Riccati step maps M = K^{-1} to
    A^{-H} (M + B B') A^{-1}, a linear recursion driven by the stable
    A^{-1}. From every positive-definite start it reaches
    M_jk = 1/(conj(a_j) a_k - 1), a = diag(A), which factors as
    M = C diag(1/a) with the Cauchy matrix C_jk = 1/(x_j - y_k), x = conj(a)
    and y = 1/a. So G = diag(a) C^{-1}, and C^{-1} has a closed form
    (Schechter, 1959) with D_jk = x_j - y_k:

        (C^{-1})_ij = -u_i v_j / D_ji,
        u_i = prod_k (-D_ki) / prod_{k != i} (y_i - y_k),
        v_j = prod_k D_jk / prod_{k != j} (x_j - x_k).

    Every factor is a difference of the data, so G keeps the digits that
    inverting M (condition number beta^(2(n-1))) would lose. Only the
    diagonal differences D_jj = (|a_j|^2 - 1)/a_j cancel; they are formed
    from the betas as expm1(2 log1p(beta_j - 1))/a_j. u and v are products
    of ratios, which stay near the size of G. Nothing is iterated, and this
    route never uses the DFT ladder of the closed form.

    Args:
        sys: MacSystem (or any object with fields A, B, n, beta, betas),
            A diagonal with every |a_j| = beta_j > 1.
        k0: Hermitian positive-semidefinite start. The limit does not
            depend on it, so it is only checked.

    Returns:
        DareSolution with the fixed point, `iterations` 0 (as for the
        closed form) and the Riccati residual.

    Raises:
        SolverError: if G or its residual is not finite in float64, or G's
            Riccati residual exceeds 1e-8 of |G|.
    """
    A, B = sys.A, sys.B
    a = np.diag(A)
    if np.any(A != np.diag(a)):
        raise ValueError("dare_iterate requires a diagonal A")
    k0, _ = hermitian_psd(k0, "k0")
    if k0.shape[0] != sys.n:
        raise ValueError("k0 dimension does not match the system")
    x, y = a.conj(), 1.0 / a
    where = f"(n={sys.n}, beta={sys.beta})"
    # overflow and a zero difference are caught by the finite check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        D = x[:, None] - y
        np.fill_diagonal(D, np.expm1(
            2.0 * np.log1p(np.asarray(sys.betas, dtype=float) - 1.0)) / a)
        # column products: dy[k, i] = y_k - y_i, dx[k, j] = x_j - x_k
        dy = y[:, None] - y
        dx = x - x[:, None]
        np.fill_diagonal(dy, -1.0)
        np.fill_diagonal(dx, 1.0)
        u = np.prod(D / dy, axis=0)
        v = np.prod(D.T / dx, axis=0)
        G = (a * u)[:, None] * (v / -D.T)
        G = (G + G.conj().T) / 2
        residual = riccati_residual(G, A, B)
        size = np.linalg.norm(G)
    if not (math.isfinite(size) and math.isfinite(residual)):
        raise SolverError("Riccati iteration overflows float64: G or its "
                          f"residual is not finite {where}")
    # the residual cancels to about eps beta^2 |G|; past 1e-8 |G| it cannot
    # show that G is the fixed point
    if residual > 1e-8 * size:
        raise SolverError(
            "Riccati Cauchy inverse fails its fixed-point check in float64: "
            f"residual {residual:.3e} against |G| = {size:.3e} {where}")
    return DareSolution(G=G, iterations=0, residual=residual)


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
    up an anti-Hermitian part. A 1-D p stands for diag(p)."""
    y = p[:, None] * x * p.conj() if p.ndim == 1 else p @ x @ p.conj().T
    return (y + y.conj().T) / 2


def _doublings(f, q):
    """Square-and-accumulate doubling of T(X) = f X f' + q.

    Yields (m, P, S, dS) for runs of m = 1, 2, 4, ... steps, where
    P = f^m, S = T^m(0) = sum_{t<m} f^t q f'^t and dS is the term the last
    doubling added to S (q itself at m = 1). A doubling costs O(N^3):

        S_2m = S_m + P_m S_m P_m',   P_2m = P_m P_m.

    A run of m steps maps X to S_m + P_m X P_m', so runs compose without
    stepping: T^m(X) = S_m + P_m X P_m'. A 1-D f stands for diag(f).
    """
    m, P, S, dS = 1, f, q, q
    while True:
        yield m, P, S, dS
        dS = _congruence(P, S)
        S = S + dS
        P = P * P if P.ndim == 1 else P @ P
        m *= 2


def dale_solve(f, q):
    """Solve the discrete Lyapunov equation K = f K f' + q by squared-Smith
    doubling.

    K = sum_t f^t q f'^t; each doubling squares f and adds the next block
    of terms, so 2^k terms cost k doublings. Returns K once a doubling adds
    less than DOUBLING_RTOL of K (Frobenius norms) and |f^m|_F < 1, which
    shows rho(f) < 1 with no eigensolve; else the SolverError names the
    size and the radius. DALE_MAX_DOUBLINGS caps the number of doublings.
    """
    f = as_matrix(f, square=True)
    q, _ = hermitian_psd(q, "q")
    # an unstable f overflows f^m, and with it K: caught as a non-finite |K|
    with np.errstate(over="ignore", invalid="ignore"):
        for doubled, (_, P, S, dS) in enumerate(_doublings(f, q)):
            size = np.linalg.norm(S)
            if (np.linalg.norm(dS) <= DOUBLING_RTOL * size
                    and np.linalg.norm(P) < 1.0):
                return S
            if doubled == DALE_MAX_DOUBLINGS or not np.isfinite(size):
                break
    rad = spectral_radius(f)
    if rad >= 1.0:
        raise SolverError(f"Lyapunov solve requires a stable f; size "
                          f"{len(f)}, spectral radius is {rad:.6f}")
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
