"""Dense complex matrix utilities: validation, output variances, DFT and
circulant construction, spectral radius, and a JSON encoder.

All operations are pure: inputs are validated, never mutated, and results
are fresh arrays. Matrices are numpy complex128 throughout.
"""
import numpy as np


def as_matrix(m, square=False):
    """Validate and convert input to a complex128 2-D array.

    Rejects NaN/Inf entries so they never reach a solver, and optionally
    enforces squareness.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a.copy()


def hermitian_psd(m, name):
    """(Hermitian part as complex128, smallest eigenvalue) of a Hermitian
    PSD matrix. Asymmetry and negative eigenvalues pass up to 1e-10
    max(1, max |m_ij|); past that a ValueError names the argument `name`."""
    a = as_matrix(m, square=True)
    tol = 1e-10 * max(1.0, np.abs(a).max())
    if np.max(np.abs(a - a.conj().T)) > tol:
        raise ValueError(f"{name} must be Hermitian")
    h = (a + a.conj().T) / 2
    eig_min = float(np.linalg.eigvalsh(h)[0])
    if eig_min < -tol:
        raise ValueError(
            f"{name} must be positive-semidefinite (min eig {eig_min})")
    return h, eig_min


def output_variances(k):
    """s = Var(Y) = 1 + Re(1'K1) for Y = sum_j X_j + Z with unit noise and
    input covariance k, and the Schur complements Var(Y | X_j) =
    s - |(K1)_j|^2 / K_jj: O(N^2) from the row sums K1. Raises ValueError
    if some K_jj or some Var(Y | X_j) is <= 0."""
    rows = k.sum(axis=1)
    s = 1.0 + float(rows.sum().real)
    d = k.diagonal().real
    if np.any(d <= 0.0):
        raise ValueError("K_jj must be positive to condition on sender j")
    loo = s - np.abs(rows) ** 2 / d
    if not np.all(loo > 0.0):
        raise ValueError("degenerate conditional variance")
    return s, loo


def dft_matrix(n):
    """Unitary n-point DFT matrix Q with Q_jk = exp(-2*pi*i*j*k/n)/sqrt(n).

    Indices j, k run from 0; Q is symmetric and Q @ Q.conj().T = I.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


def circulant_from_eigs(eigs):
    """Circulant matrix with the given eigenvalue list.

    Builds Q diag(eigs) Q' with Q the unitary DFT matrix, so eigenvalue k
    sits on the k-th DFT frequency bin. Each row of the result is a cyclic
    shift of the previous one.
    """
    lam = np.asarray(eigs, dtype=complex).ravel()
    if lam.size == 0:
        raise ValueError("eigenvalue list must be non-empty")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues contain NaN or Inf")
    q = dft_matrix(lam.size)
    return q @ np.diag(lam) @ q.conj().T


def spectral_radius(m):
    """Largest eigenvalue magnitude of a square matrix."""
    a = as_matrix(m, square=True)
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def matrix_to_json(m):
    """Serialize a matrix to {rows, cols, re, im} with row-major entries."""
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }
