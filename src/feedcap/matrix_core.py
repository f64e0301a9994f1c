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
    PSD matrix, or of each of a stack (..., d, d). Asymmetry and negative
    eigenvalues pass up to 1e-10 max(1, max |m_ij|) of each matrix; past
    that a ValueError names the argument `name`, as name[i] in a stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    tol = 1e-10 * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    ah = np.swapaxes(a, -1, -2).conj()
    bad = np.abs(a - ah).max(axis=(-2, -1)) > tol
    if np.any(bad):
        raise ValueError(f"{flagged(bad, name)} must be Hermitian")
    h = (a + ah) / 2
    eig_min = np.linalg.eigvalsh(h)[..., 0]
    bad = eig_min < -tol
    if np.any(bad):
        raise ValueError(f"{flagged(bad, name)} must be positive-"
                         f"semidefinite (min eig {float(eig_min[bad][0])})")
    return h, float_or_stack(eig_min)


def flagged(bad, name):
    """`name`, or name[i] for the first matrix i flagged in a stack."""
    i = [int(v) for v in np.argwhere(bad)[0]]
    return f"{name}{i}" if i else name


def float_or_stack(x):
    """One matrix's value (0-d) as a Python float; a stack's as an array."""
    return float(x) if np.ndim(x) == 0 else x


def output_variances(k):
    """s = Var(Y) = 1 + Re(1'K1) for Y = sum_j X_j + Z with unit noise and
    input covariance k, and the Schur complements Var(Y | X_j) =
    s - |(K1)_j|^2 / K_jj: O(N^2) from the row sums K1, per matrix of a
    stack (..., N, N). Raises ValueError if some K_jj or Var(Y | X_j) <= 0."""
    rows = k.sum(axis=-1)
    s = 1.0 + rows.sum(axis=-1).real
    d = k.diagonal(axis1=-2, axis2=-1).real
    if np.any(d <= 0.0):
        raise ValueError("K_jj must be positive to condition on sender j")
    loo = s[..., None] - np.abs(rows) ** 2 / d
    if not np.all(loo > 0.0):
        raise ValueError("degenerate conditional variance")
    return float_or_stack(s), loo


def dft_matrix(n):
    """Unitary n-point DFT matrix Q with Q_jk = exp(-2*pi*i*j*k/n)/sqrt(n).

    Indices j, k run from 0; Q is symmetric and Q @ Q.conj().T = I. The
    phase takes j*k mod n, exact in integers, so no digits are lost to it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * (j * k % n) / n) / np.sqrt(n)


def circulant_from_eigs(eigs):
    """Circulant matrix Q diag(eigs) Q' with Q = dft_matrix(n): eigenvalue
    k sits on the k-th DFT bin, and entry (j, k) is c[(j - k) mod n] with
    c = fft(eigs)/n, so each row is a cyclic shift of the previous one.
    """
    lam = np.asarray(eigs, dtype=complex).ravel()
    if lam.size == 0:
        raise ValueError("eigenvalue list must be non-empty")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues contain NaN or Inf")
    c = np.fft.fft(lam) / lam.size
    idx = np.arange(lam.size)
    return c[(idx[:, None] - idx) % lam.size]


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
