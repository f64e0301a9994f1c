import numpy as np
import pytest

from feedcap.matrix_core import (as_matrix, circulant_from_eigs, dft_matrix,
                                 matrix_to_json, spectral_radius)


def test_dft_matrix_is_unitary():
    for n in (1, 2, 3, 5, 8, 64):
        q = dft_matrix(n)
        assert np.linalg.norm(q @ q.conj().T - np.eye(n)) <= 1e-10


def test_dft_matrix_two_point():
    q = dft_matrix(2)
    assert np.allclose(q, np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))


def test_circulant_reproduces_eigenvalues():
    eigs = np.array([3.0, 1.5 + 0.5j, 1.5 - 0.5j])
    c = circulant_from_eigs(eigs)
    got = np.linalg.eigvals(c)
    assert np.allclose(sorted(got, key=lambda v: (v.real, v.imag)),
                       sorted(eigs, key=lambda v: (v.real, v.imag)),
                       atol=1e-12)


def test_circulant_rows_are_cyclic_shifts():
    c = circulant_from_eigs([2.0, 1.0, 0.5, 0.25])
    first = c[0]
    for k in range(1, 4):
        assert np.allclose(c[k], np.roll(first, k), atol=1e-12)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])                 # 1-D
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])            # non-finite
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0]], square=True)  # not square
    m = as_matrix([[1.0, 2.0], [3.0, 4.0]], square=True)
    assert m.shape == (2, 2)


def test_spectral_radius_known():
    m = np.diag([0.5, -0.9, 0.2])
    assert spectral_radius(m) == pytest.approx(0.9, abs=1e-14)
    # triangular: radius reads off the diagonal
    assert spectral_radius(np.array([[0.9, 1.0], [0.0, 0.9]])) \
        == pytest.approx(0.9, abs=1e-12)


def test_spectral_radius_unitary_similarity():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                        + 1j * rng.normal(size=(4, 4)))
    assert spectral_radius(q @ m @ q.conj().T) == pytest.approx(
        spectral_radius(m), rel=1e-8)


def test_matrix_json_round_trip():
    m = np.array([[1.0 + 2.0j, 0.0], [3.0, -4.0j]])
    d = matrix_to_json(m)
    assert d["rows"] == 2 and d["cols"] == 2
    back = (np.asarray(d["re"]) + 1j * np.asarray(d["im"])).reshape(
        d["rows"], d["cols"])
    assert np.array_equal(m, back)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 64])
def test_fft_circulant_matches_the_dense_dft_route(n):
    # the one-FFT circulant against Q diag(lambda) Q' from dft_matrix
    rng = np.random.default_rng(n)
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    q = dft_matrix(n)
    ref = q @ np.diag(lam) @ q.conj().T
    got = circulant_from_eigs(lam)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
