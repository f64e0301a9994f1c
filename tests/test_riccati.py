import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedcap.errors import SolverError
from feedcap.mac_code import closed_loop, lqg_controller
from feedcap.riccati import (dale_solve, dare_circulant, dare_iterate,
                             riccati_residual, riclem_verify,
                             symmetric_system)


def test_symmetric_system_diagonal():
    sys = symmetric_system(3, 1.2)
    d = np.diag(sys.A)
    assert np.allclose(np.abs(d), 1.2)
    assert d[0] == pytest.approx(1.2)


def test_circulant_solution_structure():
    sol = dare_circulant(3, 1.2)
    G = sol.G
    assert np.allclose(G, G.conj().T, atol=1e-13)
    eig = np.sort(np.linalg.eigvalsh(G))[::-1]
    lam1 = (1.2 ** 6 - 1.0) / 3.0
    assert eig[0] == pytest.approx(lam1, rel=1e-12)
    assert eig[1] == pytest.approx(lam1 / 1.2 ** 2, rel=1e-12)
    assert eig[2] == pytest.approx(lam1 / 1.2 ** 4, rel=1e-12)
    # constant row sums: G B = lam1 B
    assert np.allclose(G.sum(axis=1), lam1, atol=1e-12)
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("beta", [1.0, np.nan, np.inf, 1e200])
def test_circulant_rejects_bad_beta(beta):
    # beta^{2n} overflows float64 at beta = 1e200
    with pytest.raises(ValueError, match="beta"):
        dare_circulant(3, beta)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_circulant_satisfies_riccati(n):
    sol = dare_circulant(n, 1.3)
    sys = symmetric_system(n, 1.3)
    assert riccati_residual(sol.G, sys.A, sys.B) <= 1e-10


@pytest.mark.parametrize("n,beta", [(2, 1.1), (3, 1.2), (4, 1.5)])
def test_iteration_agrees_with_closed_form(n, beta):
    sys = symmetric_system(n, beta)
    closed = dare_circulant(n, beta).G
    for k0 in (np.zeros((n, n)), np.eye(n), 10.0 * np.eye(n)):
        it = dare_iterate(sys, k0)
        assert np.linalg.norm(it.G - closed) <= 1e-8
        assert it.iterations >= 1


def test_scalar_solution_is_snr():
    # one sender at beta = sqrt(1+P): the stationary covariance is P itself
    for power in (1.0, 4.0):
        sol = dare_circulant(1, float(np.sqrt(1.0 + power)))
        assert sol.G[0, 0].real == pytest.approx(power, rel=1e-12)


def test_top_eigenvalue_diagonal_identity():
    # 1 + lam1 (n - lam1/G_11) = beta^{2(n-1)} for the circulant solution
    n, beta = 4, 1.05
    sol = dare_circulant(n, beta)
    lam1 = (beta ** (2 * n) - 1.0) / n
    g11 = sol.G[0, 0].real
    assert 1.0 + lam1 * (n - lam1 / g11) == pytest.approx(
        beta ** (2 * (n - 1)), abs=1e-9)


def test_zero_seed_is_lifted_not_absorbed():
    # zero is a fixed point of the recursion; the solver must not return it
    sys = symmetric_system(2, 1.2)
    sol = dare_iterate(sys, np.zeros((2, 2)))
    assert np.min(np.linalg.eigvalsh(sol.G)) > 0.0


def test_dare_iterate_rejects_bad_seeds():
    sys = symmetric_system(2, 1.2)
    with pytest.raises(ValueError):
        dare_iterate(sys, np.array([[1.0, 2.0], [0.0, 1.0]]))   # not Hermitian
    with pytest.raises(ValueError):
        dare_iterate(sys, -np.eye(2))                            # negative
    with pytest.raises(ValueError):
        dare_iterate(sys, np.eye(3))                             # wrong size
    with pytest.raises(ValueError):
        dare_iterate(sys, np.eye(2), tol=-1.0)


def test_dare_iterate_iteration_cap():
    sys = symmetric_system(2, 1.2)
    with pytest.raises(SolverError):
        dare_iterate(sys, np.eye(2), tol=1e-14, max_iter=3)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.floats(1.05, 2.0))
def test_riclem_identities_hold(n, beta):
    sol = dare_circulant(n, beta)
    check = riclem_verify(sol, symmetric_system(n, beta))
    assert check.residual_a <= 1e-8
    assert check.residual_b <= 1e-8


def test_dale_scalar_known_value():
    k = dale_solve(np.array([[0.5]]), np.array([[1.0]]))
    assert k[0, 0].real == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_dale_rejects_unstable():
    with pytest.raises(SolverError):
        dale_solve(np.array([[1.01]]), np.array([[1.0]]))


def test_dale_matches_direct_sum():
    rng = np.random.default_rng(2)
    f = 0.5 * rng.normal(size=(3, 3)) / 3.0 + np.diag([0.1, 0.2, -0.3])
    q0 = rng.normal(size=(3, 3))
    q = q0 @ q0.T
    k = dale_solve(f, q)
    assert np.linalg.norm(k - (f @ k @ f.conj().T + q)) <= 1e-9


def test_solver_errors_name_size_and_loop():
    with pytest.raises(SolverError, match=r"size 2, spectral radius 0\.5"):
        dale_solve(0.5 * np.eye(2), np.eye(2), max_iter=3)
    with pytest.raises(SolverError, match=r"n=3"):
        dare_iterate(symmetric_system(3, 1.2), np.eye(3), max_iter=3)


def _lyapunov_loop(f, q):
    """K = f K f' + q by the plain fixed-point loop, the route dale_solve
    took before doubling; stops once a step moves K by under 1e-15 of it."""
    K = np.zeros_like(q, dtype=complex)
    for _ in range(100000):
        K_next = f @ K @ f.conj().T + q
        K_next = (K_next + K_next.conj().T) / 2
        if np.linalg.norm(K_next - K) <= 1e-15 * np.linalg.norm(K_next):
            return K_next
        K = K_next
    raise AssertionError("reference Lyapunov loop did not converge")


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("radius", [0.3, 0.9, 0.99])
def test_dale_doubling_matches_loop_on_random_stable_f(n, radius):
    rng = np.random.default_rng(100 * n + int(100 * radius))
    f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    f *= radius / np.max(np.abs(np.linalg.eigvals(f)))
    q0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = q0 @ q0.conj().T
    ref = _lyapunov_loop(f, q)
    k = dale_solve(f, q)
    assert np.linalg.norm(k - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(k, k.conj().T)


@pytest.mark.parametrize("n,beta", [(2, 1.2), (3, 1.05), (3, 1.2), (8, 1.1),
                                    (16, 1.05)])
def test_dale_doubling_matches_loop_on_closed_loops(n, beta):
    sys = symmetric_system(n, beta)
    ctrl = lqg_controller(sys)
    f = closed_loop(sys, ctrl)
    q = sys.B @ sys.B.conj().T
    ref = _lyapunov_loop(f, q)
    k = dale_solve(f, q)
    assert np.linalg.norm(k - ref) <= 1e-12 * np.linalg.norm(ref)
    # the stationary powers |c_j|^2 Kbar_jj are the Riccati diagonal
    assert np.allclose(np.abs(ctrl.gains) ** 2 * k.diagonal().real,
                       dare_circulant(n, beta).G.diagonal().real,
                       rtol=1e-13, atol=0)


def test_dale_zero_forcing_is_zero():
    assert np.array_equal(dale_solve(0.5 * np.eye(2), np.zeros((2, 2))),
                          np.zeros((2, 2)))
