import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feedcap.riccati as riccati
from feedcap.errors import SolverError
from feedcap.mac_code import beta_for_power, closed_loop, lqg_controller
from feedcap.matrix_core import output_variances
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


def _mp_inverse(a, digits):
    """G = M^{-1} in `digits` digits for the Cauchy matrix M_jk =
    1/(conj(a_j) a_k - 1) = sum_t conj(a_j)^{-t} a_k^{-t}: the
    information-form limit. a holds mpmath numbers or floats."""
    n = len(a)
    with mpmath.workdps(digits):
        a = [mpmath.mpmathify(z) for z in a]
        m = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                m[j, k] = 1 / (mpmath.conj(a[j]) * a[k] - 1)
        g = m ** -1
        return np.array([[complex(g[j, k]) for k in range(n)]
                         for j in range(n)])


def _cauchy_inverse(n, beta, digits=60):
    """_mp_inverse for a_j = beta omega_j, the symmetric system at the same
    float beta, with the phases in `digits` digits."""
    with mpmath.workdps(digits):
        a = [mpmath.mpf(beta) * mpmath.expjpi(mpmath.mpf(2 * j) / n)
             for j in range(n)]
    return _mp_inverse(a, digits)


@pytest.mark.parametrize("n, power", [(2, 1e-9), (2, 1e-6), (2, 1e-4),
                                      (2, 1.0), (2, 1e8), (3, 2.0),
                                      (3, 1e10), (8, 1e-9), (8, 1e-3),
                                      (16, 20.0)])
def test_circulant_matches_high_precision_inverse(n, power):
    # beta^{2n} - 1 cancels at low power: that form of lambda_1 was 4.4e-11
    # off at (2, 1e-6) and 7.5e-10 at (2, 1e-9)
    beta = beta_for_power(n, power)
    ref = _cauchy_inverse(n, beta)
    G = dare_circulant(n, beta).G
    assert np.linalg.norm(G - ref) <= 1e-14 * np.linalg.norm(ref)


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
        assert it.iterations == 0


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
    # the first sum overflows; the second converges before f^m overflows,
    # and the guard |f^m| < 1 refuses it. Neither warns, and the radius is
    # computed only on this path, to name it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, q in ((np.array([[1.01]]), np.array([[1.0]])),
                     (np.diag([0.5, 2.0]), np.diag([1.0, 0.0]))):
            with pytest.raises(SolverError, match=rf"stable f; size {len(f)}"
                                                  r", spectral radius is"):
                dale_solve(f, q)


def test_dale_matches_direct_sum():
    rng = np.random.default_rng(2)
    f = 0.5 * rng.normal(size=(3, 3)) / 3.0 + np.diag([0.1, 0.2, -0.3])
    q0 = rng.normal(size=(3, 3))
    q = q0 @ q0.T
    k = dale_solve(f, q)
    assert np.linalg.norm(k - (f @ k @ f.conj().T + q)) <= 1e-9


def test_solver_errors_name_size_and_loop(monkeypatch):
    monkeypatch.setattr(riccati, "DALE_MAX_DOUBLINGS", 3)
    with pytest.raises(SolverError, match=r"size 2, spectral radius 0\.5"):
        dale_solve(0.5 * np.eye(2), np.eye(2))


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


def _riccati_loop(sys, k0):
    """The Riccati map stepped one step at a time from k0 (lifted to k0 + I
    when singular), the route dare_iterate took before doubling; stops on
    an absolute step of 1e-10."""
    A, B = sys.A, sys.B
    K = k0.astype(complex)
    if np.min(np.linalg.eigvalsh(K)) <= 1e-12 * max(1.0, np.abs(K).max()):
        K = K + np.eye(sys.n)
    for _ in range(100000):
        s = 1.0 + (B.conj().T @ K @ B).real.item()
        akb = A @ K @ B
        K_next = A @ K @ A.conj().T - (akb @ akb.conj().T) / s
        K_next = (K_next + K_next.conj().T) / 2
        if np.linalg.norm(K_next - K) <= 1e-10:
            return K_next
        K = K_next
    raise AssertionError("reference Riccati loop did not converge")


def _seeds(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return {"zero": np.zeros((n, n)), "identity": np.eye(n),
            "10 identity": 10.0 * np.eye(n),
            "random PD": x @ x.conj().T + 0.1 * np.eye(n)}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("rate", [0.5, 2.0, 6.0])
def test_doubling_matches_riccati_loop(n, rate):
    # beta = 2^(rate/n) carries a sum rate n log2(beta) of `rate` bits
    sys = symmetric_system(n, 2.0 ** (rate / n))
    for name, k0 in _seeds(n).items():
        sol = dare_iterate(sys, k0)
        ref = _riccati_loop(sys, k0)
        assert np.linalg.norm(sol.G - ref) <= 1e-8, name
        assert sol.residual == riccati_residual(sol.G, sys.A, sys.B)


def test_information_form_step_identity():
    # one Riccati step on K is one Stein step A^{-H} (M + BB') A^{-1} on
    # M = K^{-1}: the identity the doubling rests on
    a = np.array([1.3, -1.1 + 0.4j, 2.0j])
    sys = SimpleNamespace(A=np.diag(a), B=np.ones((3, 1), dtype=complex))
    x = np.random.default_rng(7).normal(size=(3, 3, 2)) @ [1.0, 1.0j]
    K = x @ x.conj().T + np.eye(3)
    f = np.diag(1.0 / a.conj())
    M = f @ (np.linalg.inv(K) + sys.B @ sys.B.conj().T) @ f.conj().T
    step = riccati._riccati_map(K, sys.A, sys.B)
    assert np.linalg.norm(step - np.linalg.inv(M)) \
        <= 1e-12 * np.linalg.norm(step)


def _cauchy_solution(a):
    """G = M^{-1} for the Cauchy matrix M_jk = 1/(conj(a_j) a_k - 1), the
    limit sum_{t>=1} A^{-Ht} BB' A^{-t} written out entry by entry."""
    return np.linalg.inv(1.0 / (np.outer(a.conj(), a) - 1.0))


@pytest.mark.parametrize("n,power", [(2, 1.0), (3, 2.0), (8, 10.0),
                                     (32, 2.0), (64, 10.0)])
def test_doubling_matches_cauchy_inverse(n, power):
    sys = symmetric_system(n, beta_for_power(n, power))
    G = dare_iterate(sys, np.eye(n)).G
    assert np.linalg.norm(G - _cauchy_solution(np.diag(sys.A))) <= 1e-8


def test_doubling_with_unequal_betas():
    # the information form holds for any diagonal A with every |a_j| > 1;
    # the closed form covers only equal betas, so the Cauchy inverse and the
    # sum identities are the references here
    betas = np.array([1.1, 1.3, 1.6, 2.0])
    a = betas * np.exp(1j * np.array([0.0, 1.0, 2.5, 4.0]))
    sys = SimpleNamespace(A=np.diag(a), B=np.ones((4, 1), dtype=complex),
                          n=4, beta=None, betas=tuple(betas))
    sol = dare_iterate(sys, np.eye(4))
    assert np.linalg.norm(sol.G - _cauchy_solution(a)) <= 1e-8
    for name, k0 in _seeds(4).items():
        assert np.linalg.norm(dare_iterate(sys, k0).G
                              - _riccati_loop(sys, k0)) <= 1e-8, name
    assert sol.residual <= 1e-10
    check = riclem_verify(sol, sys)
    assert check.residual_a <= 1e-8
    assert check.residual_b <= 1e-8


# the edges of the power range: inverting the information form raised at
# (8, 1e8), (16, 1e8) and (32, 1e7) and was 2e-9 to 1.7e-4 off at low power
POWER_EDGES = [(2, 1e-12), (2, 1e-9), (2, 1e-6), (2, 1e-4), (2, 1e8),
               (2, 1e10), (2, 1e12), (3, 1e10), (8, 1e-9), (16, 1e-12),
               (8, 1e8), (16, 1e8), (32, 1e7)]


@pytest.mark.parametrize("n, power", POWER_EDGES)
def test_cauchy_route_matches_high_precision_inverse(n, power):
    beta = beta_for_power(n, power)
    ref = _cauchy_inverse(n, beta, digits=60 + 4 * n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = dare_iterate(symmetric_system(n, beta), np.eye(n)).G
    assert np.linalg.norm(G - ref) <= 1e-14 * np.linalg.norm(ref)


def test_cauchy_route_on_random_diagonal_systems():
    # unequal betas and arbitrary phases: a float64 inverse of M is good to
    # about eps cond(M), the 60-digit one to the last digit
    rng = np.random.default_rng(27)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        betas = np.exp(rng.uniform(0.01, 1.5, size=n))
        a = betas * np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))
        sys = SimpleNamespace(A=np.diag(a), B=np.ones((n, 1), dtype=complex),
                              n=n, beta=None, betas=tuple(betas))
        G = dare_iterate(sys, np.eye(n)).G
        assert np.array_equal(G, G.conj().T), trial
        cond = np.linalg.cond(1.0 / (np.outer(a.conj(), a) - 1.0))
        ref = _cauchy_solution(a)
        assert np.linalg.norm(G - ref) \
            <= 1e-14 * cond * np.linalg.norm(ref), trial
        ref = _mp_inverse(a, 60)
        assert np.linalg.norm(G - ref) <= 1e-14 * np.linalg.norm(ref), trial


def test_cauchy_route_runs_no_doubling_and_no_inverse(monkeypatch):
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper
    monkeypatch.setattr(riccati, "_doublings",
                        counted("doublings", riccati._doublings))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    for n in (1, 2, 8, 64):
        dare_iterate(symmetric_system(n, 1.1), np.eye(n))
    assert calls == []
    dale_solve(0.5 * np.eye(2), np.eye(2))
    assert calls == ["doublings"]


@pytest.mark.parametrize("n,power", [(62, 16.8), (64, 20.0)])
def test_former_iteration_cap_points_meet_closed_form(n, power):
    # the absolute 1e-10 step of the stepped loop sat below its round-off
    # floor here, so it never converged
    beta = beta_for_power(n, power)
    sol = dare_iterate(symmetric_system(n, beta), np.eye(n))
    assert np.linalg.norm(sol.G - dare_circulant(n, beta).G) <= 1e-8


def test_doubling_meets_closed_form_on_design_grid():
    # the benchmark's Frobenius check, over N 2-64 x P 0.1-20 on a log grid,
    # and the power edges, N = 64 included: past the reach of the mpmath
    # inverse in a short suite
    grid = [(n, p) for n in (2, 4, 8, 16, 32, 64)
            for p in np.geomspace(0.1, 20.0, 6)]
    edges = [(64, 1e-12), (64, 1e-9), (64, 1e8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, power in grid + edges + POWER_EDGES:
            beta = beta_for_power(n, power)
            sol = dare_iterate(symmetric_system(n, beta), np.eye(n))
            closed = dare_circulant(n, beta).G
            assert np.linalg.norm(sol.G - closed) \
                <= 1e-13 * np.linalg.norm(closed), (n, power)


def test_doubling_never_steps_the_riccati_map(monkeypatch):
    calls = []
    real = riccati._riccati_map

    def counted(K, A, B):
        calls.append(1)
        return real(K, A, B)
    monkeypatch.setattr(riccati, "_riccati_map", counted)
    sol = dare_iterate(symmetric_system(8, 1.05), np.eye(8))
    # only the residual applies the map
    assert len(calls) == 1
    assert sol.iterations == 0


@pytest.mark.parametrize("n,beta,match", [
    (1, 3e5, "fixed-point check"),          # the residual cancels
    (2, 1e77, "overflows"),                 # G is finite, its residual not
    (1, 1e76, "overflows")])
def test_doubling_fails_loudly_past_float64(n, beta, match):
    with pytest.raises(SolverError, match=match) as err:
        dare_iterate(symmetric_system(n, beta), np.eye(n))
    assert f"n={n}, beta={beta}" in str(err.value)


def test_cauchy_route_solves_past_the_information_form_limit():
    # inverting M lost cond(M) = beta^14, about 1e16, here and failed the
    # fixed-point check; the explicit inverse never forms M
    sol = dare_iterate(symmetric_system(8, 13.45), np.eye(8))
    closed = dare_circulant(8, 13.45).G
    assert np.linalg.norm(sol.G - closed) <= 1e-8 * np.linalg.norm(closed)


def _conditional_variances_by_row(G):
    """1 + B_m'GB_m - |sigma_m - G_mm|^2 / G_mm for each row m, with sigma_m
    the m-th row sum and B_m the all-ones column with entry m zeroed: the
    quadratic-form loop the row-sum Schur complements replaced, kept here as
    a reference for identity (b)."""
    n = len(G)
    out = np.empty(n)
    for m in range(n):
        bm = np.ones((n, 1))
        bm[m] = 0.0
        out[m] = 1.0 + (bm.T @ G @ bm).real.item() \
            - abs(G[m].sum() - G[m, m]) ** 2 / G[m, m].real
    return out


def _identity_b_cases():
    for n, power in ((2, 1.0), (3, 2.0), (8, 20.0), (64, 0.1), (64, 20.0)):
        beta = beta_for_power(n, power)
        yield (f"circulant n={n} P={power}", dare_circulant(n, beta).G,
               symmetric_system(n, beta).betas)
    # the unequal-betas system of test_doubling_with_unequal_betas
    betas = (1.1, 1.3, 1.6, 2.0)
    a = np.asarray(betas) * np.exp(1j * np.array([0.0, 1.0, 2.5, 4.0]))
    sys = SimpleNamespace(A=np.diag(a), B=np.ones((4, 1), dtype=complex),
                          n=4, beta=None, betas=betas)
    yield "unequal betas", dare_iterate(sys, np.eye(4)).G, betas


def test_identity_b_row_sums_match_the_row_form():
    for name, G, betas in _identity_b_cases():
        beta2 = np.square(betas)
        target = np.prod(beta2) / beta2
        ref = _conditional_variances_by_row(G)
        _, loo = output_variances(G)
        assert np.max(np.abs(loo - ref)) <= 1e-13 * np.max(ref), name
        check = riclem_verify(SimpleNamespace(G=G),
                              SimpleNamespace(betas=betas))
        assert check.residual_b <= 1e-13 * np.prod(beta2), name
        assert np.max(np.abs(ref - target)) <= 1e-13 * np.prod(beta2), name


def test_psd_errors_name_their_argument():
    skew = np.array([[1.0, 0.5], [0.4, 1.0]])
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    for call, name in ((lambda m: dale_solve(0.5 * np.eye(2), m), "q"),
                       (lambda m: dare_iterate(symmetric_system(2, 1.2), m),
                        "k0")):
        with pytest.raises(ValueError, match=f"^{name} must be Hermitian"):
            call(skew)
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive-semidefinite"):
            call(indefinite)


def test_dare_iterate_rejects_a_non_diagonal_a():
    sys = SimpleNamespace(A=np.array([[1.5, 0.1], [0.0, -1.5]]),
                          B=np.ones((2, 1), dtype=complex), n=2, beta=1.5)
    with pytest.raises(ValueError, match="diagonal A"):
        dare_iterate(sys, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_riccati_map_from_the_diagonal_matches_the_dense_products(n):
    # A K A' - A K B (1 + B'KB)^{-1} (A K B)' with the dense N x N A, as
    # the map formed it before reading diag(A)
    rng = np.random.default_rng(n)
    a = rng.uniform(1.01, 2.0, size=n) * np.exp(2j * np.pi * rng.random(n))
    A, B = np.diag(a), np.ones((n, 1), dtype=complex)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    K = x @ x.conj().T + np.eye(n)
    s = 1.0 + (B.conj().T @ K @ B).real.item()
    akb = A @ K @ B
    ref = A @ K @ A.conj().T - (akb @ akb.conj().T) / s
    ref = (ref + ref.conj().T) / 2
    got = riccati._riccati_map(K, A, B)
    assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


def test_riccati_map_rejects_a_non_diagonal_a():
    A = np.array([[1.5, 0.1], [0.0, -1.5]])
    with pytest.raises(ValueError, match="diagonal A"):
        riccati._riccati_map(np.eye(2), A, np.ones((2, 1)))
    with pytest.raises(ValueError, match="diagonal A"):
        riccati_residual(np.eye(2), A, np.ones((2, 1)))
