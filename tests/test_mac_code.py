import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feedcap.mac_code as mac_code
import feedcap.riccati as riccati
from conftest import BETA_2_1, PHI, SUMCAP_BITS, noiseless_draws
from feedcap.errors import SolverError
from feedcap.mac_code import (CENTER, MESSAGE_VAR, LinearController,
                              asymptotic_powers,
                              beta_for_power, build_system, closed_loop,
                              closed_loop_radius, decode, encode_step,
                              exact_mse,
                              exact_step_table, exact_trajectory_stats,
                              lqg_controller,
                              mutual_info_identity_check, simulate,
                              stationary_posterior_variances)
from feedcap.montecarlo import CHUNK, RNG_ALGORITHM, chunk_draws
from feedcap.riccati import dale_solve, dare_circulant, dare_iterate


def _system(n=2, power=1.0):
    sys = build_system(n, beta_for_power(n, power))
    return sys, lqg_controller(sys)


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_system(0, 1.2)
    with pytest.raises(ValueError):
        build_system(2, 1.0)   # beta = 1 carries zero rate
    # non-finite beta, and beta^{2n} past the float64 range (2^1200 here)
    for beta in (math.nan, math.inf, 2.0 ** 200):
        with pytest.raises(ValueError, match=r"n=3, beta="):
            build_system(3, beta)


def test_build_system_closed_forms():
    s1 = build_system(1, math.sqrt(2.0))
    assert np.allclose(s1.A, [[math.sqrt(2.0)]])
    s2 = build_system(2, 1.5)
    assert np.allclose(s2.A, np.diag([1.5, -1.5]))
    s4 = build_system(4, 1.2)
    assert np.max(np.abs(np.array(s4.phases) - [1, 1j, -1, -1j])) <= 1e-15


def test_lqg_scalar_closed_form():
    # n = 1, beta = sqrt(2): G = 1, gain sqrt(2)/2, closed loop sqrt(2)/2
    sys = build_system(1, math.sqrt(2.0))
    ctrl = lqg_controller(sys)
    assert ctrl.gains[0] == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
    assert closed_loop_radius(sys, ctrl) == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-12)


def test_beta_for_power_frozen_value():
    assert beta_for_power(2, 1.0) == pytest.approx(BETA_2_1, abs=1e-10)
    with pytest.raises(ValueError):
        beta_for_power(2, 0.0)


def test_beta_for_power_closed_form():
    for n, power in ((3, 5.0), (4, 3.0)):
        beta = beta_for_power(n, power)
        phi = PHI[(n, power)]
        assert beta ** (2 * n) == pytest.approx(1.0 + n * power * phi,
                                                rel=1e-9)


def test_gains_share_magnitude():
    sys, ctrl = _system(3, 2.0)
    mags = np.abs(ctrl.gains)
    assert np.allclose(mags, mags[0], atol=1e-12)
    lam1 = (sys.beta ** 6 - 1.0) / 3.0
    assert mags[0] == pytest.approx(lam1 * sys.beta / (1.0 + 3.0 * lam1),
                                    rel=1e-12)


def test_closed_loop_is_stable():
    for n, power in ((2, 1.0), (3, 5.0), (4, 3.0)):
        sys, ctrl = _system(n, power)
        assert closed_loop_radius(sys, ctrl) < 1.0


def test_sum_rate_equals_capacity():
    for n, power in ((2, 1.0), (3, 1.0), (4, 1.0)):
        beta = beta_for_power(n, power)
        assert n * math.log2(beta) == pytest.approx(SUMCAP_BITS[(n, power)],
                                                    abs=1e-9)


def test_decode_all_zero_outputs():
    sys, _ = _system(2, 1.0)
    est = decode(sys, np.zeros(5, dtype=complex))
    assert np.allclose(est, 0.0)
    with pytest.raises(ValueError):
        decode(sys, [])


def test_encode_matches_closed_loop_recursion():
    # S_i = (A - BC) S_{i-1} + B Z_{i-1} once the loop is closed; step 1 is
    # open loop (Y_0 = 0), so prime the recursion with S_1 = A S_0
    sys, ctrl = _system(2, 1.0)
    F = closed_loop(sys, ctrl)
    rng = np.random.default_rng(3)
    msg = rng.random(2) + 1j * rng.random(2) - (0.5 + 0.5j)
    state, _, chan = encode_step(sys, ctrl, msg, 0j)
    ref = state.copy()
    z = complex(*rng.normal(scale=math.sqrt(0.5), size=2))
    y_prev = chan + z
    for _ in range(3):
        ref = F @ ref + sys.B.ravel() * z
        state, _, chan = encode_step(sys, ctrl, state, y_prev)
        assert np.max(np.abs(state - ref)) <= 1e-12
        z = complex(*rng.normal(scale=math.sqrt(0.5), size=2))
        y_prev = chan + z


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_trajectory_error_identity(seed):
    sys, ctrl = _system(3, 2.0)
    rng = np.random.default_rng(seed)
    msg = rng.random(3) + 1j * rng.random(3) - (0.5 + 0.5j)
    state = msg.copy()
    y_hist = []
    y_prev = 0j
    for _ in range(20):
        state, symbols, chan = encode_step(sys, ctrl, state, y_prev)
        assert chan == pytest.approx(symbols.sum())
        y_prev = chan + complex(*rng.normal(scale=math.sqrt(0.5), size=2))
        y_hist.append(y_prev)
    mhat = decode(sys, y_hist)
    identity = (msg - mhat) - sys.a_diag ** (-20.0) * state
    assert np.max(np.abs(identity)) <= 1e-12


def test_decoder_ignores_last_output():
    # the final output never feeds a state update, so it cannot matter
    sys, ctrl = _system(2, 1.0)
    rng = np.random.default_rng(9)
    y = rng.normal(size=8) + 1j * rng.normal(size=8)
    y2 = y.copy()
    y2[-1] += 123.0
    assert np.allclose(decode(sys, y), decode(sys, y2))


def test_exact_mse_no_steps_returns_prior():
    sys, ctrl = _system(2, 1.0)
    assert np.allclose(exact_mse(sys, ctrl, 0), MESSAGE_VAR)


def test_exact_step_table_consistent_with_stats():
    sys, ctrl = _system(2, 1.0)
    rows = list(exact_step_table(sys, ctrl, 12))
    assert [r[0] for r in rows] == list(range(1, 13))
    stats = exact_trajectory_stats(sys, ctrl, 12)
    assert np.allclose(rows[-1][1], stats.per_sender_mse, rtol=1e-12)
    mean_power = np.mean([r[2] for r in rows], axis=0)
    assert np.allclose(mean_power, stats.mean_powers, rtol=1e-12)


def _reference_covs(sys, ctrl, n_steps, noise_var, trajectory,
                    dtype=complex):
    """K_1..K_n by the straight loop K <- F K F' + noise_var BB',
    F = A - BC: stationary timing applies the closed loop from step 1;
    trajectory timing makes step 1 the open-loop amplification A K_0 A'.
    F K F' is expanded over the diagonal A and the rank-one BC, O(N^2) a
    step; dtype sets the working precision."""
    a = sys.a_diag.astype(dtype)
    c = ctrl.gains.astype(dtype)
    aa = a[:, None] * a.conj()
    K = np.eye(sys.n, dtype=dtype) * MESSAGE_VAR
    out = []
    for i in range(1, n_steps + 1):
        if trajectory and i == 1:
            K = aa * K
        else:
            # F K F' = A K A' - u B' - B u' + (C K C') BB', u = A K C'
            u = a * (K @ c.conj())
            K = (aa * K - u[:, None] - u.conj()
                 + (c @ K @ c.conj() + noise_var))
        K = (K + K.conj().T) / 2
        out.append(K)
    return out


def _dense_doubling(f, q, x0, n_steps):
    """(K_n, K_1 + ... + K_n) for K_1 = x0 and K_i = f K_{i-1} f' + q, by
    square-and-multiply doubling over the bits of n - 1, O(N^3 log n): the
    dense route the library ran before its DFT-bin closed form.

    A run of M steps holds P = f^M, S = T^M(0) and W = sum_{t<M} T^t(x0);
    the accumulated run of m steps, V = T^m(x0) and U = sum_{t<m} T^t(x0),
    takes a run on top as V <- S + P V P' and U <- W + P U P' + m S.
    """
    def cong(p, x):
        y = p @ x @ p.conj().T
        return (y + y.conj().T) / 2

    M, P, S, W = 1, f, q, x0
    m, V, U = 0, x0, np.zeros_like(x0)
    rest = n_steps - 1
    while rest:
        if rest & 1:
            V, U = S + cong(P, V), W + cong(P, U) + m * S
            m += M
        rest >>= 1
        W = W + cong(P, W) + M * S
        S = S + cong(P, S)
        P = P @ P
        M *= 2
    return V, U + V


@pytest.mark.parametrize("n", [1, 2, 3, 16])
@pytest.mark.parametrize("n_steps", [1, 2, 50, 300])
def test_exact_propagation_bitwise_matches_straight_loops(n, n_steps):
    # the power-1 code; one sender takes the scalar beta = sqrt(1 + P).
    # The closed form adds bin terms, not the loop's products, so it is
    # held to the extended-precision straight loop at rtol 1e-12, not to
    # the bits of a float64 loop. Without noise K_n decays through
    # cancelling products of F, and the float64 loop itself drifts 1.4e-12
    # from the true K_50 at N=16. The library has no noiseless route, so
    # the noiseless case holds the tests' dense doubling to the same bound.
    sys = build_system(n, math.sqrt(2.0) if n == 1 else beta_for_power(n, 1.0))
    ctrl = lqg_controller(sys)
    scale = [sys.beta ** (-2.0 * i) for i in range(1, n_steps + 1)]
    gains_sq = np.abs(ctrl.gains) ** 2

    K = _reference_covs(sys, ctrl, n_steps, 1.0, trajectory=False,
                        dtype=np.clongdouble)[-1]
    np.testing.assert_allclose(exact_mse(sys, ctrl, n_steps),
                               (scale[-1] * K.diagonal().real).astype(float),
                               rtol=1e-12)

    for noise_var in (0.0, 1.0):
        covs = _reference_covs(sys, ctrl, n_steps, noise_var,
                               trajectory=True, dtype=np.clongdouble)
        diag_sum = sum(K.diagonal().real for K in covs)
        mse = scale[-1] * covs[-1].diagonal().real
        if noise_var:
            stats = exact_trajectory_stats(sys, ctrl, n_steps)
            got = (stats.per_sender_mse, stats.mse_exponents,
                   stats.mean_powers)
        else:
            K, K_sum = _dense_doubling(closed_loop(sys, ctrl),
                                       np.zeros((n, n), dtype=complex),
                                       sys.beta ** 2 * MESSAGE_VAR
                                       * np.eye(n, dtype=complex), n_steps)
            k_diag = K.diagonal().real
            got = (scale[-1] * k_diag,
                   math.log2(sys.beta) - np.log2(k_diag) / (2.0 * n_steps),
                   gains_sq * K_sum.diagonal().real / n_steps)
        np.testing.assert_allclose(got[0], mse.astype(float), rtol=1e-12)
        np.testing.assert_allclose(
            got[1], (-np.log2(mse) / (2.0 * n_steps)).astype(float),
            rtol=1e-12)
        np.testing.assert_allclose(
            got[2], (gains_sq * diag_sum / n_steps).astype(float),
            rtol=1e-12)

    rows = list(exact_step_table(sys, ctrl, n_steps))
    assert [r[0] for r in rows] == list(range(1, n_steps + 1))
    for (step, mse_row, power_row), K, s in zip(rows, covs, scale):
        k_diag = K.diagonal().real
        np.testing.assert_allclose(mse_row, (s * k_diag).astype(float),
                                   rtol=1e-12)
        np.testing.assert_allclose(power_row,
                                   (gains_sq * k_diag).astype(float),
                                   rtol=1e-12)


def _check_exact_layer(sys, ctrl):
    """The four exact-layer functions against three routes that never use
    the DFT bins, at rtol 1e-12: the dense doubling at every horizon, the
    extended-precision straight loop for every step up to 2000 (300 at
    N = 64, to keep the test short) and dale_solve for the stationary
    powers. The MSE is held to rtol where it is a normal float."""
    n = sys.n
    F, BBt = closed_loop(sys, ctrl), sys.B @ sys.B.conj().T
    gains_sq = np.abs(ctrl.gains) ** 2
    tiny = np.finfo(float).tiny
    loop = [K.diagonal().real.astype(float) for K in _reference_covs(
        sys, ctrl, 300 if n == 64 else 2000, 1.0, trajectory=True,
        dtype=np.clongdouble)]
    loop_sums = np.cumsum(loop, axis=0)
    for h in sorted({1, 2, n, n + 1, 300, 2000}):
        stats = exact_trajectory_stats(sys, ctrl, h)
        K, K_sum = _dense_doubling(
            F, BBt, sys.beta ** 2 * MESSAGE_VAR * np.eye(n, dtype=complex), h)
        refs = [(K.diagonal().real, K_sum.diagonal().real)]
        if h <= len(loop):
            refs.append((loop[h - 1], loop_sums[h - 1]))
        for k_diag, k_sum in refs:
            np.testing.assert_allclose(stats.per_sender_mse,
                                       sys.beta ** (-2.0 * h) * k_diag,
                                       rtol=1e-12, atol=tiny)
            np.testing.assert_allclose(
                stats.mse_exponents,
                math.log2(sys.beta) - np.log2(k_diag) / (2.0 * h), rtol=1e-12)
            np.testing.assert_allclose(stats.mean_powers,
                                       gains_sq * k_sum / h, rtol=1e-12)
        K = _dense_doubling(F, BBt, MESSAGE_VAR * np.eye(n, dtype=complex),
                            h + 1)[0]
        np.testing.assert_allclose(exact_mse(sys, ctrl, h),
                                   sys.beta ** (-2.0 * h) * K.diagonal().real,
                                   rtol=1e-12, atol=tiny)
    rows = list(exact_step_table(sys, ctrl, len(loop)))
    for (step, mse_row, power_row), k_diag in zip(rows, loop):
        np.testing.assert_allclose(mse_row, sys.beta ** (-2.0 * step) * k_diag,
                                   rtol=1e-12, atol=tiny)
        np.testing.assert_allclose(power_row, gains_sq * k_diag, rtol=1e-12)
    np.testing.assert_allclose(asymptotic_powers(sys, ctrl),
                               gains_sq * dale_solve(F, BBt).diagonal().real,
                               rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
@pytest.mark.parametrize("power", [1e-3, 0.1, 1.0, 20.0])
def test_bin_closed_form_matches_independent_routes(n, power):
    beta = math.sqrt(1.0 + power) if n == 1 else beta_for_power(n, power)
    sys = build_system(n, beta)
    _check_exact_layer(sys, lqg_controller(sys))


@pytest.mark.parametrize("n, power, wrap", [
    (3, 1.0, 0.5), (3, 1.0, -0.5), (3, 1.0, 0.5j),
    (8, 0.1, 0.5), (8, 0.1, -0.5), (8, 0.1, 0.8 + 0.4j)])
def test_bin_closed_form_off_the_optimal_gain(n, power, wrap):
    # gains gamma diag(A) with 1 - n gamma = wrap beta^-n: the loop's
    # eigenvalues solve z^n = beta^n (1 - n gamma) = wrap, and the cycle
    # gain is |wrap|^2 (beta^-2n at the optimum). At (8, 0.1), beta^8 is
    # 1.44, so 0.8 + 0.4j puts n gamma at 0.45 + 0.28j, a complex gamma
    # of modulus below 1/2
    sys = build_system(n, beta_for_power(n, power))
    ctrl = LinearController((1.0 - wrap * sys.beta ** -n) / n * sys.a_diag)
    assert closed_loop_radius(sys, ctrl) == pytest.approx(
        abs(wrap) ** (1.0 / n), rel=1e-12)
    _check_exact_layer(sys, ctrl)


@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("power", [1e-12, 1e-9, 1e-6, 1.0, 1e8, 1e12, 1e16])
def test_stationary_powers_at_the_optimum_across_the_power_range(n, power):
    # at lqg_controller's gains c = beta^-2n, and the general stationary
    # diagonal (beta^2n - 1)/(beta^2 - 1)/(1 - c) is beta^2n/(beta^2 - 1);
    # 1 - c keeps its digits at low power only if log|1 - n gamma| does.
    # At P = 1e16, N = 2 the float gains put n gamma at exactly 1
    sys = build_system(n, beta_for_power(n, power))
    ctrl = lqg_controller(sys)
    log_beta = np.log1p(sys.beta - 1.0)
    kbar = np.exp(2 * n * log_beta) / np.expm1(2 * log_beta)
    np.testing.assert_allclose(asymptotic_powers(sys, ctrl),
                               np.abs(ctrl.gains) ** 2 * kbar, rtol=1e-14)


def test_exact_layer_refuses_gains_it_cannot_read():
    sys, ctrl = _system(3, 2.0)
    calls = (lambda c: exact_trajectory_stats(sys, c, 5),
             lambda c: list(exact_step_table(sys, c, 5)),
             lambda c: exact_mse(sys, c, 5),
             lambda c: asymptotic_powers(sys, c))
    skew = LinearController(ctrl.gains * (1.0 + 1e-9 * np.arange(3)))
    # the open loop has c = beta^6; 1 - n gamma = 1.1 beta^-3 gives
    # c = 1.21, just past the edge
    unstable = [(np.zeros(3, dtype=complex), sys.beta ** 6),
                ((1.0 - 1.1 * sys.beta ** -3) / 3 * sys.a_diag, 1.21)]
    where = re.escape(f"(n=3, beta={sys.beta})")
    for call in calls:
        with pytest.raises(ValueError, match="proportional to diag"):
            call(skew)
        for gains, c in unstable:
            with pytest.raises(SolverError,
                               match=where + ".*" + re.escape(f"c = {c:.6e}")):
                call(LinearController(gains))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
def test_exact_trajectory_doubling_matches_loop(n):
    sys = build_system(n, math.sqrt(2.0) if n == 1 else beta_for_power(n, 1.0))
    ctrl = lqg_controller(sys)
    gains_sq = np.abs(ctrl.gains) ** 2
    diags = [K.diagonal().real
             for K in _reference_covs(sys, ctrl, 2000, 1.0, trajectory=True)]
    diag_sums = np.cumsum(diags, axis=0)
    for h in (1, 2, 3, 50, 300, 2000):
        stats = exact_trajectory_stats(sys, ctrl, h)
        # at n=1, h=2000 the MSE 2^-2000 K_11 underflows to 0 on both
        # routes; the exponent, taken in the log domain, does not
        np.testing.assert_allclose(stats.per_sender_mse,
                                   sys.beta ** (-2.0 * h) * diags[h - 1],
                                   rtol=1e-12)
        np.testing.assert_allclose(
            stats.mse_exponents,
            math.log2(sys.beta) - np.log2(diags[h - 1]) / (2.0 * h),
            rtol=1e-12)
        np.testing.assert_allclose(stats.mean_powers,
                                   gains_sq * diag_sums[h - 1] / h,
                                   rtol=1e-12)


@pytest.mark.parametrize("n,power,n_steps", [(128, 1.0, 10 ** 4),
                                             (3, 2.0, 3000)])
def test_exact_exponents_finite_past_mse_underflow(n, power, n_steps):
    # beta^(-2h) K_jj underflows once 2h log2(beta) passes about 1074 bits
    sys, ctrl = _system(n, power)
    stats = exact_trajectory_stats(sys, ctrl, n_steps)
    assert np.all(np.isfinite(stats.mse_exponents))
    kbar = dale_solve(closed_loop(sys, ctrl),
                      sys.B @ sys.B.conj().T).diagonal().real
    pred = math.log2(sys.beta) - np.log2(kbar) / (2.0 * n_steps)
    assert np.max(np.abs(stats.mse_exponents - pred)) <= 1e-6
    if n == 3:
        assert stats.mse_exponents == pytest.approx(0.59836, abs=1e-5)


@pytest.mark.parametrize("n,power,n_steps", [(24, 10.0, 300), (32, 2.0, 300),
                                             (3, 2.0, 1100)])
def test_former_breaks_meet_design_tolerances(n, power, n_steps):
    # the step-by-step Lyapunov loop hit its 100k cap at the first two
    # points, and the exponent was inf at the third
    sys, ctrl = _system(n, power)
    G = dare_circulant(n, sys.beta).G
    gdiag = G.diagonal().real
    assert np.linalg.norm(dare_iterate(sys, np.eye(n)).G - G) <= 1e-8
    powers = asymptotic_powers(sys, ctrl)
    assert np.max(np.abs(powers - gdiag)) <= 1e-8
    kbar = powers / np.abs(ctrl.gains) ** 2
    pred = math.log2(sys.beta) - np.log2(kbar) / (2.0 * n_steps)
    stats = exact_trajectory_stats(sys, ctrl, n_steps)
    assert np.max(np.abs(stats.mse_exponents - pred)) <= 1e-6


def test_simulate_reproducible_and_thread_invariant():
    sys, ctrl = _system(2, 1.0)
    a = simulate(sys, ctrl, 10, 2500, seed=42)
    b = simulate(sys, ctrl, 10, 2500, seed=42, threads=4)
    assert np.array_equal(a.per_sender_mse, b.per_sender_mse)
    assert np.array_equal(a.empirical_powers, b.empirical_powers)
    c = simulate(sys, ctrl, 10, 2500, seed=43)
    assert not np.array_equal(a.per_sender_mse, c.per_sender_mse)


def _reference_simulate(sys, ctrl, n_steps, trials, seed):
    """One trial at a time through encode_step and decode, on the same
    chunk draws simulate() uses."""
    sq_err = np.zeros(sys.n)
    power = np.zeros(sys.n)
    for chunk, lo in enumerate(range(0, trials, CHUNK)):
        count = min(CHUNK, trials - lo)
        u, z = chunk_draws(seed, chunk, (count, sys.n, 2), (count, n_steps, 2),
                           math.sqrt(0.5))
        for t in range(count):
            msg = u[t, :, 0] + 1j * u[t, :, 1] - CENTER
            state, y_prev, y_hist = msg, 0j, []
            for i in range(n_steps):
                state, symbols, chan = encode_step(sys, ctrl, state, y_prev)
                power += np.abs(symbols) ** 2
                y_prev = chan + complex(z[t, i, 0], z[t, i, 1])
                y_hist.append(y_prev)
            sq_err += np.abs(msg - decode(sys, y_hist)) ** 2
    return sq_err / trials, power / (trials * n_steps)


def test_simulate_matches_per_trial_reference():
    # one full chunk and one partial chunk
    sys, ctrl = _system(3, 2.0)
    reports = [simulate(sys, ctrl, 8, 1100, seed=9, threads=t)
               for t in (1, 2, 4)]
    for rep in reports[1:]:
        assert np.array_equal(rep.per_sender_mse, reports[0].per_sender_mse)
        assert np.array_equal(rep.empirical_powers,
                              reports[0].empirical_powers)
    mse, power = _reference_simulate(sys, ctrl, 8, 1100, seed=9)
    assert np.allclose(reports[0].per_sender_mse, mse, rtol=1e-12, atol=0)
    assert np.allclose(reports[0].empirical_powers, power, rtol=1e-12, atol=0)
    assert reports[0].rng_algorithm == RNG_ALGORITHM


@pytest.mark.parametrize("n_steps", [50, 200, 3000])
def test_simulate_exponents_match_exact_at_long_horizons(n_steps):
    # n log2(beta) is 29.9 bits at 50 steps, 120 at 200 and 1797 at 3000,
    # far past the 53 bits a decoder subtracting M - Mhat could resolve;
    # the MSE underflows at 3000 steps while the exponents stay finite
    sys, ctrl = _system(3, 2.0)
    exact = exact_trajectory_stats(sys, ctrl, n_steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = simulate(sys, ctrl, n_steps, 4096, seed=7)
    assert np.all(np.isfinite(rep.mse_exponents))
    assert np.max(np.abs(rep.mse_exponents / exact.mse_exponents - 1.0)) \
        <= 0.01
    np.testing.assert_allclose(rep.empirical_powers, exact.mean_powers,
                               rtol=0.05)


def test_simulate_validation():
    sys, ctrl = _system(2, 1.0)
    with pytest.raises(ValueError):
        simulate(sys, ctrl, 0, 10, seed=1)
    with pytest.raises(ValueError):
        simulate(sys, ctrl, 5, 0, seed=1)
    with pytest.raises(ValueError):
        simulate(sys, ctrl, 5, 10, seed=1 << 64)


def test_simulate_noiseless_matches_exact_propagation(monkeypatch):
    # the exact side is the noiseless straight loop
    monkeypatch.setattr(mac_code, "chunk_draws", noiseless_draws)
    sys, ctrl = _system(2, 1.0)
    covs = _reference_covs(sys, ctrl, 10, 0.0, trajectory=True)
    mse = sys.beta ** -20.0 * covs[-1].diagonal().real
    powers = (np.abs(ctrl.gains) ** 2
              * sum(K.diagonal().real for K in covs) / 10)
    rep = simulate(sys, ctrl, 10, 4000, seed=11)
    assert np.allclose(rep.per_sender_mse, mse, rtol=0.05)
    assert np.allclose(rep.empirical_powers, powers, rtol=0.05)


def test_asymptotic_powers_equal_riccati_diagonal():
    for n, power in ((2, 1.0), (3, 5.0)):
        sys, ctrl = _system(n, power)
        g_diag = dare_circulant(n, sys.beta).G.diagonal().real
        assert np.allclose(asymptotic_powers(sys, ctrl), g_diag, atol=1e-8)
    # the identity does not need the power-matched beta
    sys = build_system(3, 1.1)
    ctrl = lqg_controller(sys)
    g_diag = dare_circulant(3, 1.1).G.diagonal().real
    assert np.allclose(asymptotic_powers(sys, ctrl), g_diag, atol=1e-8)


def test_power_constraint_at_range_edges():
    for n, power in ((5, 0.5), (6, 20.0)):
        sys, ctrl = _system(n, power)
        assert np.allclose(asymptotic_powers(sys, ctrl), power, atol=1e-6)


def test_exponent_gap_bounded_by_stationary_covariance():
    # |(-1/2n) log2 D_j - log2 beta| <= (log2 Kbar_jj + 1)/(2n)
    for n, power in ((2, 1.0), (3, 5.0)):
        sys, ctrl = _system(n, power)
        F = closed_loop(sys, ctrl)
        kbar = dale_solve(F, sys.B @ sys.B.conj().T).diagonal().real
        bound = (np.log2(kbar) + 1.0) / 1.0
        for n_steps in (50, 100, 200):
            d = exact_mse(sys, ctrl, n_steps)
            gap = np.abs(-np.log2(d) / (2.0 * n_steps) - math.log2(sys.beta))
            assert np.all(gap <= bound / (2.0 * n_steps) + 1e-9)


def test_posterior_variances_collapse_geometrically():
    sys, _ = _system(2, 1.0)
    prior, post = stationary_posterior_variances(sys, 15)
    assert np.allclose(post, prior * sys.beta ** (-30.0), rtol=1e-8)


def test_mutual_info_identity():
    # posterior variances shrink by beta^{-2n}, so keep beta^{2n} well away
    # from 1/eps or the prior-minus-energy subtraction loses the identity
    for n, power, steps in ((2, 1.0, 20), (3, 5.0, 8)):
        sys, _ = _system(n, power)
        assert mutual_info_identity_check(sys, steps) <= 1e-8
    # moderate-gain systems sustain longer horizons
    assert mutual_info_identity_check(build_system(2, 1.3), 10) <= 1e-8
    assert mutual_info_identity_check(build_system(3, 1.1), 25) <= 1e-8


def test_mutual_info_scalar_one_step():
    # single sender, one output: 1/2 log(1 + P) = log beta exactly
    sys = build_system(1, math.sqrt(2.0))
    assert mutual_info_identity_check(sys, 1) <= 1e-12


def test_exact_mse_transient_gap_decays():
    # the two covariance timings differ by a transient that shrinks with n
    sys, ctrl = _system(2, 1.0)
    gap = []
    for n_steps in (5, 40):
        a = exact_mse(sys, ctrl, n_steps)
        b = exact_trajectory_stats(sys, ctrl, n_steps).per_sender_mse
        gap.append(np.max(np.abs(np.log(a) - np.log(b))))
    assert gap[1] < gap[0]


GRID_N = [2, 3, 8, 16, 64]
GRID_P = [1e-9, 1e-6, 0.1, 1.0, 20.0, 1e8, 1e12]


@pytest.mark.parametrize("n", GRID_N)
@pytest.mark.parametrize("power", GRID_P)
def test_mirror_image_certificate_across_the_power_range(n, power):
    sys = build_system(n, beta_for_power(n, power))
    beta = sys.beta
    ctrl = lqg_controller(sys)          # certifies, or raises SolverError
    # the eigvals route: the radius sits at the mirror-image radius 1/beta,
    # within half the margin 1 - 1/beta (the `verify` row's rule)
    margin = -math.expm1(-math.log1p(beta - 1.0))
    assert (closed_loop_radius(sys, ctrl) - 1.0 / beta) / margin <= 0.5
    # a gain row scaled by 1 - 2/(beta^n + 1) puts the loop's roots on
    # |z|^n = 2 - beta^-n > 1: eigvals sees it, and the certificate refuses
    bad = ctrl.gains * (1.0 - 2.0 / (beta ** n + 1.0))
    assert closed_loop_radius(sys, mac_code.LinearController(bad)) > 1.0
    where = re.escape(f"(n={n}, beta={beta})")
    with pytest.raises(SolverError, match=where):
        mac_code._certify_stable(sys, bad)


@pytest.mark.parametrize("n, beta", [(2, 1e50), (64, 10.0)])
def test_certificate_refuses_loops_float64_cannot_place(n, beta):
    # rounding the gains and poles moves the roots by about eps beta^n; the
    # float64 loop is unstable at both points (eigvals reads more than 1).
    # At (2, 1e50) the gains' own deviation cancels to exactly 0, so only
    # the rounding floor n eps beta^k refuses it
    sys = build_system(n, beta)
    lam1 = np.expm1(2 * n * np.log1p(beta - 1.0)) / n
    gains = lam1 / (1.0 + n * lam1) * sys.a_diag
    assert closed_loop_radius(sys, mac_code.LinearController(gains)) > 1.0
    with pytest.raises(SolverError, match="not certified stable"):
        lqg_controller(sys)


def test_the_exact_layer_runs_no_doubling(monkeypatch):
    calls = []
    real = riccati._doublings

    def counted(f, q):
        calls.append(np.shape(f))
        return real(f, q)
    monkeypatch.setattr(riccati, "_doublings", counted)
    for n, power in ((3, 2.0), (64, 20.0)):
        sys, ctrl = _system(n, power)
        exact_trajectory_stats(sys, ctrl, 300)
        list(exact_step_table(sys, ctrl, 300))
        exact_mse(sys, ctrl, 300)
        asymptotic_powers(sys, ctrl)
    assert calls == []
    # the counter sees the dense Lyapunov route the layer no longer takes
    dale_solve(closed_loop(sys, ctrl), sys.B @ sys.B.conj().T)
    assert calls == [(64, 64)]


def test_a_design_point_runs_no_eigensolve(monkeypatch):
    calls = []
    real = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return real(a)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    for n, power in ((3, 2.0), (64, 20.0)):
        beta = beta_for_power(n, power)
        sys = build_system(n, beta)
        dare_circulant(n, beta)
        dare_iterate(sys, np.eye(n))
        asymptotic_powers(sys, lqg_controller(sys))
    assert calls == []
    # the workload's own radius is the one eigensolve of a design point
    closed_loop_radius(sys, lqg_controller(sys))
    assert calls == [(64, 64)]
