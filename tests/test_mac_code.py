import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feedcap.mac_code as mac_code
from conftest import BETA_2_1, PHI, SUMCAP_BITS, noiseless_draws
from feedcap.mac_code import (CENTER, MESSAGE_VAR, _first_cov,
                              asymptotic_powers,
                              beta_for_power, build_system, closed_loop,
                              closed_loop_radius, decode, encode_step,
                              exact_mse,
                              exact_step_table, exact_trajectory_stats,
                              lqg_controller,
                              mutual_info_identity_check, simulate,
                              stationary_posterior_variances)
from feedcap.montecarlo import CHUNK, RNG_ALGORITHM, chunk_draws
from feedcap.riccati import (_trajectory_sums, dale_solve, dare_circulant,
                             dare_iterate)


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
    """K_1..K_n by the straight loop: stationary timing applies the closed
    loop from step 1; trajectory timing makes step 1 the open-loop
    amplification A K_0 A'. dtype sets the working precision."""
    A = sys.A.astype(dtype)
    F = closed_loop(sys, ctrl).astype(dtype)
    BBt = (sys.B @ sys.B.conj().T).astype(dtype)
    K = np.eye(sys.n, dtype=dtype) * MESSAGE_VAR
    out = []
    for i in range(1, n_steps + 1):
        if trajectory and i == 1:
            K = A @ K @ A.conj().T
        else:
            K = F @ K @ F.conj().T + noise_var * BBt
        K = (K + K.conj().T) / 2
        out.append(K)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 16])
@pytest.mark.parametrize("n_steps", [1, 2, 50, 300])
def test_exact_propagation_bitwise_matches_straight_loops(n, n_steps):
    # the power-1 code; one sender takes the scalar beta = sqrt(1 + P)
    sys = build_system(n, math.sqrt(2.0) if n == 1 else beta_for_power(n, 1.0))
    ctrl = lqg_controller(sys)
    scale = [sys.beta ** (-2.0 * i) for i in range(1, n_steps + 1)]
    gains_sq = np.abs(ctrl.gains) ** 2

    K = _reference_covs(sys, ctrl, n_steps, 1.0, trajectory=False)[-1]
    assert np.array_equal(exact_mse(sys, ctrl, n_steps),
                          scale[-1] * K.diagonal().real)

    # exact_trajectory_stats doubles instead of stepping, so it sums the
    # same terms in another order and is held to rtol 1e-12, not to bits.
    # Without noise K_n decays through cancelling products of F, and the
    # float64 loop itself drifts 1.4e-12 from the true K_50 at N=16; the
    # loop therefore runs in extended precision here. The channel noise is
    # fixed at 1, so the noiseless case runs the doubling kernel itself.
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
            K, K_sum = _trajectory_sums(closed_loop(sys, ctrl),
                                        np.zeros((n, n), dtype=complex),
                                        _first_cov(sys), n_steps)
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

    covs = _reference_covs(sys, ctrl, n_steps, 1.0, trajectory=True)
    rows = list(exact_step_table(sys, ctrl, n_steps))
    assert [r[0] for r in rows] == list(range(1, n_steps + 1))
    for (step, mse_row, power_row), K, s in zip(rows, covs, scale):
        assert np.array_equal(mse_row, s * K.diagonal().real)
        assert np.array_equal(power_row, gains_sq * K.diagonal().real)


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
