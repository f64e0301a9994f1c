import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feedcap.p2p_gaussian as p2p_gaussian
from conftest import HALF_LOG2_2PIE, noiseless_draws
from feedcap.errors import SolverError
from feedcap.montecarlo import CHUNK, RNG_ALGORITHM, chunk_draws
from feedcap.p2p_gaussian import (Arma1Spectrum, WHITE, ZpkFilter,
                                  bode_integral, entropy_rate,
                                  feedback_transform, grid_capacity_search,
                                  instability, periodic_integral,
                                  power_integral, random_stabilized_filter,
                                  rate_integral, sk_filter,
                                  sk_recursion_simulate)


def test_zpk_validation():
    with pytest.raises(ValueError):
        ZpkFilter(zeros=(0.5, 0.2), poles=(1.3,), gain=1.0)  # improper
    with pytest.raises(ValueError):
        ZpkFilter(zeros=(), poles=(1.0,), gain=1.0)          # on the circle
    with pytest.raises(ValueError):
        ZpkFilter(zeros=(), poles=(float("inf"),), gain=1.0)


def test_zpk_response_known_point():
    f = ZpkFilter(zeros=(0.5,), poles=(2.0, 3.0), gain=4.0)
    z = 1.0 + 0.0j
    assert f.response(z) == pytest.approx(4.0 * 0.5 / ((-1.0) * (-2.0)))


def test_spectrum_conventions():
    s = Arma1Spectrum(alpha=0.5, pole_coef=0.2)
    s_lin = Arma1Spectrum(alpha=0.5, pole_coef=0.2, convention="as-written")
    om = np.linspace(-np.pi, np.pi, 7)
    assert np.allclose(s.density(om), s_lin.density(om) ** 2)
    assert np.allclose(WHITE.density(om), 1.0)
    with pytest.raises(ValueError):
        Arma1Spectrum(alpha=1.5, pole_coef=0.0)
    with pytest.raises(ValueError):
        Arma1Spectrum(alpha=0.0, pole_coef=1.0)


def test_periodic_integral_basics():
    assert periodic_integral(lambda om: np.ones_like(om)) == pytest.approx(1.0)
    assert periodic_integral(np.cos) == pytest.approx(0.0, abs=1e-12)
    assert periodic_integral(
        lambda om: np.cos(om) ** 2) == pytest.approx(0.5, abs=1e-10)


def test_periodic_integral_settles_a_kink():
    # a kink at omega = 0 leaves the grid mean an O(h^2) error; the Simpson
    # combination of two successive means removes it
    assert periodic_integral(
        lambda om: 1e5 * np.abs(np.sin(om / 2))) == pytest.approx(
            2e5 / np.pi, abs=1e-8)


def test_periodic_integral_fails_loudly_at_the_cap():
    # a square-root cusp leaves an O(h^1.5) error that neither the grid
    # mean nor its Simpson combination settles within 2^20 points
    with pytest.raises(SolverError, match="failed to settle"):
        periodic_integral(lambda om: 1e5 * np.sqrt(np.abs(np.sin(om / 2))))


def test_integrals_settle_within_4096_points(monkeypatch):
    # count the points of every integrand the module hands to
    # periodic_integral, one total per integral
    seen = []

    def counting(func):
        def counted(omega):
            seen[-1] += len(omega)
            return func(omega)
        seen.append(0)
        return periodic_integral(counted)
    monkeypatch.setattr("feedcap.p2p_gaussian.periodic_integral", counting)
    b = feedback_transform(sk_filter(1.0))
    assert rate_integral(b) == pytest.approx(0.5, abs=1e-12)
    assert power_integral(b) == pytest.approx(1.0, abs=1e-12)
    f = random_stabilized_filter(np.random.default_rng(0))
    assert bode_integral(f) == pytest.approx(instability(f), abs=1e-12)
    assert len(seen) == 3
    assert max(seen) <= 4096, seen


@pytest.mark.parametrize("pole, gain", [
    (0.0, 0.5), (0.5, 2.0), (0.5, -2.0), (0.9, 0.3), (0.99, 0.3),
    (0.99, -0.3), (0.99, 5.0), (0.99, -0.005), (-0.9, 0.5), (-0.99, -3.0)])
def test_one_pole_integrals_match_closed_forms(pole, gain):
    # 1 + B = (z - pole + gain)/(z - pole), so Jensen's formula gives the
    # rate log2+|pole - gain|; Parseval gives the white-noise power
    b = ZpkFilter(zeros=(), poles=(pole,), gain=gain)
    assert rate_integral(b) == pytest.approx(
        max(0.0, math.log2(abs(pole - gain))), abs=1e-12)
    assert power_integral(b) == pytest.approx(
        gain * gain / (1.0 - pole * pole), rel=1e-12)


@pytest.mark.parametrize("alpha, pole, pole_coef", [
    (1.0, 0.0, 0.0), (1.0, 0.5, 0.0), (1.0, 0.9, 0.5), (1.0, -0.9, 0.0),
    (1.0, 0.5, -0.7), (-1.0, 0.0, 0.0), (-1.0, 0.5, 0.0), (-1.0, 0.9, 0.5),
    (-1.0, -0.9, 0.0), (-1.0, 0.5, -0.7),
    # poles next to the kink, as on the default search grid
    (-1.0, 0.99, 0.0), (-1.0, 0.98, -0.5), (-1.0, 0.99, 0.9),
    (1.0, -0.99, 0.0), (1.0, -0.98, 0.5), (1.0, 0.99, -0.9)])
def test_power_integral_kink_case(alpha, pole, pole_coef):
    # as written, |1 + alpha e^{jw}| with |alpha| = 1 has a kink at w = 0 or
    # pi. The integrand is even and smooth on [0, pi], so Gauss-Legendre on
    # panels there, graded towards both ends where a pole near +-1 peaks,
    # is the reference.
    s = Arma1Spectrum(alpha=alpha, pole_coef=pole_coef,
                      convention="as-written")
    b = ZpkFilter(zeros=(), poles=(pole,), gain=1.0)
    x, w = np.polynomial.legendre.leggauss(60)
    edges = [0.0, 1e-3, 1e-2, 0.1, 1.0, np.pi - 1.0, np.pi - 0.1,
             np.pi - 1e-2, np.pi - 1e-3, np.pi]
    ref = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        om = lo + 0.5 * (hi - lo) * (x + 1.0)
        ref += 0.5 * (hi - lo) / np.pi * w @ (
            np.abs(b.response(np.exp(1j * om))) ** 2 * s.density(om))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert power_integral(b, s) == pytest.approx(ref, abs=1e-8)


def test_sk_filter_chain_single_power():
    f = sk_filter(3.0)
    assert instability(f) == pytest.approx(0.5 * math.log2(4.0), abs=1e-12)
    b = feedback_transform(f)
    # closed-loop pole moves to 1/beta
    assert abs(b.poles[0]) == pytest.approx(0.5, abs=1e-12)
    assert rate_integral(b) == pytest.approx(1.0, abs=1e-6)
    assert power_integral(b) == pytest.approx(3.0, abs=1e-6)
    with pytest.raises(ValueError):
        sk_filter(0.0)


def test_sk_filter_unit_power_closed_form():
    f = sk_filter(1.0)
    root2 = math.sqrt(2.0)
    assert f.poles == (root2 + 0j,)
    assert f.gain == pytest.approx(-1.0 / root2, abs=1e-15)
    assert instability(f) == pytest.approx(0.5, abs=1e-12)
    assert power_integral(feedback_transform(f)) == pytest.approx(1.0,
                                                                  abs=1e-8)


def test_instability_of_stable_filter_is_zero():
    f = ZpkFilter(zeros=(), poles=(0.5, -0.3), gain=2.0)
    assert instability(f) == 0.0


def test_instability_counts_only_unstable_poles():
    f = ZpkFilter(zeros=(0.1, 0.2), poles=(1.5, 0.5, -2.0), gain=1.0)
    assert instability(f) == pytest.approx(math.log2(1.5) + 1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.7, 0.7), st.floats(1.1, 1.9), st.floats(-5.0, 5.0))
def test_feedback_transform_pointwise(zero, pole, gain):
    # B = F / (1 - F) must hold at any probe point off the poles
    if abs(gain) < 1e-3:
        gain = 1.0
    f = ZpkFilter(zeros=(zero,), poles=(pole, 0.3), gain=gain)
    b = feedback_transform(f)
    for z in (0.9 + 0.9j, -1.4 + 0.2j, 2.5 - 1.0j):
        fv = f.response(z)
        assert b.response(z) == pytest.approx(fv / (1.0 - fv), rel=1e-8)


def test_feedback_transform_zero_gain():
    b = feedback_transform(ZpkFilter(zeros=(), poles=(1.4,), gain=0.0))
    assert b.gain == 0.0
    assert power_integral(b) == 0.0
    assert rate_integral(b) == 0.0


def test_degenerate_loop_same_error_everywhere():
    # d - gain*n = (z - 1.5) - (z - 0.5) = -1: the loop drops degree
    f = ZpkFilter(zeros=(0.5,), poles=(1.5,), gain=1.0)
    messages = []
    for fn in (feedback_transform, bode_integral):
        with pytest.raises(SolverError, match="drops degree") as err:
            fn(f)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_bode_requires_closed_loop_stability():
    # tiny gain cannot pull the unstable pole inside the circle
    f = ZpkFilter(zeros=(), poles=(1.4,), gain=1e-6)
    with pytest.raises(SolverError):
        bode_integral(f)


def test_power_integral_requires_stability():
    with pytest.raises(SolverError):
        power_integral(ZpkFilter(zeros=(), poles=(1.4,), gain=1.0))


def test_rate_integrand_singularity_detected():
    # constant B = -1 makes 1 + B vanish identically
    with pytest.raises(SolverError):
        rate_integral(ZpkFilter(zeros=(), poles=(), gain=-1.0))


def test_constant_gain_integrals():
    b = ZpkFilter(zeros=(), poles=(), gain=0.7)
    assert power_integral(b) == pytest.approx(0.49, abs=1e-10)
    assert rate_integral(ZpkFilter(zeros=(), poles=(), gain=0.5)) \
        == pytest.approx(math.log2(1.5), abs=1e-9)
    assert bode_integral(ZpkFilter(zeros=(), poles=(), gain=0.0)) \
        == pytest.approx(0.0, abs=1e-12)


def test_sensitivity_matches_closed_loop_spectrum():
    # |1 + B|^2 from the extracted zpk form equals |1/(1 - F)|^2 pointwise
    rng = np.random.default_rng(12)
    om = np.linspace(-np.pi, np.pi, 64)
    z = np.exp(1j * om)
    for f in (sk_filter(2.0), random_stabilized_filter(rng)):
        b = feedback_transform(f)
        lhs = np.abs(1.0 + b.response(z)) ** 2
        rhs = np.abs(1.0 / (1.0 - f.response(z))) ** 2
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=0.0)


def test_bode_identity_two_pole_example():
    f = ZpkFilter(zeros=(0.5,), poles=(1.3, 1.7), gain=-4.0857)
    assert bode_integral(f) == pytest.approx(math.log2(1.3 * 1.7), abs=2e-6)


def test_random_stabilized_filter_properties():
    rng = np.random.default_rng(8)
    for _ in range(4):
        f = random_stabilized_filter(rng)
        assert instability(f) > 0.0
        b = feedback_transform(f)
        assert max(abs(p) for p in b.poles) < 0.9


def _reference_filter_draw(rng):
    # the per-gain loop: one ZpkFilter and one numpy.roots call per gain
    for _attempt in range(50):
        k = int(rng.integers(1, 4))
        poles = tuple(rng.uniform(1.05, 2.0, size=k))
        zeros = tuple(rng.uniform(-0.8, 0.8, size=k - 1))
        for g in np.linspace(-50.0, 50.0, 2001):
            if g == 0.0:
                continue
            cand = ZpkFilter(zeros=zeros, poles=poles, gain=float(g))
            d = np.poly(cand.poles) if cand.poles else np.array([1.0 + 0j])
            n = np.poly(cand.zeros) if cand.zeros else np.array([1.0 + 0j])
            q = d.astype(complex)
            q[len(q) - len(n):] -= cand.gain * n
            if abs(q[0]) < 1e-12:
                continue
            if np.max(np.abs(np.roots(q))) < 0.9:
                return cand
    raise AssertionError("reference draw found no gain")


@pytest.mark.parametrize("seed, draws", [(17, 2), (8, 1), (1, 1), (0, 1)])
def test_random_filter_matches_per_gain_loop(seed, draws):
    # seeds the acceptance suite, verify and the benchmark draw from
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert random_stabilized_filter(ours) == _reference_filter_draw(ref)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_entropy_rate_white():
    assert entropy_rate(WHITE) == pytest.approx(HALF_LOG2_2PIE, abs=1e-9)


def test_entropy_rate_constant_spectrum():
    class Flat:
        def density(self, omega):
            return np.full_like(np.asarray(omega, dtype=float), 2.89)

    assert entropy_rate(Flat()) == pytest.approx(
        HALF_LOG2_2PIE + math.log2(1.7), abs=1e-9)


@pytest.mark.parametrize("convention", ["squared", "as-written"])
@pytest.mark.parametrize("alpha", [-1.0, 1.0])
def test_entropy_rate_rejects_unit_alpha_before_quadrature(monkeypatch, alpha,
                                                           convention):
    # alpha = -1 had failed on the grid node where S_Z is 0, alpha = 1 after
    # 2^20 points of an unsettled log singularity
    def no_quadrature(func):
        raise AssertionError("quadrature ran")
    monkeypatch.setattr(p2p_gaussian, "periodic_integral", no_quadrature)
    s = Arma1Spectrum(alpha=alpha, pole_coef=0.3, convention=convention)
    with pytest.raises(SolverError,
                       match=rf"alpha={alpha} \(convention {convention}\)"):
        entropy_rate(s)


def test_entropy_rate_arma_szego():
    # both monic minimum-phase factors have zero log integral, so the
    # colored spectrum keeps the white entropy rate
    s = Arma1Spectrum(alpha=0.5, pole_coef=0.2)
    assert entropy_rate(s) == pytest.approx(HALF_LOG2_2PIE, abs=1e-7)


def test_sk_recursion_simulation():
    rep = sk_recursion_simulate(1.0, 25, seed=5, trials=2000)
    assert rep.exponent == pytest.approx(0.5, abs=0.01)
    assert rep.empirical_power == pytest.approx(1.0, rel=0.05)
    assert rep.x_trajectory.shape == (25,)
    # reproducibility
    rep2 = sk_recursion_simulate(1.0, 25, seed=5, trials=2000)
    assert rep2.mse == rep.mse
    with pytest.raises(ValueError):
        sk_recursion_simulate(-1.0, 10, seed=0)


def test_sk_recursion_matches_per_trial_reference():
    # the scalar recursion one trial at a time on the same chunk draws;
    # 1100 trials span one full chunk and one partial chunk
    power, n_steps, trials = 2.0, 8, 1100
    beta = math.sqrt(1.0 + power)
    a = (beta * beta - 1.0) / (beta * beta)
    scale = math.sqrt(12.0 * power)
    sq = pow_acc = 0.0
    traj = None
    for chunk, lo in enumerate(range(0, trials, CHUNK)):
        count = min(CHUNK, trials - lo)
        m, z = chunk_draws(4, chunk, (count,), (count, n_steps), 1.0)
        for t in range(count):
            x = x1 = scale * (m[t] - 0.5)
            xs, xhat1 = [], 0.0
            for i in range(n_steps):
                xs.append(x)
                y = x + z[t, i]
                xhat1 += a * y / beta ** i
                x = beta * (x - a * y)
            traj = xs if traj is None else traj
            pow_acc += sum(v * v for v in xs)
            sq += ((x1 - xhat1) / scale) ** 2
    rep = sk_recursion_simulate(power, n_steps, seed=4, trials=trials)
    assert rep.mse == pytest.approx(sq / trials, rel=1e-12)
    assert rep.empirical_power == pytest.approx(
        pow_acc / (trials * n_steps), rel=1e-12)
    assert np.allclose(rep.x_trajectory, traj, rtol=1e-12, atol=0)
    assert rep.rng_algorithm == RNG_ALGORITHM


@pytest.mark.parametrize("n_steps", [50, 150, 3000])
def test_sk_exponent_reaches_log2_beta_at_long_horizons(n_steps):
    # n log2(beta) is 39.6 bits at 50 steps, 119 at 150 and 2377 at 3000;
    # the error is read off X_{n+1}, so it keeps its digits at any horizon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sk_recursion_simulate(2.0, n_steps, seed=1, trials=2000)
    assert rep.exponent == pytest.approx(0.5 * math.log2(3.0), rel=0.01)
    assert rep.empirical_power == pytest.approx(2.0, rel=0.05)


def test_sk_relative_mse_tracks_closed_form():
    # with moderate n the sample relative MSE sits near beta^{-2n}
    rep = sk_recursion_simulate(3.0, 15, seed=2, trials=3000)
    assert rep.relative_mse == pytest.approx(2.0 ** (-30.0), rel=0.2)


def test_sk_noiseless_exact_decay(monkeypatch):
    # without noise the error amplitude shrinks by beta^{-2} per step, so
    # the relative MSE ratio between horizons is an exact power of beta
    monkeypatch.setattr(p2p_gaussian, "chunk_draws", noiseless_draws)
    r5 = sk_recursion_simulate(3.0, 5, seed=1, trials=4)
    r10 = sk_recursion_simulate(3.0, 10, seed=1, trials=4)
    assert r10.relative_mse / r5.relative_mse == pytest.approx(2.0 ** (-20.0),
                                                               rel=1e-9)


def test_grid_search_white_noise_optimum():
    best = grid_capacity_search(WHITE, 1.0)
    assert best.filter.poles[0].real == pytest.approx(1.0 / math.sqrt(2.0),
                                                      abs=0.01)
    assert best.rate == pytest.approx(0.5, abs=0.005)
    assert best.power <= 1.0 + 1e-9


def test_grid_search_fine_grid_tightens_rate():
    # 1e-3 pole resolution around the known optimum pins the rate to 1e-3
    grid = np.arange(0.65, 0.761, 0.001)
    best = grid_capacity_search(WHITE, 1.0, pole_grid=grid)
    assert best.filter.poles[0].real == pytest.approx(1.0 / math.sqrt(2.0),
                                                      abs=0.01)
    assert best.rate == pytest.approx(0.5, abs=1e-3)


def test_grid_search_colored_noise_runs():
    s = Arma1Spectrum(alpha=0.5, pole_coef=0.2)
    best = grid_capacity_search(s, 2.0,
                                pole_grid=np.linspace(0.0, 0.95, 40))
    assert best.rate > 0.0
    assert best.power == pytest.approx(2.0, rel=1e-6)
    # regression value; no closed form for colored-noise capacity in scope
    assert best.rate == pytest.approx(0.6401308460397498, rel=1e-6)
    with pytest.raises(ValueError):
        grid_capacity_search(s, 0.0)


@pytest.mark.parametrize("gains", [0, 1])
def test_grid_search_rejects_fewer_than_two_gains(gains):
    with pytest.raises(ValueError, match="gains_per_pole"):
        grid_capacity_search(WHITE, 1.0, pole_grid=[0.5],
                             gains_per_pole=gains)


def test_grid_search_moving_average_regression():
    s = Arma1Spectrum(alpha=0.9, pole_coef=0.0)
    best = grid_capacity_search(s, 1.0,
                                pole_grid=np.linspace(0.0, 0.95, 40))
    assert best.rate == pytest.approx(0.1869228140091332, rel=1e-6)
