"""Optimal linear feedback code for the N-sender AWGN multiple access
channel: LQG controller synthesis, exact covariance propagation, Monte
Carlo simulation, and the mutual-information identity.

The code is built on the symmetric diagonal system A = beta * diag(omega_j)
with omega_j the n-th roots of unity and B the all-ones column. Each sender
runs the state recursion

    S_i(j) = beta omega_j S_{i-1}(j) + Y_{i-1},      Y_0 = 0,

transmits X_ji = -c_j S_i(j), and the decoder mirrors the same recursion
from a zero start, giving the exact error identity M - Mhat = A^{-n} S_n on
every trajectory. The gains c_j come from the Riccati solution G through
C = (B'GB + 1)^{-1} B'GA, which stabilizes A - BC.

Messages are complex points uniform on the unit square (0,1)x(0,1); they
are centered (1/2 subtracted per axis) before seeding the state, so the
initial covariance is diagonal with 1/6 per sender (1/12 per real axis).
Channel noise is circular complex Gaussian with unit total variance (1/2
per axis). Rates and exponents are reported per complex symbol in bits.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .montecarlo import RNG_ALGORITHM, check_seed, chunk_draws, map_chunks
from .matrix_core import spectral_radius
from .riccati import (MacSystem, _trajectory_sums, dale_solve,
                      dare_circulant, symmetric_system as build_system)
from .sum_capacity import LN2, MacParams, solve_phi

CENTER = 0.5 + 0.5j
MESSAGE_VAR = 1.0 / 6.0           # two uniform(0,1) axes, 1/12 each


@dataclass(frozen=True)
class LinearController:
    """Row of per-sender feedback gains C = [c_1 ... c_n]."""
    gains: np.ndarray


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo results; exponents are in bits."""
    n_steps: int
    trials: int
    per_sender_mse: np.ndarray
    mse_exponents: np.ndarray
    empirical_powers: np.ndarray
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class ExactStats:
    """Covariance-propagated counterparts of the Monte Carlo estimates."""
    per_sender_mse: np.ndarray
    mse_exponents: np.ndarray
    mean_powers: np.ndarray


def lqg_controller(sys):
    """Stabilizing gains C = (B'GB + 1)^{-1} B'GA from the Riccati solution.

    G has constant row sums, so B'G = lambda_1 B' and every gain has the
    same magnitude lambda_1 beta / (1 + n lambda_1).
    """
    G = dare_circulant(sys.n, sys.beta).G
    s = 1.0 + (sys.B.conj().T @ G @ sys.B).real.item()
    gains = np.asarray(sys.B.conj().T @ G @ sys.A).ravel() / s
    ctrl = LinearController(gains=gains)
    rad = closed_loop_radius(sys, ctrl)
    if rad >= 1.0:
        raise SolverError(f"controller failed to stabilize: radius {rad}")
    return ctrl


def closed_loop(sys, ctrl):
    """State matrix A - BC of the loop driven only by channel noise."""
    return sys.A - sys.B @ ctrl.gains[None, :]


def closed_loop_radius(sys, ctrl):
    return spectral_radius(closed_loop(sys, ctrl))


def beta_for_power(n, power):
    """Gain beta = (1 + n P phi(P))^{1/(2n)} meeting the power constraint P.

    With this beta the Riccati diagonal is exactly P and the top eigenvalue
    lambda_1 is P phi(P), so the code transmits at power P per sender and
    n log2(beta) equals the sum capacity.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    phi = solve_phi(MacParams(n_senders=n, power=power)).phi
    return float((1.0 + n * power * phi) ** (1.0 / (2 * n)))


def encode_step(sys, ctrl, state, y_prev):
    """One encoder step from the previous state and channel output.

    Returns (new_state, per_sender_symbols, channel_input) where
    new_state(j) = beta omega_j state(j) + y_prev and the channel input is
    the sum of the per-sender symbols -c_j new_state(j).
    """
    state = np.asarray(state, dtype=complex)
    new_state = sys.a_diag * state + y_prev
    symbols = -ctrl.gains * new_state
    return new_state, symbols, complex(symbols.sum())


def decode(sys, y_history):
    """Decode a centered message estimate from the output sequence.

    Mirrors the encoder recursion from a zero start (the step-1 input is
    the conventional Y_0 = 0, so the final element of y_history never
    enters) and returns Mhat = -A^{-n} Shat_n. The estimate is centered:
    add 1/2 per axis to land back in the unit square.
    """
    y = np.asarray(y_history, dtype=complex).ravel()
    n_steps = y.size
    if n_steps < 1:
        raise ValueError("y_history must contain at least one output")
    a = sys.a_diag
    sh = np.zeros(sys.n, dtype=complex)
    prev = 0.0 + 0.0j
    for i in range(n_steps):
        sh = a * sh + prev
        prev = y[i]
    return -(a ** (-n_steps)) * sh


def _message_cov(sys):
    return np.eye(sys.n, dtype=complex) * MESSAGE_VAR


def _propagate(F, K, Q, n_steps):
    """Yield K_i = sym(F K_{i-1} F' + Q) for i = 1..n_steps.

    The symmetrized K is the one carried into the next step, which keeps
    round-off from accumulating an anti-Hermitian part.
    """
    for _ in range(n_steps):
        K = F @ K @ F.conj().T + Q
        K = (K + K.conj().T) / 2
        yield K


def _first_cov(sys):
    """K_1 under simulate()'s timing: step 1 is the open-loop amplification
    sym(A K_0 A') (Y_0 = 0); noise and feedback enter from step 2 on."""
    K = sys.A @ _message_cov(sys) @ sys.A.conj().T
    return (K + K.conj().T) / 2


def _trajectory_covs(sys, ctrl, n_steps):
    """K_1..K_n under simulate()'s timing, one step at a time."""
    K = _first_cov(sys)
    yield K
    yield from _propagate(closed_loop(sys, ctrl), K, sys.B @ sys.B.conj().T,
                          n_steps - 1)


def exact_mse(sys, ctrl, n_steps):
    """Per-sender MSE from stationary closed-loop covariance propagation.

    Iterates K_i = (A - BC) K_{i-1} (A - BC)' + BB' from the uniform-message
    diagonal K_0 (1/6 per sender) and returns beta^{-2 n_steps} diag(K_n).
    The recursion applies the stationary loop from the very first step;
    simulate() has no feedback term at step 1 (the first output does not
    exist yet), a transient difference that decays at the closed-loop
    spectral radius. exact_trajectory_stats propagates that exact timing
    instead.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    K = _message_cov(sys)
    for K in _propagate(closed_loop(sys, ctrl), K, sys.B @ sys.B.conj().T,
                        n_steps):
        pass
    return sys.beta ** (-2.0 * n_steps) * K.diagonal().real


def exact_trajectory_stats(sys, ctrl, n_steps):
    """Exact covariances under the same timing simulate() uses.

    Step 1 is pure state amplification K_1 = sym(A K_0 A') (Y_0 = 0); noise
    and feedback enter from step 2 on. K_n and the sum K_1 + ... + K_n come
    from square-and-multiply doubling of the closed loop, O(N^3 log n).
    Returns the per-sender MSE beta^{-2n} (K_n)_jj, its exponents
    log2(beta) - log2((K_n)_jj)/(2n) (taken in the log domain, so they stay
    finite after the MSE itself underflows), and the per-sender powers
    averaged over steps 1..n_steps.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    K, K_sum = _trajectory_sums(closed_loop(sys, ctrl),
                                sys.B @ sys.B.conj().T, _first_cov(sys),
                                n_steps)
    k_diag = K.diagonal().real
    powers = (np.abs(ctrl.gains) ** 2) * K_sum.diagonal().real / n_steps
    return ExactStats(
        per_sender_mse=sys.beta ** (-2.0 * n_steps) * k_diag,
        mse_exponents=math.log2(sys.beta) - np.log2(k_diag) / (2.0 * n_steps),
        mean_powers=powers)


def exact_step_table(sys, ctrl, n_steps):
    """Per-step exact decoding MSE and transmit powers for plotting.

    Yields (step, mse_row, power_row) for step = 1..n_steps under the same
    timing as exact_trajectory_stats: mse_row(j) = beta^{-2 step} (K_step)_jj
    and power_row(j) = |c_j|^2 (K_step)_jj.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    gains_sq = np.abs(ctrl.gains) ** 2
    for i, K in enumerate(_trajectory_covs(sys, ctrl, n_steps), 1):
        diag = K.diagonal().real
        yield i, sys.beta ** (-2.0 * i) * diag, gains_sq * diag


def _run_chunk(sys, ctrl, n_steps, seed, chunk, count):
    n = sys.n
    a = sys.a_diag
    u, z = chunk_draws(seed, chunk, (count, n, 2), (count, n_steps, 2),
                       math.sqrt(0.5))
    S = u[..., 0] + 1j * u[..., 1] - CENTER
    noise = z[..., 0] + 1j * z[..., 1]
    y = np.zeros((count, 1), dtype=complex)
    # sum over trials and steps of |S|^2, per real axis of each sender
    state_sq = np.zeros(2 * n)
    S_axes = S.view(np.float64)
    for i in range(n_steps):
        S *= a
        S += y
        state_sq += np.einsum("ij,ij->j", S_axes, S_axes)
        # einsum rather than S @ gains: a BLAS product may start its own
        # threads, which fight the chunk pool (3x slower at N=16, 2 threads)
        y = (noise[:, i] - np.einsum("ij,j->i", S, ctrl.gains))[:, None]
    powers = (np.abs(ctrl.gains) ** 2) * (state_sq[0::2] + state_sq[1::2])
    return (np.abs(S) ** 2).sum(axis=0), powers


def simulate(sys, ctrl, n_steps, trials, seed, threads=1):
    """Monte Carlo run of the code over trials independent messages.

    Trials run in fixed 1024-trial chunks, each drawing its messages and
    noise from one counter-based stream keyed by (seed, chunk index), so
    the report is bit-identical for a fixed seed regardless of thread count
    or execution order. Chunk sums are added in chunk order.

    The error is read off the senders' state through the identity
    M - decode(Y) = A^{-n} S_n, without subtracting nearly equal numbers:
    the MSE is beta^{-2n} mean|S_n,j|^2, and the exponents
    log2(beta) - log2(mean|S_n,j|^2)/(2n) stay finite after it underflows.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_seed(seed)
    parts = map_chunks(
        lambda chunk, count: _run_chunk(sys, ctrl, n_steps, seed, chunk,
                                        count),
        trials, threads)
    final_sq = np.zeros(sys.n)
    pow_acc = np.zeros(sys.n)
    for fs, pa in parts:
        final_sq += fs
        pow_acc += pa
    mean_sq = final_sq / trials
    return SimReport(
        n_steps=n_steps, trials=trials,
        per_sender_mse=sys.beta ** (-2.0 * n_steps) * mean_sq,
        mse_exponents=(math.log2(sys.beta)
                       - np.log2(mean_sq) / (2.0 * n_steps)),
        empirical_powers=pow_acc / (trials * n_steps),
        seed=int(seed))


def asymptotic_powers(sys, ctrl):
    """Stationary per-sender powers |c_j|^2 Kbar_jj from the Lyapunov solution."""
    F = closed_loop(sys, ctrl)
    kbar = dale_solve(F, sys.B @ sys.B.conj().T)
    return (np.abs(ctrl.gains) ** 2) * kbar.diagonal().real


def stationary_posterior_variances(sys, n_steps):
    """Prior and posterior per-sender variances under stationary coding.

    Starts the innovation code at its stationary covariance Ktilde and
    propagates the cross-covariance J_i = Cov(U, X_i) of the initial state
    U with the running state. Outputs are mutually independent under
    innovation coding, so the posterior variance after n outputs is the
    prior minus the accumulated per-output energy:

        Var(U_m | Y^n) = Ktilde_mm - sum_i |(J_i B)_m|^2 / (1 + B'Ktilde B)

    which collapses to Ktilde_mm beta^{-2n}.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    K = dare_circulant(sys.n, sys.beta).G
    s = 1.0 + (sys.B.conj().T @ K @ sys.B).real.item()
    kb = K @ sys.B
    J = K.copy()
    acc = np.zeros(sys.n)
    for _ in range(n_steps):
        jb = J @ sys.B
        acc += (np.abs(jb.ravel()) ** 2) / s
        J = (J - (jb @ kb.conj().T) / s) @ sys.A.conj().T
    prior = K.diagonal().real
    return prior, prior - acc


def mutual_info_identity_check(sys, n_steps):
    """Residual of I(U_m; Y^n) = n log2(beta) bits, maximized over senders.

    The information is computed from propagated Gaussian covariances as
    1/2 log(prior/posterior) per sender.
    """
    prior, post = stationary_posterior_variances(sys, n_steps)
    mi = 0.5 * np.log(prior / post) / LN2
    target = n_steps * math.log(sys.beta) / LN2
    return float(np.max(np.abs(mi - target)))
