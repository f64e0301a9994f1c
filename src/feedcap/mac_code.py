"""Optimal linear feedback code for the N-sender AWGN multiple access
channel: LQG controller synthesis, the exact covariance layer in closed
form on the DFT bins, Monte Carlo simulation, and the mutual-information
identity.

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
from .riccati import dare_circulant, symmetric_system as build_system
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
    """Stabilizing gains C = (B'GB + 1)^{-1} B'GA, read off the circulant
    Riccati ladder: B'G = lambda_1 B', so C = lambda_1 a / (1 + n lambda_1)
    with a = diag(A) and lambda_1 formed as in dare_circulant. A - BC then
    has its eigenvalues at the mirror images 1/conj(a_j); _certify_stable
    shows them inside the unit circle, or raises SolverError.
    """
    lam1 = np.expm1(2 * sys.n * np.log1p(sys.beta - 1.0)) / sys.n
    gains = lam1 / (1.0 + sys.n * lam1) * sys.a_diag
    _certify_stable(sys, gains)
    return LinearController(gains=gains)


def _certify_stable(sys, gains):
    """Raise SolverError unless every eigenvalue of A - B gains lies inside
    the unit circle, in O(N log N). For A = beta diag(w_j), w_j the n-th
    roots of unity, the loop's characteristic polynomial p differs from
    q(z) = z^n - beta^{-n}, its value at the optimal gains, by sum_k beta^k
    d_k z^{n-k} (k = 1..n), d_k = sum_j (gains_j / a_j) w_j^k (one inverse
    FFT), less 1 - beta^{-2n} at k = n. If sum_k beta^k (|d_k| + n eps), a
    rounding floor added, is below 1 - beta^{-n} <= |q| on |z| = 1,
    Rouche's theorem puts every root of p inside the unit circle.
    """
    n, log_beta = sys.n, np.log1p(sys.beta - 1.0)
    d = n * np.fft.ifft(gains / sys.a_diag)
    d[0] += np.expm1(-2 * n * log_beta)          # d_n, as w_j^n = 1
    gap = np.exp(log_beta * np.arange(1, n + 1)) @ (
        np.abs(np.roll(d, -1)) + n * np.finfo(float).eps)
    margin = -np.expm1(-n * log_beta)
    if not gap < margin:
        raise SolverError(
            f"controller not certified stable (n={n}, beta={sys.beta}): its "
            f"loop polynomial is {gap:.3e} from z^n - beta^-n on the unit "
            f"circle, where 1 - beta^-n = {margin:.3e}")


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


def _bin_cycle(sys, ctrl):
    """(log beta, log|1 - n gamma|, log c) of the loop A - BC, C = gamma a.

    On the DFT bins v_k = (w_j^k), A v_k = beta v_{k+1}, B = v_0 and
    C v_k = 0 but at k = n-1: the loop is a cyclic shift, weight beta but
    w_0 = beta (1 - n gamma) on the wrap. A cycle scales a bin variance by
    c = beta^(2n) |1 - n gamma|^2 (beta^(-2n) at lqg_controller's gamma);
    the loop's eigenvalues solve z^n = beta^n (1 - n gamma), so c < 1 is
    its stability. Raises ValueError unless the gains are gamma diag(A)
    to a few eps, and SolverError for c >= 1.
    """
    n = sys.n
    ratio = ctrl.gains / sys.a_diag
    gamma = ratio.mean()
    if np.max(np.abs(ratio - gamma)) > 8 * np.finfo(float).eps * abs(gamma):
        raise ValueError("the exact layer needs gains proportional to "
                         "diag(A): C = gamma diag(A) for one scalar gamma")
    log_beta = np.log1p(sys.beta - 1.0)
    x, y = n * gamma.real, n * gamma.imag
    # log1p while n gamma is small; past 1/2, 1 - x is exact, and a wrap
    # weight below float64 reads as the smallest normal one
    log_u = (0.5 * np.log1p(y * y - x * (2.0 - x)) if abs(x) < 0.5 else
             np.log(max(math.hypot(1.0 - x, y), np.finfo(float).tiny)))
    log_c = 2.0 * n * log_beta + 2.0 * log_u
    if not log_c < 0.0:
        raise SolverError(
            f"closed loop not stable (n={n}, beta={sys.beta}): its cycle "
            f"gain beta^(2n) |1 - n gamma|^2 is c = {math.exp(log_c):.6e}")
    return log_beta, log_u, log_c


def _bin_diagonal(sys, ctrl, start, n_steps):
    """K_jj after m = 0..n_steps-1 steps of K <- F K F' + BB' from
    K = start I, F = A - BC, in O(n_steps). K stays circulant, K_jj is the
    mean of the bin variances, and the noise enters bin 0 as n. Noise
    injected d steps earlier has grown by g(d) = beta^(2 (d mod n))
    c^floor(d/n); after m = q n + r steps the start adds
    start/n c^q beta^(2r) ((n - r) + r |1 - n gamma|^2). Every term is an
    exp of logs from log1p(beta - 1), and only positive terms are added.
    """
    n = sys.n
    log_beta, log_u, log_c = _bin_cycle(sys, ctrl)
    q, r = np.divmod(np.arange(n_steps), n)
    g = np.exp(q * log_c + 2.0 * log_beta * r)
    k = start / n * g * ((n - r) + r * np.exp(2.0 * log_u))
    k[1:] += np.cumsum(g[:-1])
    return k


def exact_mse(sys, ctrl, n_steps):
    """Per-sender MSE beta^{-2 n_steps} diag(K_n) under stationary timing:
    the closed loop and the noise act from step 1, from the uniform-message
    K_0 = I/6. simulate() has no feedback at step 1 (Y_0 = 0), a transient
    that exact_trajectory_stats follows and this function does not.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    k = _bin_diagonal(sys, ctrl, MESSAGE_VAR, n_steps + 1)[-1]
    return np.full(sys.n, sys.beta ** (-2.0 * n_steps) * k)


def exact_trajectory_stats(sys, ctrl, n_steps):
    """Exact covariances under the same timing simulate() uses.

    Step 1 is pure state amplification K_1 = A K_0 A' = beta^2/6 I
    (Y_0 = 0); noise and feedback enter from step 2 on. Returns the
    per-sender MSE beta^{-2n} (K_n)_jj, its exponents
    log2(beta) - log2((K_n)_jj)/(2n) (taken in the log domain, so they stay
    finite after the MSE itself underflows), and the per-sender powers
    averaged over steps 1..n_steps.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    k = _bin_diagonal(sys, ctrl, sys.beta ** 2 * MESSAGE_VAR, n_steps)
    return ExactStats(
        per_sender_mse=np.full(sys.n, sys.beta ** (-2.0 * n_steps) * k[-1]),
        mse_exponents=np.full(sys.n, math.log2(sys.beta)
                              - math.log2(k[-1]) / (2.0 * n_steps)),
        mean_powers=(np.abs(ctrl.gains) ** 2) * k.sum() / n_steps)


def exact_step_table(sys, ctrl, n_steps):
    """Per-step exact decoding MSE and transmit powers for plotting.

    Yields (step, mse_row, power_row) for step = 1..n_steps under the same
    timing as exact_trajectory_stats: mse_row(j) = beta^{-2 step} (K_step)_jj
    and power_row(j) = |c_j|^2 (K_step)_jj.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    k = _bin_diagonal(sys, ctrl, sys.beta ** 2 * MESSAGE_VAR, n_steps)
    gains_sq = np.abs(ctrl.gains) ** 2
    for i, k_i in enumerate(k, 1):
        yield i, np.full(sys.n, sys.beta ** (-2.0 * i) * k_i), gains_sq * k_i


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
    """Stationary per-sender powers |c_j|^2 Kbar_jj, from the DFT-bin closed
    form of the Lyapunov solution: summing g(d) over d >= 0 gives
    Kbar_jj = (beta^(2n) - 1)/(beta^2 - 1)/(1 - c), which is
    beta^(2n)/(beta^2 - 1) at lqg_controller's gains."""
    log_beta, _, log_c = _bin_cycle(sys, ctrl)
    kbar = (np.expm1(2 * sys.n * log_beta) / np.expm1(2 * log_beta)
            / -np.expm1(log_c))
    return (np.abs(ctrl.gains) ** 2) * kbar


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
