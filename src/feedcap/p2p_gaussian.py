"""Point-to-point stationary Gaussian feedback channel machinery.

Rational open-loop filters F(z) are held in zero-pole-gain form,

    F(z) = gain * prod_i (z - zero_i) / prod_j (z - pole_j),

so the open-loop instability sum needs no root finding; only the
closed-loop characteristic polynomial is factored (companion-matrix
eigenvalues via numpy.roots). The core identities exercised here:

  * instability(F) = sum of log|p| over unstable open-loop poles;
  * the Bode sensitivity integral of log|1/(1-F)| equals instability(F)
    whenever the closed loop is stable;
  * the one-pole filter at beta = sqrt(1+P) closes the chain
    instability = rate integral of log|1+B| = 1/2 log(1+P) with
    feedback power exactly P over white noise.

Every integrand is 2pi-periodic, so each integral is the plain mean over an
equispaced periodic grid (the trapezoid rule, which converges geometrically
on smooth periodic integrands). The grid starts at 64 points and doubles
until successive means, or successive Simpson combinations of two means for
a kinked integrand, agree below 1e-8 (Richardson gate), capped at 2^20
points. Rates are in bits.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverError
from .montecarlo import RNG_ALGORITHM, check_seed, chunk_draws, map_chunks
from .sum_capacity import LN2

UNIT_CIRCLE_TOL = 1e-9
QUAD_POINTS = 64
RICHARDSON_TOL = 1e-8
MAX_QUAD_POINTS = 2 ** 20

DRAW_POLE_RANGE = (1.05, 2.0)
DRAW_RADIUS_MARGIN = 0.9
DRAW_GAINS = np.linspace(-50.0, 50.0, 2001)
DRAW_GAINS = DRAW_GAINS[DRAW_GAINS != 0.0]


@dataclass(frozen=True)
class ZpkFilter:
    """Causal rational filter in zero-pole-gain form."""
    zeros: tuple
    poles: tuple
    gain: complex

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        object.__setattr__(self, "gain", complex(self.gain))
        if len(self.zeros) > len(self.poles):
            raise ValueError("filter must be proper: #zeros <= #poles")
        vals = self.zeros + self.poles + (self.gain,)
        if any(not (math.isfinite(v.real) and math.isfinite(v.imag))
               for v in vals):
            raise ValueError("filter parameters must be finite")
        for p in self.poles:
            if abs(abs(p) - 1.0) < UNIT_CIRCLE_TOL:
                raise ValueError(f"pole {p} sits on the unit circle")

    def response(self, z):
        """Evaluate F at points z (vectorized)."""
        z = np.asarray(z, dtype=complex)
        num = np.full(z.shape, self.gain, dtype=complex)
        for zz in self.zeros:
            num = num * (z - zz)
        den = np.ones(z.shape, dtype=complex)
        for p in self.poles:
            den = den * (z - p)
        return num / den


@dataclass(frozen=True)
class Arma1Spectrum:
    """Rational first-order noise spectrum with selectable modulus convention.

    The squared convention is the standard power spectral density
    |1 + alpha e^{jw}|^2 / |1 + pole_coef e^{jw}|^2; as_written drops the
    squares. Both are positive for |alpha| <= 1, |pole_coef| < 1.
    """
    alpha: float
    pole_coef: float
    convention: str = "squared"

    def __post_init__(self):
        if not -1.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [-1, 1]")
        if not -1.0 < self.pole_coef < 1.0:
            raise ValueError("pole_coef must lie strictly inside (-1, 1)")
        if self.convention not in ("squared", "as-written"):
            raise ValueError("convention must be 'squared' or 'as-written'")

    def density(self, omega):
        z = np.exp(1j * np.asarray(omega, dtype=float))
        mag = np.abs(1.0 + self.alpha * z) / np.abs(1.0 + self.pole_coef * z)
        return mag ** 2 if self.convention == "squared" else mag


WHITE = Arma1Spectrum(alpha=0.0, pole_coef=0.0)


def _grid_mean(func, points):
    vals = func(np.linspace(-np.pi, np.pi, points, endpoint=False))
    if not np.all(np.isfinite(vals)):
        raise SolverError("integrand not finite on the quadrature grid")
    return float(vals.mean())


def periodic_integral(func):
    """(1/2pi) integral of a 2pi-periodic func over [-pi, pi].

    The mean of func on -pi + 2pi k/points, k < points. Doubles points from
    64 until two successive means agree below 1e-8, or two successive
    Simpson values (4 mean_2n - mean_n)/3 do, which settle a kink (an
    O(h^2) error of the mean) as h^4; raises if the cap of 2^20 points is
    reached first.
    """
    points = QUAD_POINTS
    prev = _grid_mean(func, points)
    prev_simpson = math.nan
    while points < MAX_QUAD_POINTS:
        points *= 2
        cur = _grid_mean(func, points)
        simpson = (4.0 * cur - prev) / 3.0
        if abs(cur - prev) < RICHARDSON_TOL:
            return cur
        if abs(simpson - prev_simpson) < RICHARDSON_TOL:
            return simpson
        prev, prev_simpson = cur, simpson
    raise SolverError(
        f"quadrature failed to settle below {RICHARDSON_TOL} within "
        f"{MAX_QUAD_POINTS} points")


def sk_filter(power):
    """One-pole open loop achieving the feedback capacity over white noise.

    F(z) = -(beta^2 - 1)/beta * 1/(z - beta) with beta = sqrt(1 + P):
    a single pole at beta and gain -(beta^2 - 1)/beta.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    beta = math.sqrt(1.0 + power)
    return ZpkFilter(zeros=(), poles=(beta,), gain=-(beta * beta - 1.0) / beta)


def instability(f):
    """Sum of log|p| over open-loop poles outside the unit circle."""
    total = 0.0
    for p in f.poles:
        if abs(p) > 1.0:
            total += math.log(abs(p))
    return total / LN2


def _loop_poly(f, gain):
    # characteristic polynomial of the loop, the denominator of 1 - F:
    # d - gain*n with n right-aligned; gain may be a column of gains
    d = np.poly(f.poles) if f.poles else np.array([1.0 + 0j])
    n = np.poly(f.zeros) if f.zeros else np.array([1.0 + 0j])
    q = np.broadcast_to(d.astype(complex), np.broadcast(gain, d).shape).copy()
    q[..., len(d) - len(n):] -= gain * n
    return q


def _loop_roots(f):
    """(lead, roots) of the loop polynomial; raises if 1 - F drops degree."""
    q = _loop_poly(f, f.gain)
    lead = q[0]
    if abs(lead) < 1e-12 * max(1.0, np.abs(q).max()):
        raise SolverError("degenerate loop: 1 - F drops degree "
                          "(leading coefficient cancels)")
    return lead, np.roots(q)


def feedback_transform(f):
    """Closed-loop filter B = F / (1 - F) in zero-pole-gain form.

    Keeps the zeros of F; the poles become the roots of the characteristic
    polynomial d - gain*n.
    """
    if f.gain == 0:
        return ZpkFilter(zeros=(), poles=(), gain=0.0)
    lead, poles = _loop_roots(f)
    return ZpkFilter(zeros=f.zeros, poles=tuple(poles),
                     gain=f.gain / lead)


def _require_stable(b):
    for p in b.poles:
        if abs(p) >= 1.0:
            raise SolverError(f"filter has a pole at {p} (|.| = {abs(p):.6f}) "
                              "outside or on the unit circle")


def power_integral(b, s_z=WHITE):
    """Feedback transmit power (1/2pi) integral of |B|^2 S_Z over [-pi, pi]."""
    _require_stable(b)
    if b.gain == 0:
        return 0.0
    return periodic_integral(
        lambda om: np.abs(b.response(np.exp(1j * om))) ** 2 * s_z.density(om))


def rate_integral(b):
    """Achievable rate (1/2pi) integral of 1/2 log|1 + B|^2 over [-pi, pi]."""
    _require_stable(b)
    if b.gain == 0:
        return 0.0

    def integrand(om):
        mag = np.abs(1.0 + b.response(np.exp(1j * om)))
        if np.min(mag) < 1e-14:
            raise SolverError("1 + B vanishes on the quadrature grid; "
                              "the rate integrand is singular")
        return np.log(mag) / LN2

    return periodic_integral(integrand)


def bode_integral(f):
    """Sensitivity integral (1/2pi) integral of log|1/(1-F)| over [-pi, pi].

    Requires the closed loop to be stable (all characteristic roots inside
    the unit circle); equals instability(f) up to quadrature error.
    """
    for r in _loop_roots(f)[1]:
        if abs(r) >= 1.0:
            raise SolverError(f"closed loop unstable: characteristic root at "
                              f"{r} (|.| = {abs(r):.6f})")
    return periodic_integral(
        lambda om: -np.log(np.abs(1.0 - f.response(np.exp(1j * om)))) / LN2)


def random_stabilized_filter(rng):
    """Draw a random open loop with unstable poles that 1/(1-F) stabilizes.

    Picks k = 1-3 real poles in [1.05, 2) and k-1 real zeros in [-0.8, 0.8),
    then scans the gains linspace(-50, 50, 2001) without 0, in order, for
    the first that places every closed-loop characteristic root below 0.9
    in modulus. A static gain cannot stabilize two or more such poles, hence
    the zeros. Retries with fresh draws and raises only if 50 consecutive
    draws fail.
    """
    for _attempt in range(50):
        k = int(rng.integers(1, 4))
        poles = rng.uniform(*DRAW_POLE_RANGE, size=k)
        zeros = rng.uniform(-0.8, 0.8, size=k - 1)
        f = ZpkFilter(zeros=zeros, poles=poles, gain=1.0)
        # k - 1 zeros against k poles keep every lead at 1, so these are the
        # companion matrices numpy.roots builds, one per gain (barring a
        # constant term of exactly 0, which numpy.roots would strip)
        q = _loop_poly(f, DRAW_GAINS[:, None].astype(complex))
        comp = np.zeros((len(q), k, k), dtype=complex)
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        comp[:, 0, :] = -q[:, 1:] / q[:, :1]
        radius = np.abs(np.linalg.eigvals(comp)).max(axis=1)
        hit = np.flatnonzero(radius < DRAW_RADIUS_MARGIN)
        if hit.size:
            return replace(f, gain=float(DRAW_GAINS[hit[0]]))
    raise SolverError("no stabilizing gain found after 50 random draws")


def entropy_rate(s_z):
    """Entropy rate of the stationary Gaussian source with spectrum S_Z.

    (1/2pi) integral of 1/2 log(2 pi e S_Z); a unit white spectrum gives
    1/2 log(2 pi e). An Arma1Spectrum with |alpha| = 1 vanishes on the
    circle, a log singularity the grid cannot settle, and raises.
    """
    if isinstance(s_z, Arma1Spectrum) and abs(s_z.alpha) == 1.0:
        raise SolverError("entropy rate needs |alpha| < 1: S_Z vanishes on "
                          f"the circle at alpha={s_z.alpha} (convention "
                          f"{s_z.convention})")

    def integrand(om):
        s = s_z.density(om)
        if np.min(s) <= 0.0:
            raise SolverError("spectrum must be positive on the grid")
        return 0.5 * np.log(2.0 * np.pi * np.e * s) / LN2

    return periodic_integral(integrand)


@dataclass(frozen=True)
class SkSimReport:
    """Scalar feedback-code Monte Carlo summary (rates in bits)."""
    power: float
    n_steps: int
    trials: int
    seed: int
    mse: float
    relative_mse: float
    exponent: float
    empirical_power: float
    x_trajectory: np.ndarray
    rng_algorithm: str = RNG_ALGORITHM


def sk_recursion_simulate(power, n_steps, seed, trials=10000):
    """Simulate the scalar recursion X_i = beta (X_{i-1} - a Y_{i-1}), where
    Y_i = X_i + Z_i with unit-variance Gaussian noise Z_i.

    beta = sqrt(1 + P), a = (beta^2 - 1)/beta^2; the real message is uniform
    on (0, 1), mapped to X_1 = sqrt(12 P) (M - 1/2) so the transmit power is
    P from the first step. The receiver's linear estimate of X_1 from all
    n outputs has error exactly beta^{-n} X_{n+1}, so the error is read off
    the final state. The reported exponent, taken in the log domain, is
    -(1/2n) log2 of the message MSE relative to the prior variance 1/12,
    which converges to log2(beta) = 1/2 log2(1+P).
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    if n_steps < 1 or trials < 1:
        raise ValueError("n_steps and trials must be >= 1")
    check_seed(seed)
    beta = math.sqrt(1.0 + power)
    a = (beta * beta - 1.0) / (beta * beta)
    scale = math.sqrt(12.0 * power)

    def run_chunk(chunk, count):
        m, z = chunk_draws(seed, chunk, (count,), (count, n_steps), 1.0)
        x = scale * (m - 0.5)
        traj = np.empty(n_steps)
        sq_x = 0.0
        for i in range(n_steps):
            traj[i] = x[0]
            sq_x += x @ x
            x = beta * (x - a * (x + z[:, i]))
        return float(x @ x), float(sq_x), traj

    parts = map_chunks(run_chunk, trials)
    # mean (X_{n+1} / scale)^2; the message MSE is beta^{-2n} times it
    final_sq = sum(part[0] for part in parts) / (trials * scale * scale)
    pow_acc = sum(part[1] for part in parts)
    mse = beta ** (-2.0 * n_steps) * final_sq
    return SkSimReport(
        power=float(power), n_steps=n_steps, trials=trials, seed=int(seed),
        mse=mse, relative_mse=12.0 * mse,
        exponent=(math.log2(beta)
                  - math.log2(12.0 * final_sq) / (2.0 * n_steps)),
        empirical_power=pow_acc / (trials * n_steps),
        x_trajectory=parts[0][2])


@dataclass(frozen=True)
class SearchResult:
    """Best member of the searched filter family."""
    filter: ZpkFilter
    rate: float
    power: float


def grid_capacity_search(s_z, power, pole_grid=None, gains_per_pole=2):
    """Search one-real-pole feedback filters B(z) = g / (z - p) for rate.

    For each stable pole candidate the power integral scales as g^2, so the
    admissible gain magnitude is pinned by the power budget; candidates are
    both signs at that boundary plus gains_per_pole - 2 interior points
    (all feasible by construction), so gains_per_pole must be >= 2. The
    best rate_integral wins. Candidates whose rate integrand is
    near-singular are skipped.

    Over white noise the optimum is p = 1/sqrt(1+P) with rate
    1/2 log2(1+P); grid resolution bounds the achieved gap.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    if gains_per_pole < 2:
        raise ValueError("gains_per_pole must be >= 2: both boundary gains "
                         f"are always searched, got {gains_per_pole}")
    if pole_grid is None:
        pole_grid = np.linspace(0.0, 0.99, 100)
    best = None
    for p in np.asarray(pole_grid, dtype=float):
        if abs(p) >= 1.0 - UNIT_CIRCLE_TOL:
            continue
        unit = ZpkFilter(zeros=(), poles=(p,), gain=1.0)
        u = power_integral(unit, s_z)
        if u <= 0.0:
            continue
        g_max = math.sqrt(power / u)
        inner = np.linspace(-g_max, g_max, gains_per_pole - 2)
        gains = [-g_max, g_max] + [g for g in inner if g != 0.0]
        for g in gains:
            cand = ZpkFilter(zeros=(), poles=(p,), gain=g)
            try:
                r = rate_integral(cand)
            except SolverError:
                continue
            if best is None or r > best.rate:
                best = SearchResult(filter=cand, rate=r,
                                    power=g * g * u)
    if best is None:
        raise SolverError("no feasible filter in the searched family")
    return best
