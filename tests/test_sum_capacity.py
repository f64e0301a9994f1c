import importlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GAMMA_STAR_2_1, PHI, SUMCAP_BITS
from feedcap.errors import SolverError
from feedcap.matrix_core import hermitian_psd, output_variances
from feedcap.sum_capacity import (MacParams, c1, c2, c2_concavity_probe,
                                  c2_from_cov, dependence_balance_gap,
                                  g_derivative_check, g_value,
                                  gamma_star, gaussian_conditional_mi,
                                  gaussian_mutual_info, phi_star, solve_phi,
                                  sum_capacity, symmetric_cov, validate_cov)


def test_params_validation():
    with pytest.raises(ValueError):
        MacParams(n_senders=1, power=1.0)
    with pytest.raises(ValueError):
        MacParams(n_senders=2, power=-0.5)
    with pytest.raises(ValueError):
        MacParams(n_senders=2, power=float("nan"))


def test_c1_c2_closed_forms():
    p = MacParams(n_senders=2, power=1.0)
    # at phi = 1 the two-sender expressions are elementary
    assert c1(p, 1.0) == pytest.approx(0.5 * math.log2(3.0), abs=1e-15)
    assert c2(p, 1.0) == pytest.approx(1.0, abs=1e-15)
    # phi = N kills the product term
    assert c2(p, 2.0) == 0.0
    assert c1(MacParams(n_senders=2, power=10.0), 1.5) == pytest.approx(
        0.5 * math.log2(31.0), abs=1e-14)
    assert c2(MacParams(n_senders=4, power=2.0), 2.0) == pytest.approx(
        (2.0 / 3.0) * math.log2(9.0), abs=1e-14)


def test_c2_rejects_phi_outside_domain():
    p = MacParams(n_senders=2, power=1.0)
    with pytest.raises(ValueError):
        c2(p, 2.5)
    with pytest.raises(ValueError):
        c1(p, -0.1)


@pytest.mark.parametrize("n,power", sorted(PHI))
def test_solve_phi_matches_frozen_roots(n, power):
    sol = solve_phi(MacParams(n_senders=n, power=power))
    assert sol.phi == pytest.approx(PHI[(n, power)], abs=1e-10)
    assert 1.0 <= sol.phi <= n
    assert sol.residual <= 1e-9
    assert sol.rho == pytest.approx((sol.phi - 1.0) / (n - 1.0), abs=1e-14)


def _mp_capacity(n, power):
    # 60-digit bisection of C2 - C1 on [1, N]; C1 at the root, in bits
    with mpmath.workdps(60):
        p = mpmath.mpf(power)
        k = mpmath.mpf(n) / (2 * (n - 1))

        def f(phi):
            return (k * mpmath.log1p((n - phi) * p * phi)
                    - mpmath.log1p(n * p * phi) / 2)
        lo, hi = mpmath.mpf(1), mpmath.mpf(n)
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) >= 0 else (lo, mid)
        return float(mpmath.log1p(n * p * lo) / (2 * mpmath.log(2)))


@pytest.mark.parametrize("power", [10.0 ** e for e in range(-15, 13)])
@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_solve_phi_across_the_power_range(n, power):
    # at small P both logs are ~P, so 1 + x would round away their digits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_phi(MacParams(n_senders=n, power=power))
    assert sol.c1 == pytest.approx(_mp_capacity(n, power), rel=1e-12, abs=0)


def test_solve_phi_zero_power():
    sol = solve_phi(MacParams(n_senders=3, power=0.0))
    assert sol.phi == 1.0
    assert sol.c1 == 0.0


def test_root_sign_change_is_unique():
    # C2 - C1 crosses zero exactly once on [1, N] (sign is base-free)
    for n in range(2, 7):
        for power in (0.1, 1.0, 5.0, 20.0):
            phi = np.linspace(1.0, float(n), 10_000)
            diff = (n / (2.0 * (n - 1))) * np.log1p((n - phi) * power * phi) \
                - 0.5 * np.log1p(n * power * phi)
            signs = np.sign(diff)
            signs = signs[signs != 0]
            assert int(np.sum(signs[1:] != signs[:-1])) == 1


def test_endpoint_inequality_chain():
    # (1 + P(N-1))^N >= (1 + NP)^(N-1), the phi = 1 bracketing condition
    for n in range(2, 9):
        for power in (0.1, 1.0, 5.0, 20.0, 50.0):
            lhs = n * math.log1p(power * (n - 1))
            rhs = (n - 1) * math.log1p(n * power)
            assert lhs >= rhs - 1e-12


@pytest.mark.parametrize("n,power", sorted(SUMCAP_BITS))
def test_sum_capacity_frozen_values(n, power):
    cap = sum_capacity(MacParams(n_senders=n, power=power))
    assert cap == pytest.approx(SUMCAP_BITS[(n, power)], abs=1e-10)


def test_sum_capacity_monotone_in_power():
    assert sum_capacity(MacParams(n_senders=2, power=2.0)) \
        > sum_capacity(MacParams(n_senders=2, power=1.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6),
       st.floats(0.01, 30.0), st.floats(0.01, 30.0))
def test_phi_monotone_in_power(n, p1, p2):
    lo, hi = sorted((p1, p2))
    phi_lo = solve_phi(MacParams(n_senders=n, power=lo)).phi
    phi_hi = solve_phi(MacParams(n_senders=n, power=hi)).phi
    assert phi_lo <= phi_hi + 1e-9


def test_phi_star_closed_form_specials():
    # x = 0 collapses the quadratic to its linear part
    assert phi_star(3, 2.0, 0.0) == pytest.approx(4.0 / 4.0, abs=1e-14)
    assert phi_star(4, 1.5, 0.0) == pytest.approx(4.5 / 3.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.floats(0.01, 10.0))
def test_phi_star_equal_weights_pin_half_n(n, x):
    assert phi_star(n, 1.0, x) == pytest.approx(n / 2.0, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.floats(1.01, 5.0), st.floats(0.0, 10.0))
def test_phi_star_bounds(n, gamma, x):
    ph = phi_star(n, gamma, x)
    lo = (n + gamma - 1.0) / (2.0 * gamma)
    assert lo - 1e-12 <= ph < n / 2.0


def test_phi_star_satisfies_first_order_condition():
    n, gamma, x = 3, 2.0, 1.0
    ph = phi_star(n, gamma, x)
    # residual of the quadratic it is defined by
    a = (n + gamma - 1.0 + gamma * n) * x
    b = -n * (n + gamma - 1.0) * x + 2.0 * gamma
    c_ = -(n + gamma - 1.0)
    assert abs(a * ph * ph + b * ph + c_) <= 1e-10
    # and stationarity of the weighted combination in phi
    p = MacParams(n_senders=n, power=x)
    w = lambda t: (1.0 - gamma) * c1(p, t) + gamma * c2(p, t)
    h = 1e-6
    assert abs((w(ph + h) - w(ph - h)) / (2 * h)) <= 1e-8


def test_gamma_star_frozen_and_round_trip():
    p = MacParams(n_senders=2, power=1.0)
    phi = solve_phi(p).phi
    gs = gamma_star(p, phi)
    assert gs == pytest.approx(GAMMA_STAR_2_1, abs=1e-10)
    assert phi_star(2, gs, 1.0) == pytest.approx(phi, abs=1e-12)


def test_g_value_equals_capacity_at_optimum():
    for n, power in ((2, 1.0), (3, 2.0), (4, 3.0)):
        p = MacParams(n_senders=n, power=power)
        sol = solve_phi(p)
        gs = gamma_star(p, sol.phi)
        assert g_value(n, gs, power) == pytest.approx(sol.c1, abs=1e-10)


def test_g_derivative_matches_finite_difference():
    for n in (2, 3, 4):
        for gamma in (1.2, 2.0, 4.0):
            for x in (0.5, 2.0, 8.0):
                assert g_derivative_check(n, gamma, x) <= 1e-6


def test_g_value_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        g_value(3, 0.0, 1.0)


def test_g_value_equal_weight_reduces_to_c2():
    # gamma = 1 puts phi* at N/2 and drops the C1 term entirely
    got = g_value(2, 1.0, 1.0)
    assert got == pytest.approx(c2(MacParams(n_senders=2, power=1.0), 1.0),
                                abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_g_concave_in_x():
    # normalized second central difference stays nonpositive up to round-off
    for n in (2, 3):
        for gamma in (1.5, 3.0):
            for x in np.linspace(0.5, 10.0, 8):
                h = 1e-3 * max(1.0, x)
                second = (g_value(n, gamma, x + h) - 2.0 * g_value(n, gamma, x)
                          + g_value(n, gamma, x - h)) / (h * h)
                assert second <= 1e-8


def test_validate_cov():
    with pytest.raises(ValueError):
        validate_cov(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        validate_cov(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    validate_cov(np.eye(3))


def test_symmetric_cov_shape_and_bounds():
    k = symmetric_cov(3, 2.0, 0.4)
    assert np.allclose(np.diag(k), 2.0)
    assert np.allclose(k[0, 1], 2.0 * 0.4)
    with pytest.raises(ValueError):
        symmetric_cov(3, 2.0, -0.6)  # below -1/(n-1), not PSD


def test_gaussian_mutual_info_known_value():
    # two unit senders, correlation rho: I = 1/2 log2(1 + 2(1+rho))
    k = symmetric_cov(2, 1.0, 0.5)
    assert gaussian_mutual_info(k) == pytest.approx(
        0.5 * math.log2(4.0), abs=1e-12)


def test_conditional_mi_independent_case():
    # independent senders: conditioning on one drops only its own power
    k = np.diag([1.0, 2.0, 3.0])
    got = gaussian_conditional_mi(k, 0)
    assert got == pytest.approx(0.5 * math.log2(1.0 + 5.0), abs=1e-12)


def test_dependence_balance_zero_at_optimum():
    for n, power in ((2, 1.0), (3, 5.0), (4, 3.0)):
        sol = solve_phi(MacParams(n_senders=n, power=power))
        k = symmetric_cov(n, power, sol.rho)
        assert abs(dependence_balance_gap(k)) <= 1e-9


def test_dependence_balance_positive_off_optimum():
    assert dependence_balance_gap(np.diag([1.0, 1.0])) > 0.01


def test_dependence_balance_negative_beyond_root():
    # correlation past rho(P) violates the bound, ruling such K out
    sol = solve_phi(MacParams(n_senders=3, power=2.0))
    k = symmetric_cov(3, 2.0, 0.8)
    assert 0.8 > sol.rho
    assert dependence_balance_gap(k) < 0.0


def test_c2_from_cov_matches_direct_formula_symmetric():
    n, power = 3, 2.0
    sol = solve_phi(MacParams(n_senders=n, power=power))
    k = symmetric_cov(n, power, sol.rho)
    expect = c2(MacParams(n_senders=n, power=power), sol.phi)
    assert c2_from_cov(k) == pytest.approx(expect, abs=1e-10)


def test_symmetric_cov_reproduces_both_capacities():
    # exchangeable K with correlation rho maps onto phi = 1 + (n-1) rho
    for n, x, rho in ((2, 1.0, 0.3), (3, 2.0, 0.0), (4, 0.7, 0.55)):
        p = MacParams(n_senders=n, power=x)
        phi = 1.0 + (n - 1) * rho
        k = symmetric_cov(n, x, rho)
        assert gaussian_mutual_info(k) == pytest.approx(c1(p, phi), abs=1e-12)
        assert c2_from_cov(k) == pytest.approx(c2(p, phi), abs=1e-12)
        for j in range(1, n):
            assert gaussian_conditional_mi(k, j) == pytest.approx(
                gaussian_conditional_mi(k, 0), abs=1e-12)


def test_concavity_probe_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        m1 = rng.normal(size=(dim, dim))
        m2 = rng.normal(size=(dim, dim))
        k1 = m1 @ m1.T + 1e-3 * np.eye(dim)
        k2 = m2 @ m2.T + 1e-3 * np.eye(dim)
        assert c2_concavity_probe(k1, k2, 0.5) >= -1e-10


def test_converse_probes_validate_each_covariance_once(monkeypatch):
    # the package re-exports a function named sum_capacity; take the module
    sc = importlib.import_module("feedcap.sum_capacity")
    calls = []

    def counting(k):
        calls.append(1)
        return validate_cov(k)
    monkeypatch.setattr(sc, "validate_cov", counting)
    rng = np.random.default_rng(6)
    m1, m2 = rng.normal(size=(2, 4, 4))
    k1, k2 = m1 @ m1.T + 1e-3 * np.eye(4), m2 @ m2.T + 1e-3 * np.eye(4)
    margin = sc.c2_concavity_probe(k1, k2, 0.25)
    # K1 and K2; their mixture is PSD by convexity and is not re-validated
    assert len(calls) == 2
    gap = sc.dependence_balance_gap(k1)
    assert len(calls) == 3
    # the same arithmetic as the public per-sender forms
    mix = 0.25 * k1 + 0.75 * k2

    def c2_public(k):
        return sum(gaussian_conditional_mi(k, j) for j in range(4)) / 3
    assert margin == (c2_public(mix) - 0.25 * c2_public(k1)
                      - 0.75 * c2_public(k2))
    assert gap == c2_public(k1) - gaussian_mutual_info(k1)


def test_gamma_star_requires_interior_phi():
    # at phi values that zero the denominator the weight does not exist
    with pytest.raises((SolverError, ValueError)):
        gamma_star(MacParams(n_senders=2, power=1.0), 0.0)


def test_gamma_star_refuses_a_negative_numerator():
    # past phi = N the numerator turns negative while the denominator stays
    # positive: at (2, 1), phi = 10 the quotient would be -79/299
    with pytest.raises(SolverError, match=r"numerator -7\.900e\+01, "
                       r"denominator 2\.990e\+02 at N=2, P=1\.0, phi=10"):
        gamma_star(MacParams(n_senders=2, power=1.0), 10.0)


def _conditional_mis_by_sender(k):
    """1/2 log2(1 + sum_{i,l != j} K_il - (sum_{i != j} K_ji)^2 / K_jj), one
    sender at a time by index sets: the per-sender form the row-sum Schur
    complements replaced, kept here as a reference."""
    n = len(k)
    out = []
    for j in range(n):
        idx = [i for i in range(n) if i != j]
        sub = k[np.ix_(idx, idx)].sum()
        cross = k[j, idx].sum()
        out.append(0.5 * math.log2(1.0 + sub - cross * cross / k[j, j]))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2 ** 32 - 1))
def test_row_sum_forms_match_the_per_sender_index_form(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) * rng.uniform(0.1, 3.0, size=n)
    k = m @ m.T + 1e-3 * np.eye(n)
    ref = _conditional_mis_by_sender(k)
    assert c2_from_cov(k) == pytest.approx(sum(ref) / (n - 1), rel=1e-12)
    j = int(rng.integers(n))
    assert gaussian_conditional_mi(k, j) == pytest.approx(ref[j], rel=1e-12)


def test_conditional_mi_rejects_a_sender_outside_the_range():
    # a negative index must not wrap around to the last sender
    for j in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            gaussian_conditional_mi(np.eye(3), j)


def test_complex_covariance_is_rejected_not_truncated():
    # a Hermitian PSD matrix, but not a real covariance: dropping the
    # imaginary part would evaluate the identity instead
    k = [[1.0, 0.9j], [-0.9j, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probe in (validate_cov, gaussian_mutual_info, c2_from_cov,
                      dependence_balance_gap,
                      lambda a: gaussian_conditional_mi(a, 0)):
            with pytest.raises(ValueError, match="covariance must be real"):
                probe(k)
        accepted = validate_cov(np.eye(2, dtype=complex))
    assert accepted.dtype == float and np.array_equal(accepted, np.eye(2))


@pytest.mark.parametrize("n,power", [(2, 1e-9), (2, 1.0), (3, 2.0),
                                     (2, 1e8), (64, 20.0)])
def test_solve_phi_ends_on_adjacent_floats(n, power):
    # the bisection runs until the bracket holds two neighbouring floats,
    # so C2 - C1 changes sign between phi and one of its neighbours
    params = MacParams(n_senders=n, power=power)
    phi = solve_phi(params).phi
    f = lambda x: c2(params, x) - c1(params, x)
    if f(phi) >= 0.0:
        assert f(np.nextafter(phi, n)) < 0.0
    else:
        assert f(np.nextafter(phi, 1.0)) >= 0.0


# ---- stacks (..., N, N): each matrix's value equals its 2-D call exactly

def _psd_stack(rng, shape, d):
    m = rng.normal(size=shape + (d, d)) * rng.uniform(0.1, 3.0, size=d)
    return m @ np.swapaxes(m, -1, -2) + 1e-3 * np.eye(d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_core_equals_a_loop_of_2d_calls(d):
    rng = np.random.default_rng(100 + d)
    k1, k2 = _psd_stack(rng, (7,), d), _psd_stack(rng, (7,), d)
    h, eig = hermitian_psd(k1, "k")
    for i in range(7):
        hi, ei = hermitian_psd(k1[i], "k")
        assert np.array_equal(h[i], hi) and eig[i] == ei
    a = validate_cov(k1)
    assert np.array_equal(a, [validate_cov(k) for k in k1])
    s, loo = output_variances(a)
    for i in range(7):
        si, looi = output_variances(a[i])
        assert s[i] == si and np.array_equal(loo[i], looi)
    assert np.array_equal(dependence_balance_gap(k1),
                          [dependence_balance_gap(k) for k in k1])
    assert np.array_equal(c2_from_cov(k1), [c2_from_cov(k) for k in k1])
    assert np.array_equal(gaussian_mutual_info(k1),
                          [gaussian_mutual_info(k) for k in k1])
    assert np.array_equal(gaussian_conditional_mi(k1, d - 1),
                          [gaussian_conditional_mi(k, d - 1) for k in k1])
    # t broadcast over the stack: (7, 1, d, d) pairs against three t
    ts = (0.25, 0.5, 0.75)
    margins = c2_concavity_probe(k1[:, None], k2[:, None], ts)
    assert margins.shape == (7, 3)
    assert np.array_equal(margins, [[c2_concavity_probe(x, y, t) for t in ts]
                                    for x, y in zip(k1, k2)])
    # a stack of stacks, one t per pair
    t = rng.uniform(size=(2, 3))
    got = c2_concavity_probe(k1[:6].reshape(2, 3, d, d),
                             k2[:6].reshape(2, 3, d, d), t)
    assert np.array_equal(got.ravel(), [c2_concavity_probe(x, y, s) for x, y, s
                                        in zip(k1[:6], k2[:6], t.ravel())])


def test_stacked_mutual_information_keeps_math_log():
    # np.log differs from math.log in the last bit on about 1 argument in
    # 7000, so 20000 stacked matrices would show a switch to it
    rng = np.random.default_rng(11)
    k = _psd_stack(rng, (20000,), 2)
    ref = [0.5 * math.log(1.0 + float(m.sum())) / math.log(2.0) for m in k]
    assert np.array_equal(gaussian_mutual_info(k), ref)


def test_one_matrix_returns_python_floats():
    k1, k2 = np.diag([1.0, 2.0, 3.0]), symmetric_cov(3, 2.0, 0.4)
    values = [hermitian_psd(k1, "k")[1], output_variances(k1)[0],
              dependence_balance_gap(k1), c2_concavity_probe(k1, k2, 0.5),
              c2_from_cov(k1), gaussian_mutual_info(k1),
              gaussian_conditional_mi(k1, 1)]
    assert [type(v) for v in values] == [float] * len(values)


def test_stack_tolerance_is_per_matrix_and_names_the_index():
    # the 1e6-scale matrix would lift a shared tolerance to 1e-4 and hide
    # the unit-scale matrix's min eigenvalue of -1e-8
    big = 1e6 * np.eye(2)
    unit = np.array([[1.0, 0.0], [0.0, -1e-8]])
    for stack, where in ((np.array([big, unit]), r"\[1\]"),
                         (np.array([[big, big], [big, unit]]), r"\[1, 1\]")):
        with pytest.raises(ValueError, match=rf"^covariance{where} must be "
                           r"positive-semidefinite \(min eig -1e-08\)"):
            validate_cov(stack)
        with pytest.raises(ValueError, match=rf"^covariance{where}"):
            dependence_balance_gap(stack)
    # asymmetry is judged per matrix too
    skew = np.array([[1.0, 1e-8], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^k\[1\] must be Hermitian"):
        hermitian_psd(np.array([big + [[0.0, 1e-5], [0.0, 0.0]], skew]), "k")
    # the big matrix alone passes: -1e-5 is within its 1e-4
    assert hermitian_psd(big - 1e-5 * np.eye(2), "k")[1] == 1e6 - 1e-5


@pytest.mark.parametrize("bad, match", [
    (np.array([np.eye(2), [[1.0, np.nan], [np.nan, 1.0]]]), "NaN or Inf"),
    (np.array([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]]), "NaN or Inf"),
    (np.ones((3, 2, 3)), "square"),
    (np.ones(3), "square"),
    (np.array([np.eye(2), [[1.0, 0.5j], [-0.5j, 1.0]]]),
     r"^covariance\[1\] must be real"),
])
def test_stacks_refuse_what_one_matrix_refuses(bad, match):
    with pytest.raises(ValueError, match=match):
        validate_cov(bad)
    with pytest.raises(ValueError, match=match):
        c2_concavity_probe(bad, bad, 0.5)


def test_concavity_probe_refuses_t_outside_the_unit_interval():
    k = np.array([np.eye(2), 2.0 * np.eye(2)])
    for t in (-0.1, 1.5, np.nan, (0.5, 1.2)):
        with pytest.raises(ValueError, match="t must lie"):
            c2_concavity_probe(k, k, t)
