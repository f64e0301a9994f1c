"""Feedback sum capacity of the N-sender AWGN multiple access channel.

Solvers for the capacity root phi(P) and its weighted-converse
counterpart, the circulant Riccati machinery behind the optimal linear
feedback code, exact and Monte Carlo evaluation of that code, and the
point-to-point sensitivity-integral toolkit.
"""
from .errors import SolverError
from .sum_capacity import (MacParams, PhiSolution, c1, c2,
                           dependence_balance_gap, g_value, gamma_star,
                           gaussian_mutual_info, phi_star, solve_phi,
                           sum_capacity, symmetric_cov)
from .riccati import (DareSolution, MacSystem, dare_circulant, dare_iterate,
                      riclem_verify, symmetric_system)
from .mac_code import (LinearController, SimReport, ExactStats,
                       asymptotic_powers, beta_for_power, build_system,
                       closed_loop, closed_loop_radius, decode, encode_step,
                       exact_mse, exact_trajectory_stats, lqg_controller,
                       mutual_info_identity_check, simulate)
from .p2p_gaussian import (Arma1Spectrum, ZpkFilter, WHITE, bode_integral,
                           entropy_rate, feedback_transform,
                           grid_capacity_search, instability, power_integral,
                           rate_integral, sk_filter, sk_recursion_simulate)

__version__ = "0.1.0"

__all__ = [
    "SolverError",
    "MacParams", "PhiSolution", "c1", "c2", "solve_phi", "sum_capacity",
    "phi_star", "gamma_star", "g_value", "symmetric_cov",
    "gaussian_mutual_info", "dependence_balance_gap",
    "DareSolution", "MacSystem", "dare_circulant", "dare_iterate",
    "riclem_verify", "symmetric_system",
    "LinearController", "SimReport", "ExactStats",
    "build_system", "lqg_controller", "beta_for_power", "closed_loop",
    "closed_loop_radius", "encode_step", "decode", "exact_mse",
    "exact_trajectory_stats", "simulate", "asymptotic_powers",
    "mutual_info_identity_check",
    "ZpkFilter", "Arma1Spectrum", "WHITE", "sk_filter", "instability",
    "feedback_transform", "power_integral", "rate_integral", "bode_integral",
    "entropy_rate", "sk_recursion_simulate", "grid_capacity_search",
    "__version__",
]
