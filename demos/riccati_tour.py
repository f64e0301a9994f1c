"""Tour of the Riccati machinery.

The stationary covariance of the optimal feedback code is circulant: the
DFT diagonalizes it and its eigenvalues form a geometric ladder. The same
matrix is the limit of the Riccati recursion from any start (on K^{-1} that
limit is a Cauchy matrix with an explicit inverse), and it satisfies two
scalar sum identities that tie it back to the per-sender gains.
"""
import numpy as np

from feedcap import dare_circulant, dare_iterate, riclem_verify, \
    symmetric_system

n, beta = 4, 1.2

closed = dare_circulant(n, beta)
print(f"closed-form solution for n={n}, beta={beta}")
print(np.array_str(closed.G.real, precision=5, suppress_small=True))
print(f"Riccati residual: {closed.residual:.3e}")

lam = np.sort(np.linalg.eigvalsh(closed.G))[::-1]
print("\neigenvalue ladder (each rung is the previous over beta^2):")
for k, v in enumerate(lam, start=1):
    print(f"  lambda_{k} = {v:.8f}   ratio to top: {v / lam[0]:.8f}"
          f"   beta^(-2(k-1)) = {beta ** (-2 * (k - 1)):.8f}")

print("\nconstant row sums mean K B = lambda_1 B:")
print("  row sums:", np.round(closed.G.sum(axis=1).real, 8))

sys = symmetric_system(n, beta)
it = dare_iterate(sys, np.eye(n))
print(f"\nexplicit Cauchy inverse of the recursion's limit: "
      f"|gap to closed form| = {np.linalg.norm(it.G - closed.G):.2e}")

check = riclem_verify(closed, sys)
print(f"\nsum identities: residual_a={check.residual_a:.2e} "
      f"residual_b={check.residual_b:.2e}")
print("(a) 1 + B'KB equals the product of all beta_j^2;")
print("(b) zeroing sender m from B leaves the product over the others.")
