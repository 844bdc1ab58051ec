"""Cross-validate the analytic rate functionals by sampling.

The auxiliary variable U = G X + N is built so that the conditional
covariance of X given U equals a prescribed Q; plug-in estimates of
I(U;X) - I(U;Y) and I(U;Y) - I(U;Z) from empirical covariances must then
match the analytic I_p(Q), I_k(Q).  The estimates read covariances only,
so the sampler draws each fold's mean and Wishart scatter directly (by the
Bartlett decomposition) instead of its rows: a draw costs the same at
n = 1e9 as at n = 1e4.  Sampling uses a Philox counter-based generator, so
every number below reproduces exactly for a given seed.
"""

import numpy as np

import gausskey as gk
from gausskey import mc

model = gk.GeneralModel(sigma_x=2 * np.eye(2), b=[[1.0, 0.5]], e=[[0.5, 1.0]])

print(f"{'q scale':>8} {'n':>10} {'I_p est':>21} {'I_p exact':>10} "
      f"{'I_k est':>21} {'I_k exact':>10}")
for q_scale in (0.8, 0.5, 0.2):
    q = q_scale * model.sigma_x
    exact = gk.rates_general(model, q)
    for n in (10**4, 10**5, 10**9):
        rp_est, rk_est = mc.cross_validate(model, q, n, seed=42)
        print(f"{q_scale:8.2f} {n:10d} "
              f"{rp_est.value:10.7f} +- {rp_est.std_error:.1e} {exact.rp:10.7f} "
              f"{rk_est.value:10.7f} +- {rk_est.std_error:.1e} {exact.rk:10.7f}")

print()
print("Determinism: two draws with the same seed are bitwise identical.")
print("A batch holds, per fold, sqrt(n_k) times its mean over the root R_k")
print("of its scatter R_k^T R_k; together they give the fold's covariance.")
joint = mc.build_joint(model, 0.5 * model.sigma_x)
b1 = mc.sample(joint, 1000, seed=7)
b2 = mc.sample(joint, 1000, seed=7)
print("   identical:", np.array_equal(b1.samples, b2.samples),
      "  samples shape:", b1.samples.shape)
