"""Cross-validate the analytic rate functionals by sampling.

The auxiliary variable U = G X + N is built so that the conditional
covariance of X given U equals a prescribed Q; plug-in estimates of
I(U;X) - I(U;Y) and I(U;Y) - I(U;Z) from empirical covariances must then
match the analytic I_p(Q), I_k(Q).  Sampling uses a Philox counter-based
generator, so every number below reproduces exactly for a given seed.
"""

import numpy as np

import gausskey as gk
from gausskey import mc

model = gk.GeneralModel(sigma_x=2 * np.eye(2), b=[[1.0, 0.5]], e=[[0.5, 1.0]])

print(f"{'q scale':>8} {'n':>8} {'I_p est':>20} {'I_p exact':>10} "
      f"{'I_k est':>20} {'I_k exact':>10}")
for q_scale in (0.8, 0.5, 0.2):
    q = q_scale * model.sigma_x
    exact = gk.rates_general(model, q)
    for n in (10**4, 10**5):
        rp_est, rk_est = mc.cross_validate(model, q, n, seed=42)
        print(f"{q_scale:8.2f} {n:8d} "
              f"{rp_est.value:12.5f} +- {rp_est.std_error:7.5f} {exact.rp:10.5f} "
              f"{rk_est.value:12.5f} +- {rk_est.std_error:7.5f} {exact.rk:10.5f}")

print()
print("Determinism: two draws with the same seed are bitwise identical.")
joint = mc.build_joint(model, 0.5 * model.sigma_x)
b1 = mc.sample(joint, 1000, seed=7)
b2 = mc.sample(joint, 1000, seed=7)
print("   identical:", np.array_equal(b1.samples, b2.samples))
