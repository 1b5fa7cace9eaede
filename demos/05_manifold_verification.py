# Independent verification on S^n x S^n itself.
#
# Finite differences along exact great-circle geodesics check the two
# identities that power the whole reduction,
#
#     Lap(f) = -n (1 + 1/delta) f,      |grad f|^2 = (1 + 1/delta)(1 - f^2),
#
# and then evaluate the full PDE residual of a computed profile lifted back
# to the product through u = phi(<p, q>) + 1.

from spherebif.collocation import DiscreteSystem, build_grid
from spherebif.continuation import find_degenerate
from spherebif.manifold import identity_residuals, lifted_residual
from spherebif.model import ModelParams

n, delta = 2, 1.0
print("isoparametric identities at 500 random pairs:")
for h in (4e-3, 2e-3, 1e-3):
    err = identity_residuals(n, delta, h, 500, seed=0)
    print(f"  h = {h:.0e}:  laplacian {err['laplacian']:.3e}   "
          f"gradient {err['gradient']:.3e}")
print("(errors drop ~4x per halving: second-order differencing)")

params = ModelParams(n=n, delta=delta, q=3.0)
system = DiscreteSystem(build_grid(64), params)
report, _ = find_degenerate(2, system, 1e-6)
star = report.point

res = lifted_residual(
    system.grid, star.phi, star.lam, params,
    sample_count=200, h=1e-3, seed=0,
)
print(f"\nlifted PDE residual of the degenerate profile "
      f"(lambda* = {star.lam:.6f}): {res:.3e}")

wrong = lifted_residual(
    system.grid, star.phi, 1.1 * star.lam, params,
    sample_count=200, h=1e-3, seed=0,
)
print(f"same profile with lambda off by 10%:           {wrong:.3e}")
