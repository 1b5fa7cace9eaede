# Pseudo-arclength tracing of the branch leaving (0, lambda_2).
#
# The branch is seeded along the kernel direction P_{2,n} with the
# closed-form slope dlambda/ds(0) = -lambda_k (q-1) <P^3> / (2 <P^2>); for
# the even mode the slope is negative, so lambda first decreases, turns at
# a fold, and climbs back up.

from spherebif.collocation import DiscreteSystem, build_grid
from spherebif.continuation import trace_branch
from spherebif.model import ModelParams, dlambda_ds0, lambda_k

params = ModelParams(n=2, delta=1.0, q=3.0)
system = DiscreteSystem(build_grid(64), params)

k = 2
print(f"lambda_{k} = {lambda_k(k, params)}")
print(f"closed-form slope at the seed: {dlambda_ds0(k, params):.6f} (= -24/7)")

branch = trace_branch(k, 1, system, max_points=60)
p0, p1 = branch.points[0], branch.points[1]
print(f"secant slope from the first two points: "
      f"{(p1.lam - p0.lam) / (p1.s_coord - p0.s_coord):.6f}")

print("\n  step        s       lambda    sigma_min    u_min   nodes")
for i in range(0, len(branch.points), 8):
    pt = branch.points[i]
    print(f"  {i:4d}  {pt.s_coord:8.4f}  {pt.lam:9.5f}  {pt.sigma_min: .3e}"
          f"  {pt.u_min:7.4f}   {pt.nodal_count}")

print("\nevents (index, kind):", branch.events[:6])
print("minimum lambda along the branch:", min(pt.lam for pt in branch.points))
