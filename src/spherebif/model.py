"""Problem parameters and the reduced ODE on [-1, 1].

An O(n+1)-invariant function u on (S^n x S^n, g + delta*g) is u = phi(f) + 1
with f(p, q) = <p, q>, and u solves

    -Lap(u) + lambda*u = lambda*u^(q-1)

exactly when the profile phi satisfies the singular ODE

    (1 - t^2) phi'' - n t phi' + mu(lambda) [(phi+1)^(q-1) - phi - 1] = 0,

where mu(lambda) = lambda / (1 + 1/delta) absorbs the metric normalization
of the product Laplacian.  At t = +/-1 the equation degenerates; smoothness
across the focal spheres forces the regular-limit conditions

    -+ n phi'(+-1) + mu(lambda) [(phi(+-1)+1)^(q-1) - phi(+-1) - 1] = 0.

Linearizing at the trivial solution phi = 0 gives the zero-order
coefficient c(lambda) = mu(lambda) (q - 2), so the linearization is
singular exactly on the ladder

    lambda_k = k (k + n - 1) (1 + 1/delta) / (q - 2),

where the kernel is spanned by the zonal polynomial P_{k,n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gegenbauer import cube_integral, gegenbauer_norm2

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "ProfilePoint",
    "PositivityError",
    "derived_constants",
    "lambda_k",
    "yamabe_lambda",
    "reduction_factor",
    "ode_residual",
    "endpoint_residual",
    "linearized_potential",
    "dlambda_ds0",
]


class PositivityError(ValueError):
    """Raised when an iterate leaves the positive-solution regime u > 0."""


@dataclass(frozen=True)
class ModelParams:
    """Constants of one equation instance.

    ``n`` is the dimension of each sphere factor, ``delta`` the scale of
    the second factor's metric, ``q`` the nonlinearity exponent with
    2 < q < q_f(n).
    """

    n: int
    delta: float
    q: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"sphere dimension must be an integer >= 2, got {self.n}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"metric scale delta must be finite and positive, got {self.delta}")
        qf = _q_critical(self.n)
        if not (2 < self.q < qf):
            raise ValueError(f"exponent q must satisfy 2 < q < {qf}, got {self.q}")


def _q_critical(n: int) -> float:
    # invariant solutions live on a reduced problem whose critical exponent
    # is (n+2)/(n-2); for n = 2 there is no upper restriction
    return math.inf if n == 2 else (n + 2) / (n - 2)


@dataclass(frozen=True)
class DerivedConstants:
    """Quantities derived from ModelParams.

    ``q_f`` is the admissible upper bound on q (inf for n = 2), ``p_2n``
    the critical exponent (2n+2)/(2n-2) of the 2n-dimensional product,
    ``a_2n`` the conformal constant 4(2n-1)/(2n-2), and ``c_factor`` is
    (q-2) / (1 + 1/delta), so ``c_factor * lam`` is the zero-order
    coefficient of the linearization at the trivial solution.
    """

    q_f: float
    p_2n: float
    a_2n: float
    c_factor: float


def derived_constants(params: ModelParams) -> DerivedConstants:
    n, delta, q = params.n, params.delta, params.q
    return DerivedConstants(
        q_f=_q_critical(n),
        p_2n=(2 * n + 2) / (2 * n - 2),
        a_2n=4 * (2 * n - 1) / (2 * n - 2),
        c_factor=(q - 2) / (1 + 1 / delta),
    )


def lambda_k(k: int, params: ModelParams) -> float:
    """k-th bifurcation value k(k+n-1)(1 + 1/delta)/(q-2); lambda_0 = 0."""
    if k < 0:
        raise ValueError(f"mode index must be >= 0, got {k}")
    return k * (k + params.n - 1) * (1 + 1 / params.delta) / (params.q - 2)


def yamabe_lambda(n: int, delta: float) -> float:
    """The lambda for which the equation is the Yamabe equation on the product."""
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    a_2n = 4 * (2 * n - 1) / (2 * n - 2)
    return n * (n - 1) * (1 + 1 / delta) / a_2n


def reduction_factor(lam: float, params: ModelParams) -> float:
    """Prefactor mu(lambda) = lambda / (1 + 1/delta) of the nonlinearity."""
    return lam / (1 + 1 / params.delta)


@dataclass(frozen=True)
class ProfilePoint:
    """Profile value and derivatives at one t in [-1, 1]."""

    t: float
    phi: float
    dphi: float
    d2phi: float

    def __post_init__(self):
        if abs(self.t) > 1:
            raise ValueError(f"|t| must be <= 1, got {self.t}")


def _bracket(phi: float, q: float) -> float:
    # (phi+1)^(q-1) - phi - 1, guarded against u <= 0
    u = phi + 1.0
    if u <= 0:
        raise PositivityError(f"u = phi + 1 = {u} is not positive")
    return u ** (q - 1) - u


def ode_residual(pt: ProfilePoint, lam: float, params: ModelParams) -> float:
    """Pointwise residual of the reduced equation at pt."""
    mu = reduction_factor(lam, params)
    return (
        (1 - pt.t**2) * pt.d2phi
        - params.n * pt.t * pt.dphi
        + mu * _bracket(pt.phi, params.q)
    )


def endpoint_residual(
    side: int, phi_end: float, dphi_end: float, lam: float, params: ModelParams
) -> float:
    """Regular limit of the ODE at t = side for side in {-1, +1}."""
    if side not in (-1, 1):
        raise ValueError(f"side must be -1 or +1, got {side}")
    mu = reduction_factor(lam, params)
    return -side * params.n * dphi_end + mu * _bracket(phi_end, params.q)


def linearized_potential(u_val: float, lam: float, params: ModelParams) -> float:
    """Zero-order coefficient lambda (1 - (q-1) u^(q-2)) of the linearization at u."""
    if u_val <= 0:
        raise PositivityError(f"u must be positive, got {u_val}")
    return lam * (1 - (params.q - 1) * u_val ** (params.q - 2))


def dlambda_ds0(k: int, params: ModelParams) -> float:
    """Slope of lambda along the branch at the bifurcation point (0, lambda_k).

    Closed form: -lambda_k (q-1) int P_k^3 w dt / (2 int P_k^2 w dt).
    Zero for odd k (the cube integral vanishes by parity), strictly
    negative for even k.
    """
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    lam_k = lambda_k(k, params)
    return (
        -lam_k
        * (params.q - 1)
        * cube_integral(k, params.n)
        / (2 * gegenbauer_norm2(k, params.n))
    )
