"""Built-in planar example: a scalar-output two-state plant with cubic
damping, certified by hand for every assumption the scheme needs.

The single free parameter ``zeta`` sets the unstable linear drift of the
first state, the size of the input box, and every derived gain.  It must
be positive and satisfy the smallness bound of ``check_zeta_bound``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .model import AssumptionData, PlantModel

__all__ = ["build_planar_example", "check_zeta_bound"]


def check_zeta_bound(zeta: float) -> bool:
    """Whether ``25001 zeta**2 + 2 zeta <= 4``, the example's smallness bound;
    a zeta that is not positive raises ``ConfigurationError``."""
    if not zeta > 0.0:
        raise ConfigurationError("zeta must be positive")
    return 25001.0 * zeta ** 2 + 2.0 * zeta <= 4.0


def build_planar_example(zeta: float, b_level: float = 1.5, c_frac: float = 0.5,
                         r: float = 0.0, tau: float = 0.0
                         ) -> tuple[PlantModel, AssumptionData, tuple[float, float]]:
    """Construct the planar plant, its full certificate and its ``(blend_lo, blend_hi)``.

    ``b_level`` is the upper blending level (must exceed the derived lower
    level), ``c_frac`` the retained fraction of the observer contraction
    rate.  Delays are forwarded to the plant unchanged.
    """
    zeta = float(zeta)
    if not check_zeta_bound(zeta):
        raise ConfigurationError(
            f"zeta={zeta!r} violates the gain bound 25001*zeta**2 + 2*zeta <= 4"
        )
    u_max = 50.0 * zeta * math.sqrt(2.0)

    # each callable returns a list; on floats x1 ** 3 has numpy's bits, but
    # raises OverflowError where numpy's scalar power gives inf
    def f(x, u):
        x1, x2 = x[0], x[1]
        return [zeta * x1 - 10.0 * x1 ** 3 + x2, -3.25 * x2 + u[0]]

    def h(x):
        return [x[0]]

    def jac_h(x):
        return [[1.0, 0.0]]

    plant = PlantModel(n=2, m=1, k_out=1, f=f, h=h, jac_h=jac_h,
                       input_box=np.array([[-u_max, u_max]]), r=r, tau=tau)

    def lyapunov(x):
        return 0.5 * (x[0] ** 2 + x[1] ** 2)

    def grad_lyapunov(x):
        return [x[0], x[1]]

    def dissipation(x):
        return 0.125 * (x[0] ** 2 + x[1] ** 2)

    beta = 2.0 / (zeta * (13.0 - 4.0 * zeta))

    def local_lyapunov(x):
        return 0.5 * x[0] ** 2 + beta * (x[1] + 2.0 * zeta * x[0]) ** 2

    def grad_local_lyapunov(x):
        mixed = x[1] + 2.0 * zeta * x[0]
        return [x[0] + 4.0 * zeta * beta * mixed, 2.0 * beta * mixed]

    def local_controller(x):
        return [-0.75 * zeta * (13.0 - 4.0 * zeta) * x[0]
                + 20.0 * zeta * x[0] ** 3]

    # quadratic form of the local Lyapunov function; its smallest eigenvalue
    # gives the coercivity constant, and the decay identity
    # grad_local . f(x, k(x)) <= -2 zeta P then yields the local decay rate
    pform = np.array([[0.5 + 4.0 * zeta ** 2 * beta, 2.0 * zeta * beta],
                      [2.0 * zeta * beta, beta]])
    coercivity = float(np.linalg.eigvalsh(pform)[0])
    local_decay = zeta * coercivity

    blend_lo = max(1.0, (10008.0 / 17.0) * zeta ** 2,
                   1251.0 * zeta ** 2 + 221.0 / 640.0)

    assm = AssumptionData(
        lyapunov=lyapunov,
        grad_lyapunov=grad_lyapunov,
        dissipation=dissipation,
        local_lyapunov=local_lyapunov,
        grad_local_lyapunov=grad_local_lyapunov,
        local_controller=local_controller,
        observer_gain=np.array([[-2.0 * zeta], [-1.0]]),
        error_metric=np.eye(2),
        absorbing_level=1.0,
        blend_lo=blend_lo,
        blend_hi=float(b_level),
        contraction_frac=float(c_frac),
        contraction_rate=zeta,
        local_decay=local_decay,
        coercivity=coercivity,
    )
    return plant, assm, (assm.blend_lo, assm.blend_hi)
