"""Exact computations with Clifford algebras, spin representations, and
isotropic Grassmann cones over the rationals.

Everything is exact (stdlib Fractions): equality tests carry no tolerance.
The subpackages follow the layers of the construction:

    clifford_core   normal-ordered arithmetic in Cl(V_n), the module action
    spin_rep        the wedge model of the spin representation, group words
    transfer_maps   level-changing contraction / multiplication / duality
    grassmann_cone  pure spinors and the annihilator membership oracle
    cartan          the quadratic map to the middle exterior power
    ideal_engine    polynomials, quadric discovery, pullback certificates
    cli             the batch verification harness (`spinalg` entry point)
"""

__version__ = "0.1.0"

from .clifford_core import (  # noqa: F401
    CliffordElement,
    ExteriorVector,
    VectorInV,
    act_on_exterior,
    mul,
    normal_form,
    pairing,
    quadratic_value,
    so_to_clifford,
    star,
)
from .spin_rep import (  # noqa: F401
    GroupElement,
    LinearOperator,
    SoElement,
    SpinVector,
    exp_nilpotent,
    gl_twist_residual,
    inner,
    outer,
    random_group_element,
    rho_so,
    to_left_ideal,
    from_left_ideal,
)
from .transfer_maps import (  # noqa: F401
    beta,
    beta_gram,
    pi_general,
    pi_last,
    psi_last,
    psidual_residual,
    tau_last,
)
from .grassmann_cone import (  # noqa: F401
    AdaptedBasis,
    IsotropicSubspace,
    adapted_basis,
    annihilator,
    check_isotropic,
    is_pure,
    omega_of,
    pluecker,
    sample_cone_point,
)
from .cartan import (  # noqa: F401
    contract_ce,
    diagram_pi_residual,
    diagram_tau_residual,
    injectivity_witness,
    lower_factorization,
    mult_mh,
    nu2,
)
from .ideal_engine import (  # noqa: F401
    Polynomial,
    SpinVariable,
    certify_membership,
    degree_lowering_trace,
    derivation_ff,
    eval_poly,
    i4_quadric,
    orbit_pullback_family,
    produce_solving_element,
    pullback,
    vanishing_forms,
)
