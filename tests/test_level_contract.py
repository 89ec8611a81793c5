"""The level contract of the public API, one row per level-bearing name.

Every name that spinalg exports and that takes operands of more than one
level gets a row: a call on one level that must work, and the same call with
one operand moved to another level, which must raise LevelMismatchError.
Every other export is listed in ONE_LEVEL, so a new export fails
test_every_export_is_classified until it is put in one of the two tables."""

import inspect
from fractions import Fraction

import pytest

import spinalg
from spinalg import cartan as ca
from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import spin_rep as sr
from spinalg import transfer_maps as tm
from spinalg.errors import LevelMismatchError


def spin(n, mask=0b11):
    return sr.SpinVector.basis(n, mask)


def vec(n, sym=1):
    return cc.VectorInV.basis(n, sym)


def poly(level):
    return ie.Polynomial.constant_finite(level, 1)


def family(n):
    return ie.orbit_pullback_family(n, "contract", 1)


# name (or name.method): (call at level 4, the same call with an operand at
# level 5, or one level off where the name relates two levels)
LEVEL_PAIRS = {
    "CliffordElement.__add__": (
        lambda: cc.CliffordElement.unit(4) + cc.CliffordElement.unit(4),
        lambda: cc.CliffordElement.unit(4) + cc.CliffordElement.unit(5),
    ),
    "CliffordElement.__mul__": (
        lambda: cc.CliffordElement.unit(4) * cc.CliffordElement.unit(4),
        lambda: cc.CliffordElement.unit(4) * cc.CliffordElement.unit(5),
    ),
    "ExteriorVector.__sub__": (
        lambda: cc.ExteriorVector.unit(4) - cc.ExteriorVector.unit(4),
        lambda: cc.ExteriorVector.unit(4) - cc.ExteriorVector.unit(5),
    ),
    "VectorInV.__add__": (lambda: vec(4) + vec(4), lambda: vec(4) + vec(5)),
    "SpinVector.__add__": (lambda: spin(4) + spin(4), lambda: spin(4) + spin(5)),
    "SoElement.__add__": (
        lambda: sr.SoElement.basis_ee(4, 1, 2) + sr.SoElement.basis_ee(4, 1, 2),
        lambda: sr.SoElement.basis_ee(4, 1, 2) + sr.SoElement.basis_ee(5, 1, 2),
    ),
    "GroupElement.__mul__": (
        lambda: sr.GroupElement.identity(4) * sr.GroupElement.identity(4),
        lambda: sr.GroupElement.identity(4) * sr.GroupElement.identity(5),
    ),
    "GroupElement.apply": (
        lambda: sr.GroupElement.identity(4).apply(spin(4)),
        lambda: sr.GroupElement.identity(4).apply(spin(5)),
    ),
    "LinearOperator.__add__": (
        lambda: sr.LinearOperator.of_contraction(4, 3) + sr.LinearOperator.of_contraction(4, 3),
        lambda: sr.LinearOperator.of_contraction(4, 3) + sr.LinearOperator.of_contraction(5, 3),
    ),
    "LinearOperator.__sub__": (
        lambda: sr.LinearOperator.of_contraction(4, 3) - sr.LinearOperator.of_contraction(4, 3),
        lambda: sr.LinearOperator.of_contraction(4, 3) - sr.LinearOperator.of_contraction(5, 3),
    ),
    "LinearOperator.apply": (
        lambda: sr.LinearOperator.identity(4).apply(spin(4)),
        lambda: sr.LinearOperator.identity(4).apply(spin(5)),
    ),
    "LinearOperator.compose": (
        lambda: sr.LinearOperator.identity(4).compose(sr.LinearOperator.identity(4)),
        lambda: sr.LinearOperator.identity(4).compose(sr.LinearOperator.identity(5)),
    ),
    "IsotropicSubspace.contains": (
        lambda: gc.annihilator(sr.SpinVector.omega0(4)).contains(vec(4)),
        lambda: gc.annihilator(sr.SpinVector.omega0(4)).contains(vec(5)),
    ),
    "Polynomial.__add__": (lambda: poly(4) + poly(4), lambda: poly(4) + poly(5)),
    "SpinVariable": (
        lambda: poly(4).partial(ie.SpinVariable.finite(4, 3)),
        lambda: poly(4).partial(ie.SpinVariable.finite(5, 3)),
    ),
    "act_on_exterior": (
        lambda: cc.act_on_exterior(cc.CliffordElement.unit(4), cc.ExteriorVector.unit(4)),
        lambda: cc.act_on_exterior(cc.CliffordElement.unit(4), cc.ExteriorVector.unit(5)),
    ),
    "mul": (
        lambda: cc.mul(cc.CliffordElement.unit(4), cc.CliffordElement.unit(4)),
        lambda: cc.mul(cc.CliffordElement.unit(4), cc.CliffordElement.unit(5)),
    ),
    "pairing": (lambda: cc.pairing(vec(4), vec(4)), lambda: cc.pairing(vec(4), vec(5))),
    "inner": (lambda: sr.inner(vec(4, -1), spin(4)), lambda: sr.inner(vec(4, -1), spin(5))),
    "outer": (lambda: sr.outer(vec(4), spin(4)), lambda: sr.outer(vec(4), spin(5))),
    "rho_so": (
        lambda: sr.rho_so(sr.SoElement.basis_ef(4, 1, 2), spin(4)),
        lambda: sr.rho_so(sr.SoElement.basis_ef(4, 1, 2), spin(5)),
    ),
    "beta": (lambda: tm.beta(spin(4), spin(4)), lambda: tm.beta(spin(4), spin(5))),
    "pi_general": (lambda: tm.pi_general(spin(4), vec(4)), lambda: tm.pi_general(spin(5), vec(4))),
    "psidual_residual": (
        lambda: tm.psidual_residual(spin(3), spin(4)),
        lambda: tm.psidual_residual(spin(4), spin(4)),
    ),
    "contract_ce": (
        lambda: ca.contract_ce(cc.ExteriorVector.unit(4), vec(4, 4), vec(4, -4)),
        lambda: ca.contract_ce(cc.ExteriorVector.unit(4), vec(5, 5), vec(5, -5)),
    ),
    "mult_mh": (
        lambda: ca.mult_mh(cc.ExteriorVector.unit(4), vec(5, -5)),
        lambda: ca.mult_mh(cc.ExteriorVector.unit(4), vec(4, -4)),
    ),
    "injectivity_witness": (
        lambda: ca.injectivity_witness(spin(4, 0), spin(4, 0)),
        lambda: ca.injectivity_witness(spin(4, 0), spin(5, 0)),
    ),
    "lower_factorization": (
        lambda: ca.lower_factorization(4, 4, 4, sr.GroupElement.identity(4)),
        lambda: ca.lower_factorization(4, 4, 4, sr.GroupElement.identity(5)),
    ),
    "certify_membership": (
        lambda: ie.certify_membership(sr.SpinVector.omega0(4), family(4)),
        lambda: ie.certify_membership(sr.SpinVector.omega1(5), family(4)),
    ),
    "eval_poly": (lambda: ie.eval_poly(poly(4), spin(4)), lambda: ie.eval_poly(poly(4), spin(5))),
    "pullback": (
        lambda: ie.pullback(poly(4), sr.LinearOperator.identity(4)),
        lambda: ie.pullback(poly(4), sr.LinearOperator.identity(5)),
    ),
    "vanishing_forms": (
        lambda: ie.vanishing_forms([spin(4, 0), spin(4, 0)], 0),
        lambda: ie.vanishing_forms([spin(4, 0), spin(5, 0)], 0),
    ),
}

# exports whose level-bearing arguments all share one level (or that take a
# level as a number): there is no second level to mismatch
ONE_LEVEL = {
    "AdaptedBasis",  # the record adapted_basis returns
    "adapted_basis",
    "annihilator",
    "beta_gram",
    "check_isotropic",  # a level and raw coordinate rows
    "degree_lowering_trace",
    "derivation_ff",
    "diagram_pi_residual",
    "diagram_tau_residual",
    "exp_nilpotent",
    "from_left_ideal",
    "gl_twist_residual",
    "i4_quadric",
    "is_pure",
    "normal_form",
    "nu2",
    "omega_of",
    "orbit_pullback_family",
    "pi_last",
    "pluecker",
    "produce_solving_element",
    "psi_last",
    "quadratic_value",
    "random_group_element",
    "sample_cone_point",
    "so_to_clifford",
    "star",
    "tau_last",
    "to_left_ideal",
}


def test_every_export_is_classified():
    exports = {
        name
        for name, obj in vars(spinalg).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    covered = {key.split(".")[0] for key in LEVEL_PAIRS}
    assert not covered & ONE_LEVEL
    assert exports == covered | ONE_LEVEL


@pytest.mark.parametrize("same, mixed", LEVEL_PAIRS.values(), ids=LEVEL_PAIRS.keys())
def test_mixed_levels_raise(same, mixed):
    same()
    with pytest.raises(LevelMismatchError):
        mixed()


def test_same_level_rows_compute():
    """A few of the same-level calls, checked for their value as well."""
    same = {key: pair[0] for key, pair in LEVEL_PAIRS.items()}
    assert same["pairing"]() == 0
    assert same["LinearOperator.__sub__"]().is_zero()
    assert same["injectivity_witness"]().ok
    assert same["eval_poly"]() == Fraction(1)
