"""Level-changing maps between spin spaces: contraction (drop the last
index), multiplication (inclusion), the dual contraction (append the last
index), the general contraction at an arbitrary isotropic vector, and the
invariant bilinear pairing beta with its Gram matrices."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import clifford_core as cc
from . import grassmann_cone as gc
from . import linalg
from . import spin_rep as sr
from .errors import (
    IndexRangeError,
    LevelMismatchError,
    ResourceBoundError,
    StructureError,
)

DENSE_LEVEL_BOUND = 6


def pi_last(x: sr.SpinVector) -> sr.SpinVector:
    """Contraction to level n-1: kills subsets containing n, keeps the rest."""
    n = x.n
    if n < 1:
        raise IndexRangeError("no level below 0")
    top = 1 << (n - 1)
    return sr.SpinVector(n - 1, {m: c for m, c in x.terms.items() if not m & top})


def tau_last(x: sr.SpinVector) -> sr.SpinVector:
    """Multiplication to level n+1: subsets unchanged, reinterpreted."""
    return sr.SpinVector(x.n + 1, dict(x.terms))


def psi_last(x: sr.SpinVector) -> sr.SpinVector:
    """Dual of contraction to level n+1: append the new top index (sign +1)."""
    top = 1 << x.n
    return sr.SpinVector(x.n + 1, {m | top: c for m, c in x.terms.items()})


def pi_tower(x: sr.SpinVector, target: int) -> sr.SpinVector:
    if target > x.n:
        raise IndexRangeError("tower contraction cannot raise the level")
    out = x
    while out.n > target:
        out = pi_last(out)
    return out


def tau_tower(x: sr.SpinVector, target: int) -> sr.SpinVector:
    if target < x.n:
        raise IndexRangeError("tower multiplication cannot lower the level")
    out = x
    while out.n < target:
        out = tau_last(out)
    return out


# -- contraction at a general isotropic vector -------------------------------


@lru_cache(maxsize=64)
def _primed_contraction_solver(n: int, e_coords: tuple):
    """For an isotropic e with nonzero E-part, precompute the expansion of
    the primed ideal basis e'_I f'_1..f'_{n-1} and a solver expressing a
    Clifford element exactly in that basis: the basis is checked independent
    once, rank 2^n, so solve(y) is one exact solve, unique, or StructureError.
    It stays an lru_cache: perfbench/tracer.py reads its cache_info()."""
    e = cc.VectorInV.from_coords(n, list(e_coords))
    basis = gc.hyperbolic_basis_through(e)
    f_block = gc.multiply_vectors(n, basis.new_f[: n - 1])
    elements: list[cc.CliffordElement] = []
    for mask in range(1 << n):
        letters = [basis.new_e[i] for i in range(n) if mask >> i & 1]
        elements.append(cc.mul(gc.multiply_vectors(n, letters), f_block))
    span = set().union(*[set(el.terms) for el in elements])
    monos = sorted(span)
    a = [[el.coefficient(m) for el in elements] for m in monos]
    if linalg.rank(a) != 1 << n:
        raise StructureError("primed ideal basis is not independent")

    def solve(y: cc.CliffordElement) -> list[Fraction]:
        z = None if y.terms.keys() - span else linalg.solve(a, [y.coefficient(m) for m in monos])
        if z is None:
            raise StructureError("contraction image left the primed ideal")
        return z

    return basis, solve


def quotient_model_basis(e: cc.VectorInV) -> gc.HyperbolicBasis:
    """The deterministic hyperbolic basis used by pi_general for this e."""
    basis, _ = _primed_contraction_solver(e.n, tuple(e.coords()))
    return basis


def pi_general(x: sr.SpinVector, e: cc.VectorInV) -> sr.SpinVector:
    """Contraction at an arbitrary isotropic e with nonzero E-part.

    Computed by the defining Clifford formula (ex + (-1)^(n-1) xe halved on
    the even part, sign (-1)^n on the odd part), then re-expressed in the
    deterministic adapted basis and reduced modulo e.
    """
    n = x.n
    x._check_level(e)
    basis, solve = _primed_contraction_solver(n, tuple(e.coords()))
    ev, od = x.parity_split()
    ec = e.as_clifford()
    sign_even = Fraction((-1) ** (n - 1), 2)
    sign_odd = Fraction((-1) ** n, 2)
    y = cc.CliffordElement.zero(n)
    for part, sg in ((ev, sign_even), (od, sign_odd)):
        if part.is_zero():
            continue
        xc = sr.to_left_ideal(part)
        y = y + (cc.mul(ec, xc).scale(sg) + cc.mul(xc, ec).scale(Fraction(1, 2)))
    if y.is_zero():
        return sr.SpinVector.zero(n - 1)
    z = solve(y)
    return pi_last(sr.SpinVector(n, {mask: c for mask, c in enumerate(z) if c}))


def vector_in_quotient(v: cc.VectorInV, e: cc.VectorInV) -> cc.VectorInV:
    """Express v in e-perp as a level-(n-1) vector of the quotient model."""
    n = v.n
    basis = quotient_model_basis(e)
    rows = linalg.transpose([w.coords() for w in basis.rows()])
    sol = linalg.solve(rows, v.coords())
    if sol is None:
        raise StructureError("basis does not span")
    if sol[2 * n - 1] != 0:
        raise IndexRangeError("vector is not orthogonal to e")
    coords = [sol[i] for i in range(n - 1)] + [sol[n + i] for i in range(n - 1)]
    return cc.VectorInV.from_coords(n - 1, coords)


# -- the invariant pairing ----------------------------------------------------


def beta_direct(x: sr.SpinVector, y: sr.SpinVector) -> Fraction:
    """Pairing via one full Clifford product: the f-coefficient of x* y."""
    x._check_level(y)
    n = x.n
    prod = cc.mul(cc.star(sr.to_left_ideal(x)), sr.to_left_ideal(y))
    return prod.coefficient((0, (1 << n) - 1))


def _complement_sign(s: int) -> int:
    """sign(n, S) = (-1)^(k(k-1)/2 + inv(S)) with k = |S| and inv(S) the
    number of pairs i in S, j not in S, j < i.  The i-th smallest element of
    S (bit position p_i, from 0) has p_i - (i - 1) such j below it, so the
    exponent is the sum of the bit positions of S and the sign does not
    depend on n."""
    return -1 if sum(p for p in range(s.bit_length()) if s >> p & 1) & 1 else 1


@lru_cache(maxsize=8)
def _gram_rows(n: int) -> tuple:
    """Row S of the Gram matrix, the pairing of e_S f against every e_T f:
    2^n sign(n, S) at T = S ^ (2^n - 1), zero elsewhere (Chevalley, The
    Algebraic Theory of Spinors, 1954, Ch. III; see beta).

    It stays an lru_cache: perfbench/tracer.py reads its cache_info().  The
    rows share one Fraction per value and are read off one scratch row."""
    full = (1 << n) - 1
    zero, plus, minus = Fraction(0), Fraction(1 << n), Fraction(-1 << n)
    row = [zero] * (1 << n)
    rows = []
    for s in range(1 << n):
        row[s ^ full] = plus if _complement_sign(s) > 0 else minus
        rows.append(tuple(row))
        row[s ^ full] = zero
    return tuple(rows)


def beta(x: sr.SpinVector, y: sr.SpinVector) -> Fraction:
    """The invariant pairing as a signed complement pairing:

        beta(x, y) = 2^n * sum_S sign(n, S) * x_S * y_(S ^ full),

    full = 2^n - 1: e_S f pairs only with the spinor of the complementary
    subset (Chevalley, The Algebraic Theory of Spinors, 1954, Ch. III).  It
    equals beta_direct, the f-coefficient of x* y, at every level."""
    x._check_level(y)
    full = (1 << x.n) - 1
    ys = y.terms
    total = Fraction(0)
    for s, a in x.terms.items():
        b = ys.get(s ^ full)
        if b is not None:
            total += _complement_sign(s) * a * b
    return total * (1 << x.n)


def beta_gram(n: int) -> list[list[Fraction]]:
    """Dense Gram matrix over the 2^n monomial basis (mask order)."""
    if n > DENSE_LEVEL_BOUND:
        raise ResourceBoundError(
            f"dense Gram materialization is limited to n <= {DENSE_LEVEL_BOUND}"
        )
    return [list(r) for r in _gram_rows(n)]


PSIDUAL_SCALAR = Fraction(1, 2)


def psidual_residual(a: sr.SpinVector, x: sr.SpinVector) -> Fraction:
    """beta_(n-1)(pi(x), a) - (1/2) beta_n(x, psi(a)); identically zero.

    In the canonical model (ascending wedge order, f = f_1...f_n) the
    duality diagram commutes with the constant scalar 1/2 at every level:
    the ratio beta_n(x, psi a) / beta_(n-1)(pi x, a) equals 2 on every
    basis pair where both sides are nonzero, with matching zero patterns."""
    n = x.n
    if a.n != n - 1:
        raise LevelMismatchError("first argument must live one level down")
    lhs = beta(pi_last(x), a)
    rhs = beta(x, psi_last(a))
    return lhs - PSIDUAL_SCALAR * rhs
