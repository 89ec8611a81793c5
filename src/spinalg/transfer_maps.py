"""Level-changing maps between spin spaces: contraction (drop the last
index), multiplication (inclusion), the dual contraction (append the last
index), the general contraction at an arbitrary isotropic vector, and the
invariant bilinear pairing beta with its Gram matrices."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from . import clifford_core as cc
from . import grassmann_cone as gc
from . import linalg
from . import spin_rep as sr
from .errors import IndexRangeError, LevelMismatchError, ResourceBoundError

DENSE_LEVEL_BOUND = 6


def pi_last(x: sr.SpinVector) -> sr.SpinVector:
    """Contraction to level n-1: kills subsets containing n, keeps the rest."""
    n = x.n
    if n < 1:
        raise IndexRangeError("no level below 0")
    top = 1 << (n - 1)
    return sr.SpinVector._ints(n - 1, {m: c for m, c in x.num.items() if not m & top}, x.den)


def tau_last(x: sr.SpinVector) -> sr.SpinVector:
    """Multiplication to level n+1: subsets unchanged, reinterpreted."""
    return sr.SpinVector._ints(x.n + 1, x.num, x.den)


def psi_last(x: sr.SpinVector) -> sr.SpinVector:
    """Dual of contraction to level n+1: append the new top index (sign +1)."""
    top = 1 << x.n
    return sr.SpinVector._ints(x.n + 1, {m | top: c for m, c in x.num.items()}, x.den)


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
    """(basis, (letters, det Phi)) for an isotropic e with nonzero E-part:
    the hyperbolic basis through e, each e_i as an int letter of the primed
    wedge model with its scale (_action_letter of its symbol_coords), and
    det Phi, f'_1..f'_n = det Phi f.  It keeps its name and stays an
    lru_cache because perfbench/tracer.py wraps it and reads cache_info()."""
    basis = gc.hyperbolic_basis_through(cc.VectorInV.from_coords(n, list(e_coords)))
    letters = tuple(sr._action_letter(row, n) for row in basis.symbol_coords()[:n])
    return basis, (letters, linalg.det([list(v.f) for v in basis.new_f]))


def pi_general(x: sr.SpinVector, e: cc.VectorInV) -> sr.SpinVector:
    """Contraction at an arbitrary isotropic e with nonzero E-part: x in the
    primed wedge model of the hyperbolic basis through e, then pi_last.
    This is the defining formula, ex + (-1)^(n-1) xe halved on the even part
    and with sign (-1)^n on the odd part, in closed form (Chevalley, The
    Algebraic Theory of Spinors, 1954, Ch. III).  Put e'_n = e, f' =
    f'_1..f'_n = det Phi f and x f = sum_I z_I e'_I f'.  Then e (e'_I f') =
    (-1)^|I| e'_I e'_n f' for n not in I, 0 for n in I, and (e'_I f') e =
    2 e'_I f'_1..f'_(n-1) - (-1)^(n-1) e'_I e'_n f'; with either sign the
    e'_I e'_n f' terms cancel, so the formula is sum_I z_I e'_I
    f'_1..f'_(n-1): the contraction is z without the masks holding n.  z is
    one kernel pass, linear in x: x_S / det Phi times the word of the
    primed letters of e_S on the vacuum (over x's denominator), as in omega_of.
    """
    n = x.n
    x._check_level(e)
    _, (letters, det_phi) = _primed_contraction_solver(n, tuple(e.coords()))
    words = []
    for mask, c in x.num.items():
        word = [letters[i] for i in range(n) if mask >> i & 1]
        words.append((c / (det_phi * prod(scale for _, scale in word)), [letter for letter, _ in word]))
    return pi_last(sr._act(words, sr.SpinVector._ints(n, {0: 1}, x.den)))


def vector_in_quotient(v: cc.VectorInV, e: cc.VectorInV) -> cc.VectorInV:
    """Express v in e-perp as a level-(n-1) vector of the quotient model.

    In the hyperbolic basis through e (read from pi_general's primed solver),
    v = sum a_i e'_i + b_i f'_i with a_i = (v|f'_i) and b_i = (v|e'_i);
    b_n = (v|e) must be 0, and a_n, the coefficient of e'_n = e, is dropped."""
    basis = _primed_contraction_solver(e.n, tuple(e.coords()))[0]
    if cc.pairing(v, e) != 0:
        raise IndexRangeError("vector is not orthogonal to e")
    coords = [cc.pairing(v, f) for f in basis.new_f[:-1]] + [cc.pairing(v, w) for w in basis.new_e[:-1]]
    return cc.VectorInV.from_coords(v.n - 1, coords)


# -- the invariant pairing ----------------------------------------------------


def beta_direct(x: sr.SpinVector, y: sr.SpinVector) -> Fraction:
    """Pairing via one full Clifford product, independent of beta's formula:
    the f-coefficient of (x f)* (y f), made by associativity (cc.star_mul)
    with no normal-ordered (x f)*."""
    return cc.star_mul(sr.to_left_ideal(x), sr.to_left_ideal(y)).coefficient((0, (1 << x.n) - 1))


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
    ys = y.num
    total = 0
    for s, a in x.num.items():
        b = ys.get(s ^ full)
        if b is not None:
            total += _complement_sign(s) * a * b
    return Fraction(total << x.n, x.den * y.den)


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
