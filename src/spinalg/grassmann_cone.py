"""Maximal isotropic subspaces, adapted hyperbolic bases, pure spinors,
and the annihilator membership oracle for the isotropic Grassmann cone."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from . import clifford_core as cc
from . import linalg
from . import spin_rep as sr
from .spin_rep import _apply_step
from .errors import (
    IndexRangeError,
    LevelMismatchError,
    NotIsotropicError,
    SpinalgError,
    StructureError,
)


class IsotropicSubspace:
    """A subspace of the level-n space on which the form vanishes.

    Rows are kept in reduced row echelon form, so equal subspaces compare
    equal.  The constructor takes the rows of that form and checks them:
    IndexRangeError for a row that is not 2n long, NotIsotropicError for a
    nonzero Gram entry, SpinalgError for dependent rows and StructureError
    for independent rows that are not their own rref.  Use check_isotropic()
    to construct from any spanning rows.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        coords = _as_coord_rows(rows, n)
        span = check_isotropic(coords, n)
        if [list(r) for r in span.rows] != coords:
            raise StructureError("rows are not their own rref")
        self.n = n
        self.rows = span.rows

    @classmethod
    def _trusted(cls, n: int, rows: tuple[tuple[Fraction, ...], ...]) -> "IsotropicSubspace":
        """The subspace on rows as given, unchecked: they must be the rref rows
        of an isotropic subspace, each a tuple of 2n Fractions.  _rref_split
        rejects rows that are not their own rref; isotropy is left to audits."""
        self = object.__new__(cls)
        self.n = n
        self.rows = rows
        return self

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[cc.VectorInV]:
        return [cc.VectorInV.from_coords(self.n, r) for r in self.rows]

    def contains(self, v: cc.VectorInV) -> bool:
        if v.n != self.n:
            raise LevelMismatchError(f"levels differ: {self.n} vs {v.n}")
        stacked = [list(r) for r in self.rows]
        return linalg.rank(stacked + [v.coords()]) == len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, IsotropicSubspace) and (self.n, self.rows) == (other.n, other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __str__(self) -> str:
        return "[" + "; ".join(str(cc.VectorInV.from_coords(self.n, r)) for r in self.rows) + "]"

    __repr__ = __str__


def _as_coord_rows(rows, n: int) -> list[list[Fraction]]:
    out = []
    for r in rows:
        out.append(r.coords() if isinstance(r, cc.VectorInV) else [Fraction(x) for x in r])
        if len(out[-1]) != 2 * n:
            raise IndexRangeError("row length must be 2n")
    return out


def _row_pairing(a: linalg.IntRow, b: linalg.IntRow, n: int) -> int:
    """(a|b) for sparse coordinate rows over (e-block, f-block)."""
    total = 0
    for k, x in a.items():
        y = b.get(k + n if k < n else k - n)
        if y:
            total += x * y
    return total


def _gram_audit(rows: list[linalg.IntRow], scales: list, n: int) -> None:
    """NotIsotropicError unless the vectors rows[i] / scales[i], given as
    integer rows, pair to zero two by two."""
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            g = _row_pairing(a, rows[j], n)
            if g:
                raise NotIsotropicError(
                    f"Gram entry (row {i + 1}, row {j + 1}) = "
                    f"{Fraction(g) / (scales[i] * scales[j])} != 0"
                )


def _isotropic_subspace(rows: list[linalg.IntRow], n: int) -> IsotropicSubspace:
    """The span of integer rows that passed _gram_audit, after the rank
    audit, on its rref rows.  Eliminates the rows in place."""
    pivots = linalg._eliminate(rows)
    if len(pivots) != len(rows):
        raise SpinalgError(f"rows are rank deficient: rank {len(pivots)} < {len(rows)}")
    return IsotropicSubspace._trusted(n, tuple(map(tuple, linalg._pivot_rows(rows, pivots, 2 * n))))


def check_isotropic(rows, n: int) -> IsotropicSubspace:
    """Validate candidate rows: zero Gram matrix and full rank."""
    ints, scales = [], []
    for r in _as_coord_rows(rows, n):
        row, den, content = linalg._integer_row(enumerate(r))
        ints.append(row)
        scales.append(Fraction(den, content))
    _gram_audit(ints, scales, n)
    return _isotropic_subspace(ints, n)


def coordinate_subspace(n: int, emask: int) -> IsotropicSubspace:
    """span of {e_i : i in emask} and {f_j : j not in emask}, emask < 2^n."""
    if not 0 <= emask < 1 << n:
        raise IndexRangeError(f"coordinate mask {emask} out of range at level {n}")
    rows = [cc.VectorInV.basis(n, i) for i in range(1, n + 1) if emask >> (i - 1) & 1]
    rows += [cc.VectorInV.basis(n, -j) for j in range(1, n + 1) if not emask >> (j - 1) & 1]
    return check_isotropic(rows, n)


@dataclass(frozen=True)
class HyperbolicBasis:
    """A full hyperbolic basis e'_1..e'_n, f'_1..f'_n given in standard coords."""

    n: int
    new_e: tuple[cc.VectorInV, ...]
    new_f: tuple[cc.VectorInV, ...]

    def verify(self) -> None:
        n = self.n
        for i in range(n):
            for j in range(n):
                if cc.pairing(self.new_e[i], self.new_e[j]) != 0:
                    raise StructureError(f"(e'_{i+1}|e'_{j+1}) != 0")
                if cc.pairing(self.new_f[i], self.new_f[j]) != 0:
                    raise StructureError(f"(f'_{i+1}|f'_{j+1}) != 0")
                want = Fraction(1) if i == j else Fraction(0)
                if cc.pairing(self.new_e[i], self.new_f[j]) != want:
                    raise StructureError(f"(e'_{i+1}|f'_{j+1}) != {want}")

    def rows(self) -> list[cc.VectorInV]:
        return list(self.new_e) + list(self.new_f)

    def symbol_coords(self) -> list[list[Fraction]]:
        """Row s: the coordinates of the standard symbol s (e_1..e_n, then
        f_1..f_n) over rows(), the rows of its inverse.  In a hyperbolic
        basis they are pairings: ((s|f'_j))_j, then ((s|e'_j))_j."""
        cols = [_pairing_functional(w) for w in self.new_f + self.new_e]
        return [list(r) for r in zip(*cols)]


@dataclass(frozen=True)
class AdaptedBasis(HyperbolicBasis):
    """Hyperbolic basis adapted to a maximal isotropic H and the fixed F:
    f'_1..f'_k span H∩F, f'_1..f'_n span F, e'_{k+1}..e'_n,f'_1..f'_k span H."""

    k: int


def _pairing_functional(w: cc.VectorInV) -> list[Fraction]:
    """Coordinates of v -> (v|w) as a row over (e-coords, f-coords) of v."""
    return list(w.f) + list(w.e)


def _complete_e_rows(
    n: int,
    fprime: list[cc.VectorInV],
    known: dict[int, cc.VectorInV],
) -> list[cc.VectorInV]:
    """Fill the missing e'_i (1-based keys in `known`) of a hyperbolic basis.

    Deterministic: each missing slot takes the canonical solution of its
    pairing constraints, then an f'_i multiple fixes isotropy.
    """
    built = dict(known)
    for i in range(1, n + 1):
        if i in built:
            continue
        rows = [_pairing_functional(v) for v in fprime] + [_pairing_functional(v) for v in built.values()]
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(1, n + 1)] + [Fraction(0)] * len(built)
        sol = linalg.solve(rows, rhs)
        if sol is None:
            raise StructureError("hyperbolic completion has no solution")
        v = cc.VectorInV.from_coords(n, sol)
        v = v - fprime[i - 1].scale(cc.quadratic_value(v) / 2)
        built[i] = v
    return [built[i] for i in range(1, n + 1)]


def _f_ends(hf, n: int) -> list[int]:
    """The f-indices, ascending, at which the vectors of span(hf) in F end:
    the pivots of one elimination of the rows' f-parts from the last column."""
    reversed_f = [linalg._integer_row(enumerate(reversed(r[n:])))[0] for r in hf]
    return sorted(n - 1 - c for c, _ in linalg._eliminate(reversed_f))


def adapted_basis(h: IsotropicSubspace) -> AdaptedBasis:
    """Deterministic adapted hyperbolic basis for a maximal isotropic H, read
    off its rows by _rref_split, which rejects H when it is not maximal or
    its rows are not their own rref.

    f'_1..f'_k are the rows spanning H∩F, then come the standard f_j at which
    no vector of H∩F ends, lowest index first, the last of the block over d:
    that scales it to determinant one against the standard f-basis and pins
    the scalar of every derived object (omega_of, pluecker).  The other rows
    W complement H∩F in H, and e'_(k+1..n) = P^-1 W, one exact solve.  So
    e'_(k+1..n), f'_1..f'_k span H by construction; verify() audits the rest.

    omega_of and pluecker read its objects off H's rref rows in closed form
    and do not call it.  It stays public as the one place a caller gets the
    e'- and f'-vectors that define those closed forms, and as the reference
    their tests compare to.
    """
    n = h.n
    rows, m, ends, d, _ = _rref_split(h)
    k = n - m
    cols = [j for j in range(n) if j not in ends]
    fprime = [cc.VectorInV.from_coords(n, r) for r in rows[m:]]
    fprime += [cc.VectorInV.basis(n, -j - 1) for j in cols]
    fprime[-1] = fprime[-1].scale(1 / d)
    # P = ((w_a|f'_(k+b))): W's e-coordinates at the f_j, the last over d
    p = [[r[j] for j in cols[:-1]] + [r[cols[-1]] / d] for r in rows[:m]]
    e_top = linalg.solve_matrix(p, [list(r) for r in rows[:m]])
    known = {k + 1 + a: cc.VectorInV.from_coords(n, r) for a, r in enumerate(e_top)}
    new_e = _complete_e_rows(n, fprime, known)
    basis = AdaptedBasis(n=n, new_e=tuple(new_e), new_f=tuple(fprime), k=k)
    basis.verify()
    return basis


def hyperbolic_basis_through(e: cc.VectorInV, h: cc.VectorInV | None = None) -> HyperbolicBasis:
    """Hyperbolic basis with e'_n = e and f'_1..f'_n spanning the standard F.

    If h is given it must lie in F with (e|h) = 1; then f'_n = h.  Otherwise
    f'_n is the lowest-index standard f_j with (e|f_j) != 0, rescaled.  The
    f_j - (e|f_j) f'_n span F ∩ e-perp with the one relation sum_j (f'_n)_j
    (f_j - (e|f_j) f'_n) = 0: those of every j but the last in f'_n's support
    are f'_1..f'_(n-1), lowest index first.  Their dual rows in E, e_j -
    ((f'_n)_j / (f'_n)_last) e_last, less (their pairing with e) f'_n, are
    e'_1..e'_(n-1)."""
    n = e.n
    cc.require_isotropic(e, "contraction vector")
    if all(c == 0 for c in e.e):
        raise IndexRangeError("vector lies in F; contraction is not defined there")
    if h is None:
        j0 = next(i for i, c in enumerate(e.e) if c != 0)
        f_last = cc.VectorInV.basis(n, -(j0 + 1)).scale(1 / e.e[j0])
    else:
        if any(c != 0 for c in h.e):
            raise IndexRangeError("hyperbolic partner must lie in F")
        if cc.pairing(e, h) != 1:
            raise NotIsotropicError("(e|h) must equal 1")
        f_last = h
    # remaining f'-rows span F ∩ e-perp, lowest index first
    last = max(j for j in range(n) if f_last.f[j])
    kept = [j for j in range(n) if j != last]
    fprime = [cc.VectorInV.basis(n, -j - 1) - f_last.scale(e.e[j]) for j in kept] + [f_last]
    dual = [cc.VectorInV.basis(n, j + 1) - cc.VectorInV.basis(n, last + 1).scale(f_last.f[j] / f_last.f[last]) for j in kept]
    new_e = [v - f_last.scale(cc.pairing(v, e)) for v in dual] + [e]
    basis = HyperbolicBasis(n=n, new_e=tuple(new_e), new_f=tuple(fprime))
    basis.verify()
    return basis


def _is_own_rref(rows) -> bool:
    """Whether the rows are their own rref: pivots (first nonzero entries)
    increase, each pivot is 1, and each pivot column is zero elsewhere."""
    pivots = [next((c for c, x in enumerate(r) if x), -1) for r in rows]
    return (all(p >= 0 and r[p] == 1 for p, r in zip(pivots, rows)) and pivots == sorted(set(pivots))
            and not any(r[p] for a, p in enumerate(pivots) for i, r in enumerate(rows) if i != a))


def _rref_split(h: IsotropicSubspace) -> tuple[tuple, int, list[int], Fraction, Fraction]:
    """(rows, m, ends, d, det P) for a maximal H: its rref rows, the m = n - k
    rows W with a nonzero e-part first, then the k rows spanning H∩F; the
    f-indices at which those end (_f_ends); with J the f-indices outside the
    ends, d the determinant of the f'-block (H∩F, then the f_j at J) before
    it is normalised, and P W's e-coordinates at J, (w_a|f'_(k+b)), its last
    column over d.  Raises SpinalgError for H not maximal, StructureError for
    rows that are not their own rref, ValueError for det P = 0."""
    n, rows = h.n, h.rows
    if h.dim != n:
        raise SpinalgError(f"subspace is not maximal: dim {h.dim} != {n}")
    if not _is_own_rref(rows):
        raise StructureError("rows are not their own rref")
    m = sum(1 for r in rows if any(r[:n]))
    ends = _f_ends(rows[m:], n)
    cols = [j for j in range(n) if j not in ends]
    # d is +- the minor of the H∩F rows at their ends
    d = linalg.det([[r[n + c] for c in ends] for r in rows[m:]])
    if sum(j < c for c in ends for j in cols) % 2:
        d = -d
    det_p = linalg.det([[r[j] for j in cols] for r in rows[:m]]) / d
    if not det_p:
        raise ValueError("H's rows pair singularly with f'_(k+1)..f'_n")
    return rows, m, ends, d, det_p


def omega_of(h: IsotropicSubspace) -> sr.SpinVector:
    """The pure spinor of H, e'_{k+1}..e'_n f'_1..f'_n in the wedge model, in
    closed form from H's rref rows (_rref_split): f'_1..f'_n = f_1..f_n, the
    vacuum, since the f'-block has determinant 1 and F is isotropic, and
    e'_{k+1}..e'_n = det(P)^-1 w_1..w_m, since e'_{k+1..n} = P^-1 W and H is
    isotropic.  So omega_H = det(P)^-1 w_1.(w_2.(...(w_m.1))), one kernel word
    of W's integer letters on the vacuum.  The audit: omega is not zero and
    every row of H annihilates it.  The annihilator of a nonzero spinor is
    isotropic, so this certifies that H is isotropic and omega its pure
    spinor; the formula fixes the scalar."""
    n = h.n
    rows, m, _, _, det_p = _rref_split(h)
    letters = [sr._action_letter(r, n) for r in rows]
    coef = 1 / (det_p * math.prod(scale for _, scale in letters[:m]))
    omega = sr._act([(coef, [letter for letter, _ in letters[:m]])], sr.SpinVector.basis(n, 0))
    if omega.is_zero():
        raise StructureError("omega_H vanished: H is not isotropic")
    for i, (letter, _) in enumerate(letters):
        if not sr._act([(1, [letter])], omega).is_zero():
            raise StructureError(f"row {i + 1} of H does not annihilate omega_H")
    return omega


def pluecker(h: IsotropicSubspace) -> cc.ExteriorVector:
    """The wedge of the adapted rows e'_{k+1}..e'_n, f'_1..f'_k of H, in
    closed form from its rref rows (_rref_split): det(P)^-1 w_1^..^w_m ^
    hf_1^..^hf_k, with one more factor 1/d when k = n, where d = 1 since the
    rows are then the standard f-basis.  The audit: the rows are their own
    rref and the Gram matrix of their integer multiples is zero."""
    n = h.n
    rows, _, _, _, det_p = _rref_split(h)
    ints = [linalg._integer_row(enumerate(r))[0] for r in rows]
    if any(_row_pairing(a, b, n) for i, a in enumerate(ints) for b in ints[i:]):
        raise StructureError("H is not isotropic: the Gram matrix of its rows is not zero")
    return cc.wedge_of_vectors(n, [cc.VectorInV.from_coords(n, r) for r in rows]).scale(1 / det_p)


def _action_row(ints: linalg.IntRow, t: int, n: int) -> linalg.IntRow:
    """The row at image mask t of the integer action matrix of v -> v.X on
    the primitive integer multiple X = ints of x, which has the same
    annihilator.  Column e_i wedges bit i-1 into mask t ^ (1 << (i-1)) of X
    when t has that bit, column f_i contracts it out with the factor 2 (as in
    vector_action) when t has not, each with the sign of the set bits of t
    below it; a (row, column) entry has exactly one source mask."""
    row = {}
    for i in range(n):
        b = 1 << i
        c = ints.get(t ^ b)
        if c:
            v = -c if (t & (b - 1)).bit_count() & 1 else c
            if t & b:
                row[i] = v
            else:
                row[n + i] = 2 * v
    return row


def _split_action(x: sr.SpinVector) -> tuple[dict[int, tuple[int, linalg.IntRow]], int, Iterator[linalg.IntRow]]:
    """The action rows of x (_action_row) split at its first support mask s0.

    With C the columns e_i for the bits i-1 outside s0 and f_i for those in
    s0, the row at s0 ^ (1 << (i-1)) has exactly one entry D in C, +-X[s0] or
    +-2 X[s0], in the column of bit i-1: these n rows are pivots [D | M] with
    D diagonal, so the rank is at least n.  Returns (pivots, l, others): l is
    the lcm of the D, pivots maps each column c of C to (l / D_c, M_c) with
    M_c the pivot row off C, and others yields the other nonzero rows one at
    a time."""
    n = x.n
    ints = x.integer_form()[0]
    s0 = next(iter(ints))
    pivots = {}
    for i in range(n):
        row = _action_row(ints, s0 ^ (1 << i), n)
        c = n + i if s0 >> i & 1 else i
        pivots[c] = (row.pop(c), row)
    l = math.lcm(*(d for d, _ in pivots.values()))

    def others():
        seen = {s0 ^ (1 << i) for i in range(n)}
        for m in ints:
            for i in range(n):
                t = m ^ (1 << i)
                if t not in seen:
                    seen.add(t)
                    yield _action_row(ints, t, n)

    return {c: (l // d, rest) for c, (d, rest) in pivots.items()}, l, others()


def _residual(row: linalg.IntRow, pivots: dict, l: int) -> linalg.IntRow:
    """l row - sum over c in C of row[c] (l / D_c) pivot_c: the row reduced
    by the pivot rows in one pass, zero on C, so kept off C."""
    out = {k: l * v for k, v in row.items() if k not in pivots}
    for c, v in row.items():
        if c in pivots:
            q, rest = pivots[c]
            f = v * q
            for k, y in rest.items():
                z = out.get(k, 0) - f * y
                if z:
                    out[k] = z
                else:
                    del out[k]
    return out


def _split_kernel(pivots: dict, l: int, residuals: list[linalg.IntRow], n: int) -> list[linalg.IntRow]:
    """The annihilator from the split (_split_action) as integer rows, after
    the Gram audit of check_isotropic: the kernel of the residual rows over
    the n columns off C, each vector w lifted to l w - sum over c in C of
    (l / D_c)(M_c . w) e_c.  Without residuals the kernel is the unit
    vectors there, so row k is l e_k plus its lift, and no other row has an
    entry at k: the rows are independent.  Eliminates the residual rows in
    place; _isotropic_subspace takes the rank audit and the rref."""
    lift: dict[int, dict[int, int]] = {}  # column k off C -> {c: -(l / D_c) M_c[k]}
    for c, (q, rest) in pivots.items():
        for k, y in rest.items():
            lift.setdefault(k, {})[c] = -q * y
    free = [k for k in range(2 * n) if k not in pivots]
    if not residuals:
        rows = [{k: l, **lift.get(k, {})} for k in free]
        scales = [l] * len(rows)
    else:
        rows, scales = [], []
        for w, s in linalg._kernel(residuals, linalg._eliminate(residuals), free):
            v = {k: l * y for k, y in w.items()}
            for k, y in w.items():
                for c, z in lift.get(k, {}).items():
                    v[c] = v.get(c, 0) + z * y
            rows.append({k: y for k, y in v.items() if y})
            scales.append(l * s)
    _gram_audit(rows, scales, n)
    return rows


def annihilator(x: sr.SpinVector) -> IsotropicSubspace:
    """The exact nullspace of v -> v.x in V; always isotropic of dim <= n.

    The action rows are split at one support mask of x into n pivot rows,
    diagonal on a set C of n columns, and the rest (_split_action); each
    other row is reduced against the pivots in one pass (_residual).  The
    kernel of the residuals on the n columns off C, lifted through the
    pivots, is the annihilator (_split_kernel); it passes the same Gram and
    rank audits as check_isotropic, and is returned on its rref rows."""
    if x.is_zero():
        raise SpinalgError("annihilator of the zero vector is all of V")
    pivots, l, others = _split_action(x)
    residuals = [r for r in (_residual(row, pivots, l) for row in others) if r]
    return _isotropic_subspace(_split_kernel(pivots, l, residuals, x.n), x.n)


@dataclass(frozen=True, eq=False, repr=False)
class PurityResult:
    """Cone membership verdict: 'pure', 'not_pure', or 'zero' (0 is on the cone).

    A pure verdict holds the annihilator's n lifted integer rows, audited
    isotropic by is_pure; subspace, the annihilator, is their rref, written
    after the rank audit on first read (_isotropic_subspace, as annihilator
    does) and kept.  The rows are keyword-only.  Verdicts compare and hash
    by kind and subspace."""

    kind: str
    _rows: tuple[linalg.IntRow, ...] = field(default=(), kw_only=True)

    @cached_property
    def subspace(self) -> IsotropicSubspace | None:
        if self.kind != "pure":
            return None
        return _isotropic_subspace(list(self._rows), len(self._rows))

    @property
    def on_cone(self) -> bool:
        return self.kind in ("pure", "zero")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.subspace) == (other.kind, other.subspace)

    def __hash__(self):
        return hash((self.kind, self.subspace))

    def __repr__(self) -> str:
        return f"PurityResult(kind={self.kind!r}, subspace={self.subspace!r})"


@cache
def _chart_table(n: int, s0: int) -> tuple[tuple[int, int, int, tuple[tuple[int, int, int], ...]], ...]:
    """The even T of {0..n-1} with |T| >= 4, by size then mask, as (T, s0 ^ T,
    L s(t, k), terms): a(t, i) = s(t, i) X[t ^ 2^i] is the entry of
    _action_row(X, t, n) in the column of bit i, k = min T, t = s0 ^ T ^ 2^k,
    L = lcm(s_m) with s_m = s(s0 ^ 2^m, m), and terms holds (t ^ 2^m, s0 ^
    2^m ^ 2^k, s(t, m) (L / s_m) s(s0 ^ 2^m, k)) for each m in T - k."""
    def s(t: int, i: int) -> int:
        return (-1) ** (t & (1 << i) - 1).bit_count() * (1 if t >> i & 1 else 2)

    big_l = math.lcm(*(s(s0 ^ 1 << m, m) for m in range(n)))
    out = []
    for big_t in sorted((t for t in range(1 << n) if t.bit_count() > 3 and not t.bit_count() & 1), key=int.bit_count):
        k, t = (big_t & -big_t).bit_length() - 1, s0 ^ (big_t & big_t - 1)
        terms = tuple((t ^ 1 << m, s0 ^ 1 << m ^ 1 << k, s(t, m) * (big_l // s(s0 ^ 1 << m, m)) * s(s0 ^ 1 << m, k))
                      for m in range(k + 1, n) if big_t >> m & 1)
        out.append((big_t, s0 ^ big_t, big_l * s(t, k), terms))
    return tuple(out)


def _first_failing_chart_set(ints: linalg.IntRow, n: int) -> int:
    """The first T of _chart_table(n, s0) with r_T != 0, s0 the first key of
    ints, else 0: r_T = l a(t, k) - sum over m in T - k of a(t, m) q_m a(s0 ^
    2^m, k), the entry of _residual(row t) in the column of bit k, off C, is
    sgn(X[s0]) (X[s0] L s(t, k) X[s0 ^ T] - sum of c X[p] X[q] over terms)."""
    s0 = next(iter(ints))
    x0, get = ints[s0], ints.get
    for big_t, lead, r, terms in _chart_table(n, s0):
        r *= x0 * get(lead, 0)
        for p, q, c in terms:
            r -= c * get(p, 0) * get(q, 0)
        if r:
            return big_t
    return 0


def is_pure(x: sr.SpinVector) -> PurityResult:
    """Annihilator-rank membership oracle for the isotropic Grassmann cone.

    The action matrix of a nonzero x has n pivot rows, diagonal on a set C
    of n columns (_split_action); x is pure iff every other row reduces to
    zero against them (_residual).  A pure spinor has one parity; then one
    residual entry r_T per chart set T decides (_first_failing_chart_set).
    r_T is +-l or +-2l X[s0 ^ T] plus terms in X at distances |T| - 2 and 2
    from s0, the Pfaffian expansion along min T in the chart through s0
    (Chevalley, The Algebraic Theory of Spinors, 1954; Manivel, "On spinor
    varieties and their secants", SIGMA 5, 2009), so all r_T = 0 fix X from
    X at distances 0 and 2, as they fix the pure spinor exp(w) e_s0 agreeing
    with X there.  A pure verdict carries the n lifted integer rows
    (_split_kernel) after the Gram audit; the rank audit and rref wait for subspace."""
    if x.is_zero():
        return PurityResult("zero")
    ints = x.integer_form()[0]
    s0 = next(iter(ints))
    if any((m ^ s0).bit_count() & 1 for m in ints) or _first_failing_chart_set(ints, x.n):
        return PurityResult("not_pure")
    pivots, l, _ = _split_action(x)
    return PurityResult("pure", _rows=tuple(_split_kernel(pivots, l, [], x.n)))


def sample_cone_point(n: int, seed, component: str = "even", length: int = 6) -> sr.SpinVector:
    """A seeded point g.omega on the cone.

    component is the half-spin parity of the result ('even' = even wedge
    degrees): the orbit of the full wedge when its length n matches the
    parity, of the length-(n-1) wedge otherwise.  This labeling is the one
    preserved by the level-lowering contraction."""
    if component not in ("even", "odd"):
        raise SpinalgError(f"unknown component {component!r}")
    g = sr.random_group_element(n, f"cone:{component}:{seed}", length)
    want = 0 if component == "even" else 1
    base = sr.SpinVector.omega0(n) if n % 2 == want else sr.SpinVector.omega1(n)
    return g.apply(base)


def random_maximal_isotropic(n: int, seed, length: int = 6) -> IsotropicSubspace:
    """Seeded random maximal isotropic subspace: a group image of E."""
    g = sr.random_group_element(n, f"subspace:{seed}", length)
    m = g.so_matrix()
    return check_isotropic([[m[r][i] for r in range(2 * n)] for i in range(n)], n)


# -- moving isotropic data to coordinate position via root exponentials ------


def _vector_to_top_steps(coords: list[Fraction], level: int, n: int) -> list:
    """Root-exponential steps (indices <= level) sending an isotropic vector
    supported on indices <= level to e_level, in application order."""
    if level < 2:
        raise SpinalgError("need level >= 2 to move a vector")
    steps: list[tuple[str, int, int, Fraction]] = []

    def apply(kind: str, i: int, j: int, t) -> None:
        t = Fraction(t)
        if t == 0:
            return
        _apply_step(kind, i, j, t, coords, n)
        steps.append((kind, i, j, t))

    e_of = lambda i: coords[i - 1]
    f_of = lambda i: coords[n + i - 1]

    if all(e_of(i) == 0 for i in range(1, level + 1)):
        j = next(i for i in range(1, level + 1) if f_of(i) != 0)
        i = 1 if j != 1 else 2
        apply("ee", min(i, j), max(i, j), 1)
    if e_of(level) == 0:
        j = next(i for i in range(1, level + 1) if e_of(i) != 0)
        apply("ef", level, j, Fraction(1, 1) / e_of(j))
    elif e_of(level) != 1:
        j = next((i for i in range(1, level) if e_of(i) != 0), None)
        if j is not None:
            apply("ef", level, j, (1 - e_of(level)) / e_of(j))
        else:
            apply("ef", 1, level, Fraction(1, 1) / e_of(level))
            apply("ef", level, 1, 1 - e_of(level))
    for j in range(1, level):
        if e_of(j) != 0:
            apply("ef", j, level, -e_of(j))
    if f_of(level) != 0:
        raise StructureError("isotropy should force the top f-coordinate to 0")
    for i in range(1, level):
        if f_of(i) != 0:
            apply("ff", i, level, -f_of(i))
    return steps


def element_moving_vector_to_top(v: cc.VectorInV) -> sr.GroupElement:
    """A word of root exponentials whose orthogonal image sends v to e_n;
    public as the one-vector form of element_moving_to_coordinate_top."""
    n = v.n
    cc.require_isotropic(v)
    if v.is_zero():
        raise SpinalgError("cannot move the zero vector")
    coords = v.coords()
    steps = _vector_to_top_steps(coords, n, n)
    if coords != cc.VectorInV.basis(n, n).coords():
        raise StructureError("vector did not land on e_n")
    return sr.GroupElement(n, tuple(reversed(steps)))


def element_moving_to_coordinate_top(sub: IsotropicSubspace) -> sr.GroupElement:
    """A word g with g(sub) = span(e_{n-m+1}, ..., e_n), m = dim(sub).

    Moves one basis vector at a time to the top coordinate of a shrinking
    level, reducing the remaining vectors modulo the fixed ones.
    """
    n = sub.n
    m = sub.dim
    rows = [list(r) for r in sub.rows]
    all_steps: list = []
    for t in range(m):
        level = n - t
        # rows are supported on indices <= level by the reductions below
        steps = _vector_to_top_steps(rows[0], level, n)
        for r in rows[1:]:
            for kind, i, j, tt in steps:
                _apply_step(kind, i, j, tt, r, n)
        all_steps.extend(steps)
        done = rows.pop(0)
        for r in rows:
            # clear the e_level coordinate using the fixed vector e_level
            r[level - 1] = Fraction(0)
            if r[n + level - 1] != 0:
                raise StructureError("residual rows are not orthogonal to e_level")
    g = sr.GroupElement(n, tuple(reversed(all_steps)))
    target = [cc.VectorInV.basis(n, i).coords() for i in range(n - m + 1, n + 1)]
    moved = linalg.matmul([list(r) for r in sub.rows], linalg.transpose(g.so_matrix()))
    if linalg.row_space(moved) != linalg.row_space(target):
        raise StructureError("subspace did not land on the coordinate block")
    return g
