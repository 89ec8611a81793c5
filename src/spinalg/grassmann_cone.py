"""Maximal isotropic subspaces, adapted hyperbolic bases, pure spinors,
and the annihilator membership oracle for the isotropic Grassmann cone."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

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
        of an isotropic subspace, each a tuple of 2n Fractions."""
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
        return (
            isinstance(other, IsotropicSubspace)
            and self.n == other.n
            and self.rows == other.rows
        )

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


def _isotropic_subspace(rows: list[linalg.IntRow], scales: list, n: int) -> IsotropicSubspace:
    """The span of the vectors rows[i] / scales[i], given as integer rows,
    after the audit: zero Gram matrix and full rank.  Eliminates the rows in
    place."""
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            g = _row_pairing(a, rows[j], n)
            if g:
                raise NotIsotropicError(
                    f"Gram entry (row {i + 1}, row {j + 1}) = "
                    f"{Fraction(g) / (scales[i] * scales[j])} != 0"
                )
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
    return _isotropic_subspace(ints, scales, n)


def coordinate_subspace(n: int, emask: int) -> IsotropicSubspace:
    """span of {e_i : i in emask} and {f_j : j not in emask}."""
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
        rows = []
        rhs = []
        for j in range(1, n + 1):
            rows.append(_pairing_functional(fprime[j - 1]))
            rhs.append(Fraction(1) if i == j else Fraction(0))
        for l, ev in built.items():
            rows.append(_pairing_functional(ev))
            rhs.append(Fraction(0))
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
    """Deterministic adapted hyperbolic basis for a maximal isotropic H.

    H∩F is read off H's rref rows (h.rows, when H comes from check_isotropic
    or annihilator): those with their pivot in the f-block are the rref
    basis of H∩F, and the others complement it in H.  The f'-block extends
    H∩F by the standard f_j, lowest index first, that are not in H∩F +
    span(f_1..f_(j-1)): the f_j at which no vector of H∩F ends, read off one
    elimination from the last column.  The f'-block is scaled to determinant
    one against the standard f-basis, which pins the scalar of every derived
    object (omega_of, pluecker).  Hand-built rows that are not H's rref fail
    the last adaptation invariant, or the split when they are dependent.

    omega_of and pluecker read its objects off H's rref rows in closed form
    and call it only to reject rows that are not their own rref.  It stays
    public as the one place a caller gets the e'- and f'-vectors that define
    those closed forms, and as the reference their tests compare to.
    """
    n = h.n
    if h.dim != n:
        raise SpinalgError(f"subspace is not maximal: dim {h.dim} != {n}")
    rows = [list(r) for r in h.rows]
    canonical = linalg.row_space(rows)
    if len(canonical) != n:
        raise StructureError("failed to split H over H∩F")
    hf = [r for r in canonical if not any(r[:n])]
    w_rows = [r for r in canonical if any(r[:n])]
    k = len(hf)
    ends = _f_ends(hf, n)
    fprime_coords = hf + [cc.VectorInV.basis(n, -j - 1).coords() for j in range(n) if j not in ends]
    # normalize the f'-block to determinant 1 over the standard f-basis
    d = linalg.det([row[n:] for row in fprime_coords])
    if d == 0:
        raise StructureError("f'-rows do not span F")
    fprime_coords[-1] = [x / d for x in fprime_coords[-1]]
    fprime = [cc.VectorInV.from_coords(n, r) for r in fprime_coords]

    # fix the pairing of the complement against f'_{k+1}..f'_n
    e_top = []
    if n > k:
        w_vecs = [cc.VectorInV.from_coords(n, r) for r in w_rows]
        pinv, den_p = linalg._int_matrix(
            linalg.inverse([[cc.pairing(w, f) for f in fprime[k:]] for w in w_vecs])
        )
        w_ints, den_w = linalg._int_matrix(w_rows)
        for row in linalg._product(pinv, w_ints, 0):
            e_top.append(cc.VectorInV.from_coords(n, [Fraction(x, den_p * den_w) for x in row]))
    known = {k + 1 + a: e_top[a] for a in range(n - k)}
    new_e = _complete_e_rows(n, fprime, known)
    basis = AdaptedBasis(n=n, new_e=tuple(new_e), new_f=tuple(fprime), k=k)
    basis.verify()
    # adaptation invariants
    if linalg.row_space([v.coords() for v in fprime[:k]]) != hf:
        raise StructureError("f'_1..f'_k do not span H∩F")
    span_h = [v.coords() for v in new_e[k:]] + [v.coords() for v in fprime[:k]]
    if linalg.row_space(span_h) != rows:
        raise StructureError("adapted rows do not span H")
    return basis


def hyperbolic_basis_through(e: cc.VectorInV, h: cc.VectorInV | None = None) -> HyperbolicBasis:
    """Hyperbolic basis with e'_n = e and f'_1..f'_n spanning the standard F.

    If h is given it must lie in F with (e|h) = 1; then f'_n = h.  Otherwise
    f'_n is the lowest-index standard f_j with (e|f_j) != 0, rescaled.
    """
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
    rest: list[cc.VectorInV] = []
    rest_coords: list[list[Fraction]] = []
    for j in range(1, n + 1):
        if len(rest) == n - 1:
            break
        cand = cc.VectorInV.basis(n, -j) - f_last.scale(cc.pairing(e, cc.VectorInV.basis(n, -j)))
        if linalg.rank(rest_coords + [cand.coords()]) > len(rest):
            rest.append(cand)
            rest_coords.append(cand.coords())
    fprime = rest + [f_last]
    # dual E-side candidates, then correct against e
    g = [list(v.f) for v in fprime]
    ginv = linalg.inverse(g)
    new_e: list[cc.VectorInV] = []
    for i in range(n - 1):
        coords = [ginv[j][i] for j in range(n)]
        etil = cc.VectorInV(n, coords, [0] * n)
        d = cc.pairing(etil, e)
        new_e.append(etil - f_last.scale(d))
    new_e.append(e)
    basis = HyperbolicBasis(n=n, new_e=tuple(new_e), new_f=tuple(fprime))
    basis.verify()
    return basis


def multiply_vectors(n: int, vectors) -> cc.CliffordElement:
    out = cc.CliffordElement.unit(n)
    for v in vectors:
        out = cc.mul(out, v.as_clifford())
        if out.is_zero():
            break
    return out


def _is_own_rref(rows) -> bool:
    """Whether the rows are their own rref: pivots (first nonzero entries)
    increase, each pivot is 1, and each pivot column is zero elsewhere."""
    pivots = [next((c for c, x in enumerate(r) if x), -1) for r in rows]
    return (all(p >= 0 and r[p] == 1 for p, r in zip(pivots, rows)) and pivots == sorted(set(pivots))
            and not any(r[p] for a, p in enumerate(pivots) for i, r in enumerate(rows) if i != a))


def _rref_split(h: IsotropicSubspace) -> tuple[tuple, int, Fraction]:
    """(rows, m, det P) for a maximal H: its rref rows, the m = n - k rows W
    with a nonzero e-part first, then the k rows spanning H∩F.  With J the
    f-indices outside their ends (_f_ends) and d the f'-block's determinant
    before it is normalised, P is W's e-coordinates at J, (w_a|f'_(k+b)), its
    last column over d.  Rejects what adapted_basis rejects, with its error
    types."""
    n, rows = h.n, h.rows
    if h.dim != n or not _is_own_rref(rows):
        adapted_basis(h)  # raises: its dimension check, split or last invariant
    m = sum(1 for r in rows if any(r[:n]))
    if not m:
        return rows, 0, Fraction(1)
    ends = _f_ends(rows[m:], n)
    cols = [j for j in range(n) if j not in ends]
    # d is +- the minor of the H∩F rows at their ends
    d = linalg.det([[r[n + c] for c in ends] for r in rows[m:]])
    if sum(j < c for c in ends for j in cols) % 2:
        d = -d
    det_p = linalg.det([[r[j] for j in cols] for r in rows[:m]]) / d
    if not det_p:
        raise ValueError("H's rows pair singularly with f'_(k+1)..f'_n")
    return rows, m, det_p


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
    rows, m, det_p = _rref_split(h)
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
    rows, _, det_p = _rref_split(h)
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
    ints = linalg._integer_row(x.terms.items())[0]
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


def _split_kernel(pivots: dict, l: int, residuals: list[linalg.IntRow], n: int) -> IsotropicSubspace:
    """The annihilator from the split (_split_action): the kernel of the
    residual rows over the n columns off C, each vector w lifted to
    l w - sum over c in C of (l / D_c)(M_c . w) e_c, after the same audit as
    check_isotropic.  Eliminates the residual rows in place."""
    lift: dict[int, dict[int, int]] = {}  # column k off C -> {c: -(l / D_c) M_c[k]}
    for c, (q, rest) in pivots.items():
        for k, y in rest.items():
            lift.setdefault(k, {})[c] = -q * y
    rows, scales = [], []
    free = [k for k in range(2 * n) if k not in pivots]
    for w, s in linalg._kernel(residuals, linalg._eliminate(residuals), free):
        v = {k: l * y for k, y in w.items()}
        for k, y in w.items():
            for c, z in lift.get(k, {}).items():
                v[c] = v.get(c, 0) + z * y
        rows.append({k: y for k, y in v.items() if y})
        scales.append(l * s)
    return _isotropic_subspace(rows, scales, n)


def annihilator(x: sr.SpinVector) -> IsotropicSubspace:
    """The exact nullspace of v -> v.x in V; always isotropic of dim <= n.

    The action rows are split at one support mask of x into n pivot rows,
    diagonal on a set C of n columns, and the rest (_split_action); each
    other row is reduced against the pivots in one pass (_residual).  The
    kernel of the residuals on the n columns off C, lifted through the
    pivots, is the annihilator; it passes the same audit as check_isotropic."""
    if x.is_zero():
        raise SpinalgError("annihilator of the zero vector is all of V")
    pivots, l, others = _split_action(x)
    residuals = [r for r in (_residual(row, pivots, l) for row in others) if r]
    return _split_kernel(pivots, l, residuals, x.n)


@dataclass(frozen=True)
class PurityResult:
    """Cone membership verdict: 'pure', 'not_pure', or 'zero' (0 is on the cone)."""

    kind: str
    subspace: IsotropicSubspace | None

    @property
    def on_cone(self) -> bool:
        return self.kind in ("pure", "zero")


def is_pure(x: sr.SpinVector) -> PurityResult:
    """Annihilator-rank membership oracle for the isotropic Grassmann cone.

    The action matrix of a nonzero x has n pivot rows, diagonal on a set C
    of n columns (_split_action), so its rank is at least n; x is pure iff
    the rank is exactly n, that is iff every other row reduces to zero
    against those pivots (_residual).  The first nonzero residual returns
    "not pure".  Otherwise the annihilator is explicit: one vector per
    column off C, lifted through the pivots, and a pure verdict carries it
    after the same audit as annihilator() (_split_kernel)."""
    if x.is_zero():
        return PurityResult("zero", None)
    pivots, l, others = _split_action(x)
    if any(_residual(row, pivots, l) for row in others):
        return PurityResult("not_pure", None)
    return PurityResult("pure", _split_kernel(pivots, l, [], x.n))


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
    rows = []
    for i in range(n):
        col = [m[r][i] for r in range(2 * n)]
        rows.append(col)
    return check_isotropic(rows, n)


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
            c = r[level - 1]
            if c:
                r[level - 1] = Fraction(0)
            if r[n + level - 1] != 0:
                raise StructureError("residual rows are not orthogonal to e_level")
    g = sr.GroupElement(n, tuple(reversed(all_steps)))
    target = [cc.VectorInV.basis(n, i).coords() for i in range(n - m + 1, n + 1)]
    moved = linalg.matmul([list(r) for r in sub.rows], linalg.transpose(g.so_matrix()))
    if linalg.row_space(moved) != linalg.row_space(target):
        raise StructureError("subspace did not land on the coordinate block")
    return g
