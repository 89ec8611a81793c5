"""Maximal isotropic subspaces, adapted hyperbolic bases, pure spinors,
and the annihilator membership oracle for the isotropic Grassmann cone."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import clifford_core as cc
from . import linalg
from . import spin_rep as sr
from .spin_rep import _apply_step
from .errors import (
    IndexRangeError,
    NotIsotropicError,
    SpinalgError,
    StructureError,
)


class IsotropicSubspace:
    """A subspace of the level-n space on which the form vanishes.

    Rows are kept in reduced row echelon form, so equal subspaces compare
    equal.  Use check_isotropic() to construct from candidate rows.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[Fraction, ...], ...]):
        self.n = n
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[cc.VectorInV]:
        return [cc.VectorInV.from_coords(self.n, r) for r in self.rows]

    def contains(self, v: cc.VectorInV) -> bool:
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
    return IsotropicSubspace(n, tuple(map(tuple, linalg._pivot_rows(rows, pivots, 2 * n))))


def check_isotropic(rows, n: int) -> IsotropicSubspace:
    """Validate candidate rows: zero Gram matrix and full rank."""
    ints, scales = [], []
    for r in _as_coord_rows(rows, n):
        row, den, content = linalg._integer_row(enumerate(r))
        ints.append(row)
        scales.append(Fraction(den, content))
    return _isotropic_subspace(ints, scales, n)


def standard_e_subspace(n: int) -> IsotropicSubspace:
    return check_isotropic([cc.VectorInV.basis(n, i) for i in range(1, n + 1)], n)


def standard_f_subspace(n: int) -> IsotropicSubspace:
    return check_isotropic([cc.VectorInV.basis(n, -i) for i in range(1, n + 1)], n)


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


def adapted_basis(h: IsotropicSubspace) -> AdaptedBasis:
    """Deterministic adapted hyperbolic basis for a maximal isotropic H.

    Pivoting is lowest-index-first throughout and the f'-block is scaled to
    determinant one against the standard f-basis, which pins the scalar of
    every derived object (omega_of, pluecker).
    """
    n = h.n
    if h.dim != n:
        raise SpinalgError(f"subspace is not maximal: dim {h.dim} != {n}")
    f_rows = [cc.VectorInV.basis(n, -j).coords() for j in range(1, n + 1)]
    hf = linalg.intersect_row_spaces([list(r) for r in h.rows], f_rows)
    k = len(hf)
    fprime_coords = [list(r) for r in hf]
    # extend by standard f_j, lowest index first
    for j in range(1, n + 1):
        if len(fprime_coords) == n:
            break
        cand = cc.VectorInV.basis(n, -j).coords()
        if linalg.rank(fprime_coords + [cand]) > len(fprime_coords):
            fprime_coords.append(cand)
    # normalize the f'-block to determinant 1 over the standard f-basis
    g = [row[n:] for row in fprime_coords]
    d = linalg.det(g)
    if d == 0:
        raise StructureError("f'-rows do not span F")
    fprime_coords[-1] = [x / d for x in fprime_coords[-1]]
    fprime = [cc.VectorInV.from_coords(n, r) for r in fprime_coords]

    # complement of H∩F inside H, greedily from canonical rows
    w_rows: list[list[Fraction]] = []
    base = [list(r) for r in hf]
    for r in h.rows:
        if linalg.rank(base + w_rows + [list(r)]) > k + len(w_rows):
            w_rows.append(list(r))
    if len(w_rows) != n - k:
        raise StructureError("failed to split H over H∩F")
    w_vecs = [cc.VectorInV.from_coords(n, r) for r in w_rows]
    # fix the pairing against f'_{k+1}..f'_n
    if n > k:
        p = [
            [cc.pairing(w, fprime[k + b]) for b in range(n - k)] for w in w_vecs
        ]
        pinv = linalg.inverse(p)
        e_top = []
        for a in range(n - k):
            coords = [
                sum((pinv[a][b] * w_vecs[b].coords()[c] for b in range(n - k)), Fraction(0))
                for c in range(2 * n)
            ]
            e_top.append(cc.VectorInV.from_coords(n, coords))
    else:
        e_top = []
    known = {k + 1 + a: e_top[a] for a in range(n - k)}
    new_e = _complete_e_rows(n, fprime, known)
    basis = AdaptedBasis(n=n, new_e=tuple(new_e), new_f=tuple(fprime), k=k)
    basis.verify()
    # adaptation invariants
    if linalg.row_space([v.coords() for v in fprime[:k]]) != [list(r) for r in hf]:
        raise StructureError("f'_1..f'_k do not span H∩F")
    span_h = [v.coords() for v in new_e[k:]] + [v.coords() for v in fprime[:k]]
    if linalg.row_space(span_h) != [list(r) for r in h.rows]:
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


def omega_of(h: IsotropicSubspace) -> sr.SpinVector:
    """The pure spinor of H: e'_{k+1}..e'_n f'_1..f'_n in the wedge model."""
    basis = adapted_basis(h)
    letters = list(basis.new_e[basis.k :]) + list(basis.new_f)
    prod = multiply_vectors(h.n, letters)
    omega = sr.from_left_ideal(prod)
    if omega.is_zero():
        raise StructureError("omega_H vanished; adapted basis is broken")
    return omega


def pluecker(h: IsotropicSubspace) -> cc.ExteriorVector:
    """Wedge of the adapted rows e'_{k+1}..e'_n, f'_1..f'_k of H."""
    basis = adapted_basis(h)
    rows = list(basis.new_e[basis.k :]) + list(basis.new_f[: basis.k])
    return cc.wedge_of_vectors(h.n, rows)


def annihilator(x: sr.SpinVector) -> IsotropicSubspace:
    """The exact nullspace of v -> v.x in V; always isotropic of dim <= n.

    Works on the primitive integer multiple of x, which has the same
    annihilator.  Column e_i of the action matrix wedges bit i-1 into each
    mask of x, column f_j contracts bit j-1 out with the factor 2 (as in
    vector_action), each with the sign of the set bits below it.  The
    kernel then passes the same audit as check_isotropic."""
    if x.is_zero():
        raise SpinalgError("annihilator of the zero vector is all of V")
    n = x.n
    # one row per image mask; a (row, column) entry has exactly one source mask
    action: dict[int, linalg.IntRow] = {}
    for m, c in linalg._integer_row(x.terms.items())[0].items():
        for i in range(n):
            b = 1 << i
            v = -c if (m & (b - 1)).bit_count() & 1 else c
            if m & b:
                action.setdefault(m ^ b, {})[n + i] = 2 * v
            else:
                action.setdefault(m | b, {})[i] = v
    rows = list(action.values())
    kernel = linalg._kernel(rows, linalg._eliminate(rows), 2 * n)
    if not kernel:
        return IsotropicSubspace(n, ())
    sub = _isotropic_subspace([v for v, _ in kernel], [l for _, l in kernel], n)
    if sub.dim > n:
        raise StructureError("annihilator dimension exceeds n")
    return sub


@dataclass(frozen=True)
class PurityResult:
    """Cone membership verdict: 'pure', 'not_pure', or 'zero' (0 is on the cone)."""

    kind: str
    subspace: IsotropicSubspace | None

    @property
    def on_cone(self) -> bool:
        return self.kind in ("pure", "zero")


def is_pure(x: sr.SpinVector) -> PurityResult:
    """Annihilator-rank membership oracle for the isotropic Grassmann cone."""
    if x.is_zero():
        return PurityResult("zero", None)
    ann = annihilator(x)
    if ann.dim == x.n:
        return PurityResult("pure", ann)
    return PurityResult("not_pure", None)


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
    """A word of root exponentials whose orthogonal image sends v to e_n."""
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
