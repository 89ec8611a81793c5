"""The wedge-of-E model of the spin representation and its group elements.

A spin vector at level n is a sparse map from subsets of {1..n} (bitmask,
bit i-1 for index i) to Fractions; the subset S stands for the wedge of
the e_i with i in S, equivalently the left-ideal element e_S f_1...f_n.

Two-form action on this model:
    e_i^e_j  acts as  (1/2) o(e_i) o(e_j)
    f_i^f_j  acts as  2 iota(f_i) iota(f_j)
    e_i^f_j  acts as  (1/2) (o(e_i) iota(f_j) - iota(f_j) o(e_i))
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Iterable

from . import clifford_core as cc
from .errors import (
    IndexRangeError,
    InvalidRootVectorError,
    LevelMismatchError,
    NotInLeftIdealError,
    StructureError,
)


class SpinVector(cc.SparseElement):
    """Sparse exact vector in the level-n spin space."""

    __slots__ = ()
    _width = 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def basis(n: int, indices: Iterable[int] | int) -> "SpinVector":
        if isinstance(indices, int):
            mask = indices
        else:
            mask = 0
            for i in indices:
                if not 1 <= i <= n:
                    raise IndexRangeError(f"index {i} out of range 1..{n}")
                mask |= 1 << (i - 1)
        return SpinVector(n, {mask: Fraction(1)})

    @staticmethod
    def omega0(n: int) -> "SpinVector":
        """Highest weight vector: the full wedge e_1^...^e_n."""
        return SpinVector(n, {(1 << n) - 1: Fraction(1)})

    @staticmethod
    def omega1(n: int) -> "SpinVector":
        """The other highest weight vector: e_1^...^e_{n-1}."""
        return SpinVector(n, {(1 << (n - 1)) - 1: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def parity(self) -> str:
        """Parity tag: 'even', 'odd' (all subsets of that size mod 2), else 'mixed'."""
        pars = {bin(m).count("1") % 2 for m in self.terms}
        if len(pars) == 2:
            return "mixed"
        if not pars or pars == {0}:
            return "even"
        return "odd"

    def parity_split(self) -> tuple["SpinVector", "SpinVector"]:
        ev = {m: c for m, c in self.terms.items() if bin(m).count("1") % 2 == 0}
        od = {m: c for m, c in self.terms.items() if bin(m).count("1") % 2 == 1}
        return SpinVector(self.n, ev), SpinVector(self.n, od)

    def _key_str(self, m: int) -> str:
        if m == 0:
            return "1"
        return "e" + "".join(str(i + 1) for i in range(self.n) if m >> i & 1)


# -- letters on subset masks ------------------------------------------------


def _o(i: int) -> tuple:
    """Letter: wedge with e_i."""
    return (cc._wedge(i - 1),)


def _iota(j: int) -> tuple:
    """Letter: contract with f_j."""
    return (cc._contract(j - 1),)


def _act(words, x: SpinVector) -> SpinVector:
    """The words (letters with int factors) applied to x by the kernel."""
    return SpinVector._trusted(x.n, cc._apply_words(words, x.terms))


def outer(v: cc.VectorInV, omega: SpinVector) -> SpinVector:
    """Wedge by a vector of E; rejects vectors with an F-component."""
    if any(c != 0 for c in v.f):
        raise IndexRangeError("outer product expects a vector with zero f-part")
    return vector_action(v, omega)


def inner(v: cc.VectorInV, omega: SpinVector) -> SpinVector:
    """Plain contraction iota by a vector of F (callers supply the factor 2)."""
    if any(c != 0 for c in v.e):
        raise IndexRangeError("inner product expects a vector with zero e-part")
    return vector_action(v, omega).scale(Fraction(1, 2))


def _action_letter(coords, n: int) -> tuple[tuple, int]:
    """vector_action's letter for coordinates (e-block, f-block), scaled to
    int factors: (L times the letter, L), as cc._int_letter returns it."""
    return cc._int_letter(
        tuple(cc._wedge(i, c) for i, c in enumerate(coords[:n]) if c)
        + tuple(cc._contract(j, 2 * c) for j, c in enumerate(coords[n:]) if c)
    )


def vector_action(v: cc.VectorInV, omega: SpinVector) -> SpinVector:
    """Module action of a general vector: o(e-part) + 2 iota(f-part)."""
    omega._check_level(v)
    letter, scale = _action_letter(v.e + v.f, v.n)
    return _act([(Fraction(1, scale), [letter])], omega)


# -- two-forms ---------------------------------------------------------------


class SoElement:
    """Sparse two-form: blocks of e_i^e_j (i<j), f_i^f_j (i<j), e_i^f_j.

    rho_so keeps the two-form's letter words in _words once it has built
    them, so a two-form applied to many vectors builds them once."""

    __slots__ = ("n", "ee", "ff", "ef", "_words")

    def __init__(self, n: int, ee=None, ff=None, ef=None):
        self.n = n
        self._words = None
        self.ee: dict[tuple[int, int], Fraction] = {}
        self.ff: dict[tuple[int, int], Fraction] = {}
        self.ef: dict[tuple[int, int], Fraction] = {}
        for src, dst, ordered in ((ee, self.ee, True), (ff, self.ff, True), (ef, self.ef, False)):
            if not src:
                continue
            for (i, j), c in src.items():
                if not (1 <= i <= n and 1 <= j <= n):
                    raise IndexRangeError(f"index pair ({i},{j}) out of range 1..{n}")
                if ordered and not i < j:
                    raise IndexRangeError(f"pair ({i},{j}) must satisfy i < j")
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    dst[(i, j)] = c

    @staticmethod
    def basis_ee(n: int, i: int, j: int) -> "SoElement":
        return SoElement(n, ee={(i, j): 1})

    @staticmethod
    def basis_ff(n: int, i: int, j: int) -> "SoElement":
        return SoElement(n, ff={(i, j): 1})

    @staticmethod
    def basis_ef(n: int, i: int, j: int) -> "SoElement":
        return SoElement(n, ef={(i, j): 1})

    @staticmethod
    def chevalley_h(n: int, i: int) -> "SoElement":
        """h_i = e_i^f_i - e_{i+1}^f_{i+1} for i < n; h_n = e_{n-1}^f_{n-1} + e_n^f_n."""
        if not 1 <= i <= n:
            raise IndexRangeError(f"h_{i} undefined at level {n}")
        if n < 2:
            raise IndexRangeError(f"h_{i} needs level >= 2, got level {n}")
        if i < n:
            return SoElement(n, ef={(i, i): 1, (i + 1, i + 1): -1})
        return SoElement(n, ef={(n - 1, n - 1): 1, (n, n): 1})

    def is_zero(self) -> bool:
        return not (self.ee or self.ff or self.ef)

    def __add__(self, other: "SoElement") -> "SoElement":
        cc._check_levels(self, other)

        def merge(a, b):
            out = dict(a)
            for k, c in b.items():
                cc._accumulate(out, k, c)
            return out

        return SoElement(
            self.n, merge(self.ee, other.ee), merge(self.ff, other.ff), merge(self.ef, other.ef)
        )

    def __sub__(self, other: "SoElement") -> "SoElement":
        return self + other.scale(-1)

    def scale(self, c) -> "SoElement":
        c = Fraction(c)
        return SoElement(
            self.n,
            {k: c * v for k, v in self.ee.items()},
            {k: c * v for k, v in self.ff.items()},
            {k: c * v for k, v in self.ef.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SoElement)
            and (self.n, self.ee, self.ff, self.ef)
            == (other.n, other.ee, other.ff, other.ef)
        )

    def trace_gl(self) -> Fraction:
        """Trace of the gl(E) block (sum of diagonal e_i^f_i coefficients)."""
        return sum((c for (i, j), c in self.ef.items() if i == j), Fraction(0))

    def matrix(self):
        """Matrix on V (coords e_1..e_n,f_1..f_n): u^v maps w to (v|w)u - (u|w)v."""
        from . import linalg

        n = self.n
        m = linalg.zeros(2 * n, 2 * n)

        def add_pair(u: int, v: int, c: Fraction) -> None:
            # u, v are signed symbols; (v|w) pulls the partner coordinate of w
            for w_col in range(2 * n):
                w_sym = w_col + 1 if w_col < n else -(w_col - n + 1)
                pv = cc.symbol_pairing(v, w_sym)
                pu = cc.symbol_pairing(u, w_sym)
                if pv:
                    row = u - 1 if u > 0 else n + (-u) - 1
                    m[row][w_col] += c * pv
                if pu:
                    row = v - 1 if v > 0 else n + (-v) - 1
                    m[row][w_col] -= c * pu

        for (i, j), c in self.ee.items():
            add_pair(i, j, c)
        for (i, j), c in self.ff.items():
            add_pair(-i, -j, c)
        for (i, j), c in self.ef.items():
            add_pair(i, -j, c)
        return m

    @staticmethod
    def from_matrix(n: int, m) -> "SoElement":
        """Inverse of matrix(); validates the block shape of the split form."""
        ee = {}
        ff = {}
        ef = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a = m[i - 1][j - 1]
                if a:
                    ef[(i, j)] = a
                if i < j:
                    b = m[i - 1][n + j - 1]
                    if b:
                        ee[(i, j)] = b
                    c = m[n + i - 1][j - 1]
                    if c:
                        ff[(i, j)] = c
        x = SoElement(n, ee=ee, ff=ff, ef=ef)
        if x.matrix() != [list(row) for row in m]:
            raise StructureError("matrix is not skew with respect to the split form")
        return x

    def __str__(self) -> str:
        parts = [f"{c}*e{i}^e{j}" for (i, j), c in sorted(self.ee.items())]
        parts += [f"{c}*f{i}^f{j}" for (i, j), c in sorted(self.ff.items())]
        parts += [f"{c}*e{i}^f{j}" for (i, j), c in sorted(self.ef.items())]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _so_words(x: SoElement) -> list:
    """rho(x) as a sum of letter words (see the module docstring)."""
    words = [(c / 2, [_o(i), _o(j)]) for (i, j), c in x.ee.items()]
    words += [(2 * c, [_iota(i), _iota(j)]) for (i, j), c in x.ff.items()]
    for (i, j), c in x.ef.items():
        words += [(c / 2, [_o(i), _iota(j)]), (-c / 2, [_iota(j), _o(i)])]
    return words


def rho_so(x: SoElement, omega: SpinVector) -> SpinVector:
    """Spin action of a two-form on the wedge model."""
    omega._check_level(x)
    if x._words is None:
        x._words = _so_words(x)
    return _act(x._words, omega)


def _standard_words(a: SoElement) -> list:
    """rho_standard's words: e_i^f_j acts as o(e_i) iota(f_j)."""
    return [(c, [_o(i), _iota(j)]) for (i, j), c in a.ef.items()]


def rho_standard(a: SoElement, omega: SpinVector) -> SpinVector:
    """Derivation action of gl(E) on the wedge algebra (e_j replaced by e_i):
    e_i^f_j acts as o(e_i) iota(f_j).

    Written apart from rho_so so the twist identity is a real cross-check.
    Rejects two-forms with ee or ff blocks.
    """
    if a.ee or a.ff:
        raise InvalidRootVectorError("standard action is defined on gl(E) only")
    omega._check_level(a)
    return _act(_standard_words(a), omega)


# -- the left ideal picture --------------------------------------------------


def to_left_ideal(omega: SpinVector) -> cc.CliffordElement:
    """omega maps to omega * f: subset S becomes the monomial e_S f_1..f_n."""
    full = (1 << omega.n) - 1
    return cc.CliffordElement(omega.n, {(m, full): c for m, c in omega.terms.items()})


def from_left_ideal(x: cc.CliffordElement) -> SpinVector:
    full = (1 << x.n) - 1
    terms: dict[int, Fraction] = {}
    for (em, fm), c in x.terms.items():
        if fm != full:
            raise NotInLeftIdealError(
                f"monomial {cc.monomial_str((em, fm))} misses f-factors"
            )
        terms[em] = c
    return SpinVector(x.n, terms)


def clifford_action_on_spin(a: cc.CliffordElement, x: SpinVector) -> SpinVector:
    """Left action of the Clifford algebra on the ideal model, as left
    multiplication of x f: e_i acts as the wedge, f_j as twice the
    contraction; public as the action by definition, which the closed forms
    are checked against, and as an entry point of perfbench/tracer.py."""
    x._check_level(a)
    return from_left_ideal(cc.mul(a, to_left_ideal(x)))


def so_from_clifford(z: cc.CliffordElement) -> SoElement:
    """Invert the quarter-commutator embedding; errors if z is not in its image."""
    n = z.n
    ee = {}
    ff = {}
    ef = {}
    for (em, fm), c in z.terms.items():
        ke, kf = bin(em).count("1"), bin(fm).count("1")
        if (ke, kf) == (2, 0):
            i, j = cc._mask_indices(em)
            ee[(i, j)] = 2 * c
        elif (ke, kf) == (0, 2):
            i, j = cc._mask_indices(fm)
            ff[(i, j)] = 2 * c
        elif (ke, kf) == (1, 1):
            (i,) = cc._mask_indices(em)
            (j,) = cc._mask_indices(fm)
            ef[(i, j)] = 2 * c
        elif (ke, kf) == (0, 0):
            pass  # validated by the round trip below
        else:
            raise StructureError(f"monomial {cc.monomial_str((em, fm))} has degree > 2")
    x = SoElement(n, ee=ee, ff=ff, ef=ef)
    if cc.so_to_clifford(x) != z:
        raise StructureError("element is not in the image of the two-form embedding")
    return x


def so_bracket(x: SoElement, y: SoElement) -> SoElement:
    """[x, y] computed inside the Clifford algebra through the embedding."""
    cx = cc.so_to_clifford(x)
    cy = cc.so_to_clifford(y)
    return so_from_clifford(cc.mul(cx, cy) - cc.mul(cy, cx))


# -- linear operators --------------------------------------------------------


class LinearOperator:
    """Column-sparse linear map from the level-source_n spin space to the
    level-target_n one (source basis mask -> image vector)."""

    __slots__ = ("source_n", "target_n", "cols")

    def __init__(self, source_n: int, target_n: int, cols: dict[int, SpinVector] | None = None):
        self.source_n = source_n
        self.target_n = target_n
        self.cols: dict[int, SpinVector] = {}
        if cols:
            for m, v in cols.items():
                if not 0 <= m < 1 << source_n:
                    raise IndexRangeError(f"LinearOperator key {m} out of range at level {source_n}")
                if v.n != target_n:
                    raise LevelMismatchError(f"levels differ: {target_n} vs {v.n}")
                if not v.is_zero():
                    self.cols[m] = v

    @staticmethod
    def identity(n: int) -> "LinearOperator":
        return LinearOperator(n, n, {m: SpinVector.basis(n, m) for m in range(1 << n)})

    @staticmethod
    def of_group_element(g: "GroupElement") -> "LinearOperator":
        """g's columns from one pass of its steps over _tagged_basis; caches nothing on g."""
        v, den = _word_steps(g, _tagged_basis(g.n), False, (1 << g.n) - 1)
        return _tagged_operator(g.n, v, den)

    @staticmethod
    def of_contraction(n: int, target: int) -> "LinearOperator":
        """The contraction tower from level n down to level target; public as
        the operator form of transfer_maps.pi_tower, for compose."""
        from .transfer_maps import pi_tower

        cols = {m: pi_tower(SpinVector.basis(n, m), target) for m in range(1 << n)}
        return LinearOperator(n, target, cols)

    def apply(self, x: SpinVector) -> SpinVector:
        if x.n != self.source_n:
            raise LevelMismatchError(f"levels differ: {self.source_n} vs {x.n}")
        out: dict[int, Fraction] = {}
        for m, c in x.terms.items():
            col = self.cols.get(m)
            if col is not None:
                for r, v in col.terms.items():
                    cc._accumulate(out, r, c * v)
        return SpinVector(self.target_n, out)

    def compose(self, inner_op: "LinearOperator") -> "LinearOperator":
        """self o inner_op; public as the composition law of the level maps,
        so a tower and a group word make one operator."""
        if inner_op.target_n != self.source_n:
            raise LevelMismatchError(f"levels differ: {self.source_n} vs {inner_op.target_n}")
        return LinearOperator(
            inner_op.source_n,
            self.target_n,
            {m: self.apply(v) for m, v in inner_op.cols.items()},
        )

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        for a, b in ((self.source_n, other.source_n), (self.target_n, other.target_n)):
            if a != b:
                raise LevelMismatchError(f"levels differ: {a} vs {b}")
        zero = SpinVector.zero(self.target_n)
        keys = set(self.cols) | set(other.cols)
        return LinearOperator(
            self.source_n,
            self.target_n,
            {m: self.cols.get(m, zero) + other.cols.get(m, zero) for m in keys},
        )

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self + other.scale(-1)

    def scale(self, c) -> "LinearOperator":
        return LinearOperator(
            self.source_n, self.target_n, {m: v.scale(c) for m, v in self.cols.items()}
        )

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearOperator)
            and (self.source_n, self.target_n) == (other.source_n, other.target_n)
            and self.cols == other.cols
        )

    def determinant(self) -> Fraction:
        from . import linalg

        if self.source_n != self.target_n:
            raise LevelMismatchError(f"levels differ: {self.source_n} vs {self.target_n}")
        size = 1 << self.source_n
        m = linalg.zeros(size, size)
        for col, v in self.cols.items():
            for row, c in v.terms.items():
                m[row][col] = c
        return linalg.det(m)


# -- group elements ----------------------------------------------------------

_ROOT_KINDS = ("ee", "ff", "ef")


def _validate_root(kind: str, i: int, j: int, n: int) -> None:
    if kind not in _ROOT_KINDS:
        raise InvalidRootVectorError(f"unknown root kind {kind!r}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexRangeError(f"root indices ({i},{j}) out of range 1..{n}")
    if kind in ("ee", "ff") and not i < j:
        raise InvalidRootVectorError(f"{kind} root needs i < j, got ({i},{j})")
    if kind == "ef" and i == j:
        raise InvalidRootVectorError("e_i^f_i is not nilpotent and is not permitted")


def root_so_element(n: int, kind: str, i: int, j: int) -> SoElement:
    _validate_root(kind, i, j, n)
    return SoElement(n, **{kind: {(i, j): 1}})


def _tagged_basis(n: int) -> dict[int, int]:
    """The 2^n basis masks m tagged m << n, for one pass over all: no letter or
    root step touches the tag and no sign counts it, so images never meet."""
    return {m | m << n: 1 for m in range(1 << n)}


def _columns(n: int, v: dict) -> dict[int, dict]:
    """A tagged dict split by tag: tag -> {mask: value}, both increasing."""
    low = (1 << n) - 1
    cols: dict[int, dict] = {}
    for key in sorted(v):
        cols.setdefault(key >> n, {})[key & low] = v[key]
    return cols


def _tagged_operator(n: int, v: dict, den: int = 1) -> "LinearOperator":
    """The operator whose column m is v's entries tagged m, over den."""
    return LinearOperator(n, n, {m: SpinVector._trusted(n, {k: Fraction(c, den) for k, c in col.items()})
                                 for m, col in _columns(n, v).items()})


@functools.lru_cache(maxsize=None)
def _root_table(n: int, kind: str, i: int, j: int) -> tuple[dict, dict]:
    """rho(X) of a root X, compiled once on integers: basis mask -> (image
    mask, 2c), with c the coefficient of the image, and the inverse, image ->
    (basis mask, 2c).  X's words are scaled to integers by the lcm L of their
    denominators, so an image reads L c.

    Every permitted root sends each basis vector to a multiple c of at most
    one basis vector, with c in {+-1/2, +-1, +-2}, and no two basis vectors to
    the same one; the build checks all three, the last one for the inverse."""
    words = _so_words(root_so_element(n, kind, i, j))
    scale = math.lcm(*(c.denominator for c, _ in words))
    words = [(c.numerator * (scale // c.denominator), letters) for c, letters in words]
    table = {}
    for m, image in _columns(n, cc._apply_words(words, _tagged_basis(n))).items():
        if len(image) > 1:
            raise StructureError(f"root {kind}({i},{j}) sends mask {m} to {len(image)} masks")
        ((img, c),) = image.items()
        c2, rest = divmod(2 * c, scale)
        if rest or abs(c2) not in (1, 2, 4):
            raise StructureError(f"root {kind}({i},{j}) scales mask {m} by {Fraction(c, scale)}")
        table[m] = (img, c2)
    inverse = {img: (m, c2) for m, (img, c2) in table.items()}
    if len(inverse) != len(table):
        raise StructureError(f"root {kind}({i},{j}) sends two masks to one")
    return table, inverse


def _root_step(tables: tuple[dict, dict], t: Fraction, v: dict[int, int], transpose: bool, low: int = -1) -> dict[int, int]:
    """exp(t X) = I + t rho(X) on integers, given the tables of X: every
    permitted root X has rho(X)^2 = 0.  With t = p/q the step returns
    2q v + p (2c) v[src] at each image, so the caller multiplies its
    denominator by 2q.  transpose=True moves a covector instead, through the
    inverse table; either way the step costs v's nonzero entries.  The bits
    of a key outside `low` are a tag that the step carries along unread."""
    p, s = t.numerator, 2 * t.denominator
    table = tables[transpose]
    out = {m: s * c for m, c in v.items()}
    for src, c in v.items():
        if hit := table.get(src & low):
            m, c2 = hit
            m |= src & ~low
            c = p * c2 * c + out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _word_rows(g: "GroupElement", targets: list[int]) -> tuple[list[dict[int, int]], int]:
    """The rows of g for the target masks on integers: rows[k][s] / den is the
    coefficient of targets[k] in g e_s, zeros left out and s increasing, with
    den the common denominator of all the rows (the gcd of den and every
    entry is 1).  The unit covectors move through the transposed steps, first
    letter first, in one dict, row k's keys tagged k << n (see _tagged_basis)."""
    n = g.n
    v, den = _word_steps(g, {k << n | t: 1 for k, t in enumerate(targets)}, True, (1 << n) - 1)
    common = functools.reduce(math.gcd, v.values(), den)
    cols = _columns(n, {key: c // common for key, c in v.items()})
    return [cols.get(k, {}) for k in range(len(targets))], den // common


def _word_steps(g: "GroupElement", v: dict[int, int], transpose: bool, low: int = -1) -> tuple[dict[int, int], int]:
    """v moved through the root steps of g's word on integers (_root_step),
    last letter first, or first letter first through the transposed steps,
    and the denominator the steps add."""
    den = 1
    for kind, i, j, t in g.word if transpose else reversed(g.word):
        if t:
            v = _root_step(_root_table(g.n, kind, i, j), t, v, transpose, low)
            den *= 2 * t.denominator
    return v, den


def _apply_step(kind: str, i: int, j: int, t: Fraction, coords: list[Fraction], n: int) -> None:
    """In-place action of exp(t X) on a coordinate vector of V (e-block, f-block)."""
    for a, b, sign in _step_rows(kind, i, j, n):
        coords[a] += sign * t * coords[b]


def _step_rows(kind: str, i: int, j: int, n: int) -> tuple:
    """The two coordinates that exp(tX) moves, as (target, source, sign):
    coordinate target gains sign * t * coordinate source (_apply_step).  No
    source is a target, so both moves read the coordinates before the step."""
    if kind == "ee":
        return (i - 1, n + j - 1, 1), (j - 1, n + i - 1, -1)
    if kind == "ff":
        return (n + i - 1, j - 1, 1), (n + j - 1, i - 1, -1)
    return (i - 1, j - 1, 1), (n + j - 1, n + i - 1, -1)


def _form_adjoint(m: list) -> list:
    """J M^T J for a 2n x 2n matrix M, with J the Gram matrix of the split
    form, which swaps the e- and f-blocks: the inverse of M exactly when M
    preserves the form."""
    n = len(m) // 2
    swap = [*range(n, 2 * n), *range(n)]
    return [[m[c][r] for c in swap] for r in swap]


class GroupElement:
    """A word of exponentials exp(t * rho(X)) of nilpotent root vectors.

    The word is read as a product of operators left to right: the last
    entry acts first.  Equality is operator equality.
    """

    __slots__ = ("n", "word", "_so")

    def __init__(self, n: int, word: Iterable[tuple[str, int, int, Fraction]] = ()):
        self.n = n
        w = []
        for kind, i, j, t in word:
            _validate_root(kind, i, j, n)
            w.append((kind, i, j, Fraction(t)))
        self.word: tuple = tuple(w)
        self._so = None

    @classmethod
    def _trusted(cls, n: int, word: tuple) -> "GroupElement":
        """The element of the word tuple as given, unchecked."""
        self = object.__new__(cls)
        self.n = n
        self.word = word
        self._so = None
        return self

    @staticmethod
    def identity(n: int) -> "GroupElement":
        return GroupElement(n, ())

    def apply(self, x: SpinVector) -> SpinVector:
        x._check_level(self)
        den = math.lcm(*(c.denominator for c in x.terms.values()))
        out, steps = _word_steps(self, {m: c.numerator * (den // c.denominator) for m, c in x.terms.items()}, False)
        return SpinVector._trusted(self.n, {m: Fraction(c, den * steps) for m, c in out.items()})

    def operator(self) -> LinearOperator:
        return LinearOperator.of_group_element(self)

    def inverse(self) -> "GroupElement":
        return GroupElement._trusted(self.n, tuple((k, i, j, -t) for (k, i, j, t) in reversed(self.word)))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        cc._check_levels(self, other)
        return GroupElement._trusted(self.n, self.word + other.word)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.n == other.n
            and self.operator() == other.operator()
        )

    def so_matrix(self):
        """Image in the special orthogonal group: column c is the basis vector
        c of V moved by the word's steps, last step first.  Runs on integer
        rows R over one denominator, M = R / den: each step exp(tX), t = p/q,
        multiplies M on the left, R <- q R + p X R and den <- q den, with X R
        two rows (_step_rows), and one Fraction is made per entry at the end."""
        if self._so is not None:
            return self._so
        size = 2 * self.n
        rows = [[int(r == c) for c in range(size)] for r in range(size)]
        den = 1
        for kind, i, j, t in reversed(self.word):
            p, q = t.numerator, t.denominator
            moved = [(a, [q * x + sign * p * y for x, y in zip(rows[a], rows[b])])
                     for a, b, sign in _step_rows(kind, i, j, self.n)]
            if q != 1:
                rows = [[q * x for x in row] for row in rows]
                den *= q
            for a, row in moved:
                rows[a] = row
        self._so = [[Fraction(x, den) for x in row] for row in rows]
        return self._so

    def so_matrix_inverse(self):
        """The inverse of so_matrix() in closed form: g preserves the split
        form, so M^-1 = J M^T J (_form_adjoint)."""
        return _form_adjoint(self.so_matrix())

    def serialize(self) -> list:
        return [[k, i, j, str(t)] for (k, i, j, t) in self.word]

    def __str__(self) -> str:
        if not self.word:
            return "id"
        pieces = []
        for kind, i, j, t in self.word:
            a, b = ("e", "e") if kind == "ee" else ("f", "f") if kind == "ff" else ("e", "f")
            pieces.append(f"exp({t}*{a}{i}^{b}{j})")
        return "*".join(pieces)

    __repr__ = __str__


def exp_nilpotent(n: int, kind: str, i: int, j: int, t) -> GroupElement:
    """Single one-parameter exponential for a permitted root vector."""
    return GroupElement(n, [(kind, i, j, Fraction(t))])


@functools.lru_cache(maxsize=None)
def all_root_vectors(n: int) -> tuple[tuple[str, int, int], ...]:
    """The permitted roots, once per level: ee, ff for each i < j, then ef for i != j."""
    index = range(1, n + 1)
    pairs = [(kind, i, j) for i in index for j in index if i < j for kind in ("ee", "ff")]
    return tuple(pairs + [("ef", i, j) for i in index for j in index if i != j])


_PARAMS = tuple(map(Fraction, (-2, -1, 1, 2)))


def random_group_element(n: int, seed, length: int = 6) -> GroupElement:
    """Seed-deterministic word of `length` generator exponentials."""
    if length < 1:
        raise IndexRangeError("word length must be >= 1")
    roots = all_root_vectors(n)
    if not roots:
        raise IndexRangeError("no root vectors below level 2")
    rng = random.Random(f"spingroup:{n}:{seed}:{length}")
    return GroupElement._trusted(n, tuple((*rng.choice(roots), rng.choice(_PARAMS)) for _ in range(length)))


def gl_twist_residual(a: SoElement) -> LinearOperator:
    """rho(A) - rho~(A) + tr(A)/2 * Id for A in gl(E); zero when the twist
    holds.  One kernel pass over the tagged basis, with the words of rho(A),
    the negated _standard_words of rho~(A) and the scalar word tr(A)/2."""
    if a.ee or a.ff:
        raise InvalidRootVectorError("twist residual is defined on gl(E) only")
    words = _so_words(a) + [(-c, letters) for c, letters in _standard_words(a)] + [(a.trace_gl() / 2, [])]
    return _tagged_operator(a.n, cc._apply_words(words, _tagged_basis(a.n)))
