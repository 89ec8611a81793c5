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
from . import linalg
from .errors import (
    IndexRangeError,
    InvalidRootVectorError,
    LevelMismatchError,
    NotInLeftIdealError,
    StructureError,
)


class SpinVector(cc.SparseElement):
    """Sparse exact vector in the level-n spin space; its terms never change."""

    __slots__ = ()
    _width = 1

    def integer_form(self) -> tuple[linalg.IntRow, int, int]:
        """linalg._integer_row of the terms, read off num: (num / content, den,
        content), content the gcd of num, or for one term its value; read only."""
        num = self.num
        if not num:
            return {}, 1, 1
        content = math.gcd(*num.values()) if len(num) > 1 else next(iter(num.values()))
        if content == 1:
            return num, self.den, 1
        return {m: c // content for m, c in num.items()}, self.den, content

    # -- constructors ------------------------------------------------------

    @staticmethod
    def basis(n: int, indices: Iterable[int] | int) -> "SpinVector":
        if isinstance(indices, int):
            mask = indices
            if not 0 <= mask < 1 << n:
                raise IndexRangeError(f"SpinVector key {mask} out of range at level {n}")
        else:
            mask = 0
            for i in indices:
                if not 1 <= i <= n:
                    raise IndexRangeError(f"index {i} out of range 1..{n}")
                if mask >> (i - 1) & 1:
                    raise IndexRangeError(f"index {i} repeated: e{i}^e{i} is zero")
                mask |= 1 << (i - 1)
        return SpinVector._ints(n, {mask: 1})

    @staticmethod
    def omega0(n: int) -> "SpinVector":
        """Highest weight vector: the full wedge e_1^...^e_n."""
        return SpinVector._ints(n, {(1 << n) - 1: 1})

    @staticmethod
    def omega1(n: int) -> "SpinVector":
        """The other highest weight vector: e_1^...^e_{n-1}."""
        return SpinVector._ints(n, {(1 << (n - 1)) - 1: 1})

    # -- structure ---------------------------------------------------------

    def parity(self) -> str:
        """Parity tag: 'even', 'odd' (all subsets of that size mod 2), else 'mixed'."""
        pars = {m.bit_count() % 2 for m in self.num}
        if len(pars) == 2:
            return "mixed"
        if not pars or pars == {0}:
            return "even"
        return "odd"

    def parity_split(self) -> tuple["SpinVector", "SpinVector"]:
        ev = {m: c for m, c in self.num.items() if m.bit_count() % 2 == 0}
        od = {m: c for m, c in self.num.items() if m.bit_count() % 2 == 1}
        return SpinVector._ints(self.n, ev, self.den), SpinVector._ints(self.n, od, self.den)

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
    """The words (letters with int factors) applied to x's numerators by the
    kernel, over x.den times the kernel's scale."""
    out, scale = cc._apply_words(words, x.num)
    return SpinVector._ints(x.n, out, x.den * scale)


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


class SoElement(cc.SparseElement):
    """Sparse two-form, keyed like the degree-2 part of ExteriorVector: u^v is
    the 2n-bit mask holding the bits of u and v, e_i at bit i-1 and f_j at bit
    n+j-1, the lower bit first.  So e_i^e_j (i<j) has both bits low, f_i^f_j
    (i<j) both high and e_i^f_j one of each; the keyword constructor takes
    the three blocks as {(i, j): coefficient}.

    rho_so keeps the two-form's letter words in _words once it has built
    them, so a two-form applied to many vectors builds them once."""

    __slots__ = ("_words",)
    _width = 2
    _key_str = cc.ExteriorVector._key_str

    def __init__(self, n: int, ee=None, ff=None, ef=None):
        terms = {}
        # each block with the offsets of the bits of its i and j
        for block, off_i, off_j in ((ee, 0, 0), (ff, n, n), (ef, 0, n)):
            for (i, j), c in (block or {}).items():
                if not (1 <= i <= n and 1 <= j <= n):
                    raise IndexRangeError(f"index pair ({i},{j}) out of range 1..{n}")
                if off_i == off_j and not i < j:
                    raise IndexRangeError(f"pair ({i},{j}) must satisfy i < j")
                terms[1 << (i - 1 + off_i) | 1 << (j - 1 + off_j)] = c
        super().__init__(n, terms)

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

    def _is_gl(self) -> bool:
        """Whether every term is in the e_i^f_j block, gl(E)."""
        low = (1 << self.n) - 1
        return all(m & low and m >> self.n for m in self.num)

    def trace_gl(self) -> Fraction:
        """Trace of the gl(E) block (sum of diagonal e_i^f_i coefficients)."""
        low = (1 << self.n) - 1
        return sum((c for m, c in self.terms.items() if m & low == m >> self.n), Fraction(0))

    def matrix(self):
        """Matrix on V (coords e_1..e_n,f_1..f_n): u^v maps w to (v|w)u - (u|w)v,
        and (v|w) is w's coordinate at the partner p* of v's coordinate p."""
        n = self.n
        m = linalg.zeros(2 * n, 2 * n)
        for key, c in self.terms.items():
            p, p2 = cc._two_bits(key)
            m[p][(p2 + n) % (2 * n)] += c
            m[p2][(p + n) % (2 * n)] -= c
        return m

    @staticmethod
    def from_matrix(n: int, m) -> "SoElement":
        """Inverse of matrix(), reading u^v at coordinates p < p2 off M[p][p2*];
        validates the 2n x 2n shape and skewness for the split form."""
        size = 2 * n
        if len(m) != size or any(len(row) != size for row in m):
            raise IndexRangeError(f"expected a {size} x {size} matrix at level {n}")
        terms = {1 << p | 1 << p2: m[p][(p2 + n) % size] for p in range(size) for p2 in range(p + 1, size)}
        x = SoElement._ints(n, *cc._num_den(terms))
        if x.matrix() != [list(row) for row in m]:
            raise StructureError("matrix is not skew with respect to the split form")
        return x


def _so_words(x: SoElement) -> list:
    """rho(x) as a sum of letter words (see the module docstring)."""
    n = x.n
    words = []
    for key, c in x.terms.items():
        p, p2 = cc._two_bits(key)
        if p2 < n:
            words.append((c / 2, [_o(p + 1), _o(p2 + 1)]))
        elif p >= n:
            words.append((2 * c, [_iota(p - n + 1), _iota(p2 - n + 1)]))
        else:
            words += [(c / 2, [_o(p + 1), _iota(p2 - n + 1)]), (-c / 2, [_iota(p2 - n + 1), _o(p + 1)])]
    return words


def rho_so(x: SoElement, omega: SpinVector) -> SpinVector:
    """Spin action of a two-form on the wedge model."""
    omega._check_level(x)
    try:
        words = x._words
    except AttributeError:
        words = x._words = _so_words(x)
    return _act(words, omega)


def _standard_words(a: SoElement) -> list:
    """rho_standard's words on a two-form of gl(E): e_i^f_j acts as o(e_i) iota(f_j)."""
    low = (1 << a.n) - 1
    return [(c, [_o((m & low).bit_length()), _iota((m >> a.n).bit_length())]) for m, c in a.terms.items()]


def rho_standard(a: SoElement, omega: SpinVector) -> SpinVector:
    """Derivation action of gl(E) on the wedge algebra (e_j replaced by e_i):
    e_i^f_j acts as o(e_i) iota(f_j).

    Written apart from rho_so so the twist identity is a real cross-check.
    Rejects two-forms with ee or ff blocks.
    """
    if not a._is_gl():
        raise InvalidRootVectorError("standard action is defined on gl(E) only")
    omega._check_level(a)
    return _act(_standard_words(a), omega)


# -- the left ideal picture --------------------------------------------------


def to_left_ideal(omega: SpinVector) -> cc.CliffordElement:
    """omega maps to omega * f: subset S becomes the monomial e_S f_1..f_n."""
    full = (1 << omega.n) - 1
    return cc.CliffordElement._ints(omega.n, {(m, full): c for m, c in omega.num.items()}, omega.den)


def from_left_ideal(x: cc.CliffordElement) -> SpinVector:
    full = (1 << x.n) - 1
    num: dict[int, int] = {}
    for (em, fm), c in x.num.items():
        if fm != full:
            raise NotInLeftIdealError(
                f"monomial {cc.monomial_str((em, fm))} misses f-factors"
            )
        num[em] = c
    return SpinVector._ints(x.n, num, x.den)


def clifford_action_on_spin(a: cc.CliffordElement, x: SpinVector) -> SpinVector:
    """Left action of the Clifford algebra on the ideal model, as left
    multiplication of x f: e_i acts as the wedge, f_j as twice the
    contraction; public as the action by definition, which the closed forms
    are checked against, and as an entry point of perfbench/tracer.py."""
    x._check_level(a)
    return from_left_ideal(cc.mul(a, to_left_ideal(x)))


def so_from_clifford(z: cc.CliffordElement) -> SoElement:
    """Invert the quarter-commutator embedding; errors if z is not in its image.
    The monomial e_S f_T of degree 2 is the two-form key S | T << n, with
    twice its coefficient."""
    n = z.n
    num = {}
    for (em, fm), c in z.num.items():
        key = em | fm << n
        degree = key.bit_count()
        if degree == 2:
            num[key] = 2 * c
        elif degree:  # a scalar is validated by the round trip below
            raise StructureError(f"monomial {cc.monomial_str((em, fm))} has degree {degree}, not 2")
    x = SoElement._ints(n, num, z.den)
    if cc.so_to_clifford(x) != z:
        raise StructureError("element is not in the image of the two-form embedding")
    return x


def so_bracket(x: SoElement, y: SoElement) -> SoElement:
    """[x, y] computed inside the Clifford algebra through the embedding."""
    cx = cc.so_to_clifford(x)
    cy = cc.so_to_clifford(y)
    return so_from_clifford(cc.mul(cx, cy) - cc.mul(cy, cx))


# -- linear operators --------------------------------------------------------


class LinearOperator(cc.SparseElement):
    """Linear map from the level-source_n spin space to the level-target_n
    one, as one sparse element: the entry at row r of column m (the
    coefficient of e_r in the image of e_m) is keyed r | m << target_n, and
    the level n is the pair (source_n, target_n).  The constructor takes the
    columns, source mask -> SpinVector at the target level."""

    __slots__ = ()

    def __init__(self, source_n: int, target_n: int, cols: dict[int, SpinVector] | None = None):
        cols = cols or {}
        for m, v in cols.items():
            if not 0 <= m < 1 << source_n:
                raise IndexRangeError(f"LinearOperator key {m} out of range at level {source_n}")
            if v.n != target_n:
                raise LevelMismatchError(f"levels differ: {target_n} vs {v.n}")
        # over the lcm of lowest-terms columns the entries are in lowest terms
        self.n, self.den = (source_n, target_n), math.lcm(*[v.den for v in cols.values()])
        self.num = {r | m << target_n: self.den // v.den * c for m, v in cols.items() for r, c in v.num.items()}

    source_n = property(lambda self: self.n[0])
    target_n = property(lambda self: self.n[1])

    def _check_level(self, other) -> None:
        """LevelMismatchError naming the first of the two levels that differs."""
        for a, b in zip(self.n, other.n):
            if a != b:
                raise LevelMismatchError(f"levels differ: {a} vs {b}")

    def _key_str(self, key: int) -> str:
        return f"[{key & (1 << self.target_n) - 1},{key >> self.target_n}]"

    @staticmethod
    def identity(n: int) -> "LinearOperator":
        return LinearOperator._ints((n, n), _tagged_basis(n))

    @staticmethod
    def of_group_element(g: "GroupElement") -> "LinearOperator":
        """g's entries from one pass of its steps over _tagged_basis; caches nothing on g."""
        return LinearOperator._ints((g.n, g.n), *_word_steps(g, _tagged_basis(g.n), False, (1 << g.n) - 1))

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
        return SpinVector._ints(self.target_n, _mat_vec(_columns(self.target_n, self.num), x.num), self.den * x.den)

    def compose(self, inner_op: "LinearOperator") -> "LinearOperator":
        """self o inner_op; public as the composition law of the level maps,
        so a tower and a group word make one operator."""
        (source_n, mid), target_n = inner_op.n, self.target_n
        if mid != self.source_n:
            raise LevelMismatchError(f"levels differ: {self.source_n} vs {mid}")
        cols = _columns(target_n, self.num)
        num = {r | m << target_n: c for m, col in _columns(mid, inner_op.num).items() for r, c in _mat_vec(cols, col).items()}
        return LinearOperator._ints((source_n, target_n), num, self.den * inner_op.den)

    def determinant(self) -> Fraction:
        """det on the integer matrix of num, divided by den^(2^n) once."""
        n, target_n = self.n
        if n != target_n:
            raise LevelMismatchError(f"levels differ: {n} vs {target_n}")
        size = 1 << n
        m = [[0] * size for _ in range(size)]
        for key, c in self.num.items():
            m[key & size - 1][key >> n] = c
        return linalg.det(m) / self.den**size


def _mat_vec(cols: dict[int, dict], v: dict[int, int]) -> dict[int, int]:
    """sum over m of v[m] * cols[m] on ints, zeros left out."""
    out: dict[int, int] = {}
    for m, c in v.items():
        for r, a in cols.get(m, {}).items():
            out[r] = out.get(r, 0) + c * a
    return {r: c for r, c in out.items() if c}


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


@functools.lru_cache(maxsize=None)
def _root_table(n: int, kind: str, i: int, j: int) -> tuple[dict, dict]:
    """rho(X) of a root X in closed form on integers: basis mask -> (image
    mask, 2c), with c the coefficient of the image and the masks increasing,
    and the inverse, image -> (basis mask, 2c).

    A root moves two bits with a sign.  With a = 2^(i-1), b = 2^(j-1) and
    below(m, x) the number of bits of m under x, each letter o(e_k) or
    iota(f_k) on e_S signs by the bits of S under k, so (see the module
    docstring) e_i^e_j sends the masks with neither bit to m | a | b with
    2c = (-1)^(below(m, b) + below(m, a)); f_i^f_j sends those with both to
    m ^ a ^ b with 2c = -4 (-1)^(below(m, a) + below(m ^ a, b)); e_i^f_j, whose
    two words agree when j is in S and i is not, sends those masks to
    m ^ b ^ a with 2c = 2 (-1)^(below(m, b) + below(m ^ b, a)).  So c is in
    {+-1/2, +-1, +-2}, and no two masks share an image."""
    _validate_root(kind, i, j, n)
    a, b = 1 << i - 1, 1 << j - 1
    first, then = (a, b) if kind == "ff" else (b, a)  # the bit moved first, then the other
    need, c2 = {"ee": (0, 1), "ff": (a | b, -4), "ef": (b, 2)}[kind]
    table = {}
    for m in range(1 << n):
        if m & (a | b) == need:
            odd = ((m & first - 1).bit_count() + ((m ^ first) & then - 1).bit_count()) & 1
            table[m] = (m ^ a ^ b, -c2 if odd else c2)
    return table, {img: (m, c) for m, (img, c) in table.items()}


def _root_step(tables: tuple[dict, dict], t: Fraction, v: dict[int, int], transpose: bool, low: int = -1) -> tuple[dict[int, int], int]:
    """exp(t X) = I + t rho(X) on integers, given the tables of X: every
    permitted root X has rho(X)^2 = 0.  With t = p/q, G the gcd of the 2c of
    the table read and g = gcd(2q, p G), the step returns (2q/g) v + (p 2c/g)
    v[src] at each image, and the factor 2q/g, which the caller multiplies
    into its denominator; a factor of 1 copies v unscaled.  g comes from the
    entries, not from the root's kind, so any table steps exactly.
    transpose=True moves a covector instead, through the inverse table;
    either way the step costs v's nonzero entries.  The bits of a key outside
    `low` are a tag that the step carries along unread."""
    p, s = t.numerator, 2 * t.denominator
    table = tables[transpose]
    g = math.gcd(s, p * math.gcd(*[c2 for _, c2 in table.values()]))
    k = s // g
    out = dict(v) if k == 1 else {m: k * c for m, c in v.items()}
    for src, c in v.items():
        if hit := table.get(src & low):
            m, c2 = hit
            m |= src & ~low
            c = p * c2 // g * c + out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
    return out, k


def _word_steps(g: "GroupElement", v: dict[int, int], transpose: bool, low: int = -1) -> tuple[dict[int, int], int]:
    """v moved through the root steps of g's word on integers (_root_step),
    last letter first, or first letter first through the transposed steps,
    and the denominator: the product of the steps' factors, 1 for a word of
    ff and ef letters with integer parameters."""
    den = 1
    for kind, i, j, t in g.word if transpose else reversed(g.word):
        if t:
            v, k = _root_step(_root_table(g.n, kind, i, j), t, v, transpose, low)
            den *= k
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
        out, steps = _word_steps(self, x.num, False)
        return SpinVector._ints(self.n, out, x.den * steps)

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
    if not a._is_gl():
        raise InvalidRootVectorError("twist residual is defined on gl(E) only")
    words = _so_words(a) + [(-c, letters) for c, letters in _standard_words(a)] + [(a.trace_gl() / 2, [])]
    return LinearOperator._ints((a.n, a.n), *cc._apply_words(words, _tagged_basis(a.n)))
