"""Exact arithmetic in the Clifford algebra of a split quadratic space.

Level n means a 2n-dimensional space with hyperbolic basis
e_1..e_n, f_1..f_n:  (e_i|e_j) = (f_i|f_j) = 0 and (e_i|f_j) = delta_ij.

Basis-vector symbols are signed integers: +i is e_i, -i is f_i.  Strings
"e3"/"f1" and pairs ("e", 3) are accepted anywhere a symbol is expected.

Monomials are normal-ordered words: all e-factors before all f-factors,
each block ascending.  A monomial is stored as a bitmask pair
(emask, fmask) with bit i-1 encoding index i.  Elements are sparse maps
from monomials to integer numerators over one denominator; zero
coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterable

from .errors import IndexRangeError, LevelMismatchError, NotIsotropicError

Symbol = int
Monomial = tuple[int, int]


def parse_symbol(sym) -> Symbol:
    """Normalize a symbol given as signed int, ("e", i) / ("f", i), or "e3"."""
    if isinstance(sym, int):
        if sym == 0:
            raise IndexRangeError("symbol index 0 is not allowed")
        return sym
    if isinstance(sym, str):
        kind, idx = sym[0], int(sym[1:])
    else:
        kind, idx = sym
    if kind not in ("e", "f"):
        raise IndexRangeError(f"unknown symbol kind {kind!r}")
    if idx < 1:
        raise IndexRangeError(f"symbol {sym!r} has index {idx}; indices start at 1")
    return idx if kind == "e" else -idx


def symbol_name(sym: Symbol) -> str:
    return f"e{sym}" if sym > 0 else f"f{-sym}"


def _check_index(sym: Symbol, n: int) -> None:
    if not 1 <= abs(sym) <= n:
        raise IndexRangeError(f"symbol {symbol_name(sym)} out of range 1..{n}")


def symbol_pairing(a: Symbol, b: Symbol) -> Fraction:
    """(a|b) for basis symbols: 1 exactly when {a, b} = {e_i, f_i}."""
    return Fraction(1) if a == -b else Fraction(0)


def _check_levels(a, b) -> None:
    """LevelMismatchError unless a and b (anything with a level n) share a level."""
    if a.n != b.n:
        raise LevelMismatchError(f"levels differ: {a.n} vs {b.n}")


def _mask_indices(mask: int) -> list[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


# -- the letter kernel -------------------------------------------------------
#
# Every operator in the package is a sum of words of letters acting on
# bitmasks.  A letter is a tuple of moves; a move wedges a bit into a mask
# (the bit must be clear) or contracts it out (the bit must be set), with
# sign (-1)^(number of set bits below it) and a scalar factor.  This is
# Chevalley's construction of spinors.  A move is stored as
# (bit value, required state of that bit, factor).


def _wedge(bit: int, factor=1) -> tuple:
    return (1 << bit, 0, factor)


def _contract(bit: int, factor=1) -> tuple:
    return (1 << bit, 1 << bit, factor)


def _accumulate(acc: dict, key, value: Fraction) -> None:
    old = acc.get(key)
    if old is None:
        acc[key] = value
    else:
        value += old
        if value:
            acc[key] = value
        else:
            del acc[key]


def _proportional(a: dict, b: dict) -> bool:
    """Whether the sparse coefficient maps a and b are rational multiples of
    each other; two empty maps count as proportional, one empty map not."""
    if not a or not b:
        return not a and not b
    if set(a) != set(b):
        return False
    k = next(iter(a))
    ak, bk = a[k], b[k]
    return all(a[m] * bk == ak * b[m] for m in a)


def _int_letter(letter: tuple) -> tuple[tuple, int]:
    """L times the letter, with integer factors, and L, the lcm of the
    factors' denominators."""
    scale = lcm(*[f.denominator for _, _, f in letter])
    return tuple((b, need, f.numerator * (scale // f.denominator)) for b, need, f in letter), scale


def _apply_words(words, terms: dict[int, int]) -> tuple[dict[int, int], int]:
    """Sum over (coef, letters) in words of coef * (letters applied right to
    left to the sparse map terms: mask -> int), zeros left out, as (out,
    scale): the sum is out / scale.

    The one letter kernel, on integers.  Every letter factor is an int: a
    letter made with Fraction factors is scaled to ints where it is built
    (_int_letter) and its scale divided into the word's coefficient.
    Coefficients are ints or Fractions; the words are merged over the lcm
    of their denominators, the scale, which is 1 for int coefficients."""
    out: dict[int, int] = {}
    scale = 1  # out holds scale times the sum so far
    for coef, letters in words:
        q = 1
        if type(coef) is not int:
            coef, q = coef.numerator, coef.denominator
        if not coef:
            continue
        cur = terms
        for letter in reversed(letters):
            nxt: dict[int, int] = {}
            for m, c in cur.items():
                for b, need, factor in letter:
                    if m & b != need:
                        continue
                    v = c if factor == 1 else factor * c
                    if (m & (b - 1)).bit_count() & 1:
                        v = -v
                    k = m ^ b
                    old = nxt.get(k)
                    if old is None:
                        nxt[k] = v
                    elif v := v + old:
                        nxt[k] = v
                    else:
                        del nxt[k]
            cur = nxt
            if not cur:
                break
        if q != scale:
            if scale % q:
                grow = q // gcd(scale, q)
                scale *= grow
                for m in out:
                    out[m] *= grow
            coef *= scale // q
        for m, c in cur.items():
            v = c if coef == 1 else coef * c
            old = out.get(m)
            if old is None:
                out[m] = v
            elif v := v + old:
                out[m] = v
            else:
                del out[m]
    return out, scale


def _bit(sym: Symbol, n: int) -> int:
    """Position of a symbol in a 2n-bit mask: e_i is bit i-1, f_i bit n+i-1."""
    return sym - 1 if sym > 0 else n - sym - 1


def _clifford_letter(sym: Symbol, n: int) -> tuple:
    """Left multiplication by a basis vector on e_S f_T, packed as S | T << n.

    e_i wedges into S.  f_j wedges into T past all of S, and contracts e_j
    out of S with the factor 2(f_j|e_j) = 2: normal ordering in closed form.
    """
    if sym > 0:
        return (_wedge(_bit(sym, n)),)
    return (_wedge(_bit(sym, n)), _contract(_bit(-sym, n), 2))


def _exterior_letter(sym: Symbol, n: int) -> tuple:
    """Module action iota(v) + o(v) of a basis vector on the exterior algebra."""
    return (_wedge(_bit(sym, n)), _contract(_bit(-sym, n)))


@lru_cache(maxsize=None)
def _letter_table(letter, n: int) -> tuple:
    """letter(sym, n) for every basis symbol of level n, indexed by the
    symbol's mask bit: built once per level, 2n letters with int factors."""
    return tuple(letter(b + 1 if b < n else n - b - 1, n) for b in range(2 * n))


def _vector_letter(coords) -> tuple[tuple, int]:
    """Wedge by the vector with these coordinates over the 2n mask bits, as
    (L times the letter, with int factors, L): see _int_letter."""
    return _int_letter(tuple(_wedge(bit, c) for bit, c in enumerate(coords) if c))


def monomial_word(mono: Monomial) -> list[Symbol]:
    """The symbols of a basis monomial in normal order; public so that a
    product of monomials can be spelled as one word for normal_form."""
    emask, fmask = mono
    return [i for i in _mask_indices(emask)] + [-j for j in _mask_indices(fmask)]


def monomial_str(mono: Monomial) -> str:
    emask, fmask = mono
    if emask == 0 and fmask == 0:
        return "1"
    return "".join(f"e{i}" for i in _mask_indices(emask)) + "".join(
        f"f{j}" for j in _mask_indices(fmask)
    )


_ZERO = Fraction(0)


def _num_den(terms: dict) -> tuple[dict, int]:
    """The nonzero values of terms (ints, Fractions, or anything Fraction takes)
    as int numerators over the lcm of their denominators, which is in lowest
    terms: every prime power in it divides some value's denominator."""
    pairs = {}
    for key, c in terms.items():
        p, q = (c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio()
        if p:
            pairs[key] = p, q
    den = lcm(*[q for _, q in pairs.values()])
    return {key: p * (den // q) for key, (p, q) in pairs.items()}, den


class SparseElement:
    """A sparse exact element at level n: a map from keys to nonzero
    rationals, stored as int numerators num over one denominator den > 0 in
    lowest terms, so that equal elements have equal num and den.  terms, the
    Fraction view key -> num / den, is built the first time it is read.

    The element types share one contract: a key outside the level raises
    IndexRangeError, an operand of another level raises LevelMismatchError,
    and two elements are equal when they have the same type, level and
    terms.  A subclass sets _width, so that its keys are the masks below
    2^(_width * n), and names a key in _key_str.  CliffordElement checks its
    mask pairs and VectorInV its 2n coordinate bits in _in_range instead.
    VectorInV takes E- and F-coordinates, spin_rep.SoElement index pairs,
    ideal_engine.Polynomial sorted tuples of variable masks, at the level n
    or, with n = -1, at the limit level, and spin_rep.LinearOperator columns
    at the level pair (source_n, target_n), in constructors of their own.

    The public constructors check every key and coefficient.  Results of the
    arithmetic and of the letter kernel are built by _ints instead.  num,
    den and terms never change, so elements may share them."""

    __slots__ = ("n", "num", "den", "_terms")

    def __init__(self, n: int, terms: dict | None = None):
        terms = terms or {}
        for key in terms:
            if not self._in_range(key, n):
                raise IndexRangeError(f"{type(self).__name__} key {key} out of range at level {n}")
        self.n = n
        self.num, self.den = _num_den(terms)

    def _in_range(self, key, n: int) -> bool:
        return 0 <= key < 1 << (self._width * n)

    @classmethod
    def _ints(cls, n: int, num: dict, den: int = 1):
        """The element num / den, unchecked: every key must be in range at
        level n and every value a nonzero int; den is any nonzero int, and
        the element is reduced to lowest terms with den > 0."""
        if den != 1:
            g = gcd(den, *num.values()) if den > 0 else -gcd(den, *num.values())
            if g != 1:
                num, den = {key: c // g for key, c in num.items()}, den // g
        self = object.__new__(cls)
        self.n, self.num, self.den = n, num, den
        return self

    @property
    def terms(self) -> dict:
        """The coefficients as Fractions, key -> num / den; read only."""
        try:
            return self._terms
        except AttributeError:
            self._terms = {key: Fraction(c, self.den) for key, c in self.num.items()}
            return self._terms

    @classmethod
    def zero(cls, n: int):
        return cls._ints(n, {})

    def is_zero(self) -> bool:
        return not self.num

    def coefficient(self, key) -> Fraction:
        c = self.num.get(key)
        return _ZERO if c is None else Fraction(c, self.den)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (self.n, self.den, self.num) == (other.n, other.den, other.num)

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.num.items())))

    # LevelMismatchError unless other (anything with a level n) is at self's level
    _check_level = _check_levels

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, subtract: bool):
        """self + other, or self - other, over the lcm of the denominators, in
        one pass over other's terms."""
        if type(other) is not type(self):
            return NotImplemented
        self._check_level(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, -den // other.den if subtract else den // other.den
        out = dict(self.num) if fa == 1 else {key: fa * c for key, c in self.num.items()}
        for key, c in other.num.items():
            old = out.get(key)
            if old is None:
                out[key] = fb * c
            elif c := old + fb * c:
                out[key] = c
            else:
                del out[key]
        return self._ints(self.n, out, den)

    def __neg__(self):
        return self._ints(self.n, {key: -c for key, c in self.num.items()}, self.den)

    def scale(self, c):
        c = c if isinstance(c, Fraction) else Fraction(c)
        p = c.numerator
        return self._ints(self.n, {key: p * v for key, v in self.num.items()} if p else {}, self.den * c.denominator)

    def __rmul__(self, c):
        return self.scale(c)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        return " + ".join(f"{self.terms[key]}*{self._key_str(key)}" for key in sorted(self.num))

    __repr__ = __str__


class CliffordElement(SparseElement):
    """Sparse rational linear combination of normal-ordered monomials, keyed
    by their (emask, fmask) pairs."""

    __slots__ = ()

    @staticmethod
    def _in_range(key, n: int) -> bool:
        return 0 <= key[0] < 1 << n and 0 <= key[1] < 1 << n

    @staticmethod
    def unit(n: int) -> "CliffordElement":
        return CliffordElement._ints(n, {(0, 0): 1})

    @staticmethod
    def from_symbol(n: int, sym) -> "CliffordElement":
        """The generator e_i or f_i named by sym ("e3", ("f", 2), -2); public to write words by name."""
        s = parse_symbol(sym)
        _check_index(s, n)
        return CliffordElement._ints(n, {(1 << (s - 1), 0) if s > 0 else (0, 1 << (-s - 1)): 1})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return mul(self, other)
        return self.scale(other)

    _key_str = staticmethod(monomial_str)


def _clifford_image(words, b: CliffordElement, den: int) -> CliffordElement:
    """The int words applied by the kernel to b's numerators, on packed masks
    em | fm << n, over den."""
    n, low = b.n, (1 << b.n) - 1
    out, _ = _apply_words(words, {em | fm << n: c for (em, fm), c in b.num.items()})
    return CliffordElement._ints(n, {(m & low, m >> n): c for m, c in out.items()}, den)


def _clifford_words(a: CliffordElement, letter) -> list:
    """a's numerators as a sum of (int coefficient, letters) words over its
    monomials: the word of e_S f_T reads letter's table in mask-bit order."""
    n = a.n
    table = _letter_table(letter, n)
    words = []
    for (em, fm), c in a.num.items():
        m = em | fm << n
        letters = []
        while m:
            low = m & -m
            letters.append(table[low.bit_length() - 1])
            m ^= low
        words.append((c, letters))
    return words


def normal_form(word: Iterable, n: int) -> CliffordElement:
    """Normal-ordered expansion of a word of basis-vector symbols: the unit
    multiplied on the left by each symbol, last symbol first."""
    syms = [parse_symbol(s) for s in word]
    for s in syms:
        _check_index(s, n)
    table = _letter_table(_clifford_letter, n)
    return _clifford_image([(1, [table[_bit(s, n)] for s in syms])], CliffordElement.unit(n), 1)


def mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Clifford product: b multiplied on the left by the letters of each
    monomial of a, on the numerators, over a.den * b.den."""
    a._check_level(b)
    return _clifford_image(_clifford_words(a, _clifford_letter), b, a.den * b.den)


def star_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """star(a) * b by associativity: b multiplied on the left by the letters
    of each monomial of a in reverse order, with no normal-ordered star(a)."""
    a._check_level(b)
    words = [(c, letters[::-1]) for c, letters in _clifford_words(a, _clifford_letter)]
    return _clifford_image(words, b, a.den * b.den)


def star(a: CliffordElement) -> CliffordElement:
    """The anti-automorphism reversing each monomial word: star_mul(a, 1)."""
    return star_mul(a, CliffordElement.unit(a.n))


class VectorInV(SparseElement):
    """A vector of the level-n space, keyed by coordinate bit: e_i is bit i-1
    and f_j bit n+j-1, the bits of the degree-1 ExteriorVector keys.  The
    constructor takes the E- and F-coordinates, each padded with zeros to n;
    e and f read them back as tuples of Fractions."""

    __slots__ = ()

    def __init__(self, n: int, e: Iterable = (), f: Iterable = ()):
        e, f = list(e), list(f)
        if len(e) > n or len(f) > n:
            raise IndexRangeError("coordinate sequence longer than level")
        super().__init__(n, {**dict(enumerate(e)), **{n + j: c for j, c in enumerate(f)}})

    @staticmethod
    def _in_range(key, n: int) -> bool:
        return 0 <= key < 2 * n

    def _key_str(self, key: int) -> str:
        return symbol_name(key + 1 if key < self.n else self.n - key - 1)

    @staticmethod
    def basis(n: int, sym) -> "VectorInV":
        s = parse_symbol(sym)
        _check_index(s, n)
        return VectorInV._ints(n, {_bit(s, n): 1})

    @staticmethod
    def from_coords(n: int, coords) -> "VectorInV":
        coords = list(coords)
        if len(coords) != 2 * n:
            raise IndexRangeError("expected 2n coordinates")
        return VectorInV(n, coords[:n], coords[n:])

    def coords(self) -> list[Fraction]:
        return [self.coefficient(b) for b in range(2 * self.n)]

    e = property(lambda self: tuple(self.coefficient(b) for b in range(self.n)))
    f = property(lambda self: tuple(self.coefficient(b) for b in range(self.n, 2 * self.n)))

    def as_clifford(self) -> CliffordElement:
        n = self.n
        return CliffordElement._ints(n, {(1 << b, 0) if b < n else (0, 1 << b - n): c for b, c in self.num.items()}, self.den)


def _int_pairing(a: dict, b: dict, n: int) -> int:
    """(a|b) on integer coordinate maps keyed by bit, e_i at bit i-1 and f_i
    at bit n+i-1."""
    total = 0
    for k, x in a.items():
        y = b.get(k + n if k < n else k - n)
        if y:
            total += x * y
    return total


def pairing(v: VectorInV, w: VectorInV) -> Fraction:
    """The bilinear form (v|w) of the split quadratic space."""
    _check_levels(v, w)
    return Fraction(_int_pairing(v.num, w.num, v.n), v.den * w.den)


def quadratic_value(v: VectorInV) -> Fraction:
    return pairing(v, v)


def require_isotropic(v: VectorInV, what: str = "vector") -> None:
    q = quadratic_value(v)
    if q != 0:
        raise NotIsotropicError(f"{what} has q = {q} != 0")


class ExteriorVector(SparseElement):
    """Sparse element of the exterior algebra on the 2n symbols of level n.

    Mask bit i-1 encodes e_i, bit n+i-1 encodes f_i; wedge letters are
    ordered e_1 < ... < e_n < f_1 < ... < f_n by bit index.
    """

    __slots__ = ()
    _width = 2

    @staticmethod
    def unit(n: int) -> "ExteriorVector":
        return ExteriorVector._ints(n, {0: 1})

    def _apply(self, letter: tuple, scale: int) -> "ExteriorVector":
        """The int letter applied to the numerators, over den times its scale."""
        out, _ = _apply_words([(1, [letter])], self.num)
        return ExteriorVector._ints(self.n, out, self.den * scale)

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.num}

    def degree_component(self, d: int) -> "ExteriorVector":
        """The degree-d part; public as the projection onto one graded piece."""
        return ExteriorVector._ints(self.n, {m: c for m, c in self.num.items() if m.bit_count() == d}, self.den)

    def outer_symbol(self, sym: Symbol) -> "ExteriorVector":
        _check_index(sym, self.n)
        return self._apply((_wedge(_bit(sym, self.n)),), 1)

    def inner_vector(self, v: VectorInV) -> "ExteriorVector":
        self._check_level(v)
        n = v.n  # iota(e_i) removes f_i and iota(f_i) removes e_i
        return self._apply(tuple(sorted(_contract(b + n if b < n else b - n, c) for b, c in v.num.items())), v.den)

    def change_basis(self, new_rows: list[VectorInV]) -> "ExteriorVector":
        """Coordinates of self over the wedge basis of the given 2n vectors."""
        from . import linalg

        for row in new_rows:
            self._check_level(row)
        # old symbol s = sum_j c[s][j] * new_j, with c the inverse of the rows
        return induced_map(self, linalg.inverse([row.coords() for row in new_rows]))

    def _key_str(self, m: int) -> str:
        names = [
            f"e{bit+1}" if bit < self.n else f"f{bit-self.n+1}"
            for bit in range(2 * self.n)
            if m >> bit & 1
        ]
        return "^".join(names) if names else "1"


def _wedge_front(ext: ExteriorVector, coords: list[Fraction]) -> ExteriorVector:
    """Wedge a coordinate vector (over ext's symbol space) on the left."""
    return ext._apply(*_vector_letter(coords))


def wedge_of_vectors(n: int, vectors: list[VectorInV]) -> ExteriorVector:
    """v_1 wedge ... wedge v_k as an ExteriorVector."""
    for v in vectors:
        if v.n != n:
            raise LevelMismatchError(f"levels differ: {n} vs {v.n}")
    word = [tuple(_wedge(b, c) for b, c in sorted(v.num.items())) for v in vectors]
    out, _ = _apply_words([(1, word)], {0: 1})
    return ExteriorVector._ints(n, out, prod(v.den for v in vectors))


def induced_map(omega: ExteriorVector, cols) -> ExteriorVector:
    """The map of the exterior algebra induced by a linear map of V, given by
    cols[b], the coordinates of the image of symbol bit b: each monomial goes
    to the wedge of the images of its symbols, in one pass of the kernel:
    the word of a monomial carries its numerator over its letters' scales."""
    n = omega.n
    if len(cols) != 2 * n:
        raise IndexRangeError("need 2n basis vectors")
    for b, col in enumerate(cols):
        if len(col) != 2 * n:
            raise IndexRangeError(f"column {b} has {len(col)} coordinates; expected 2n = {2 * n}")
    letters = [_vector_letter(col) for col in cols]
    words = []
    for m, c in omega.num.items():
        word = [letters[b] for b in range(2 * n) if m >> b & 1]
        words.append((Fraction(c, prod(scale for _, scale in word)), [l for l, _ in word]))
    out, scale = _apply_words(words, {0: 1})
    return ExteriorVector._ints(n, out, omega.den * scale)


def act_on_exterior(a: CliffordElement, omega: ExteriorVector) -> ExteriorVector:
    """The Clifford module action on the exterior algebra of the whole space."""
    omega._check_level(a)
    out, _ = _apply_words(_clifford_words(a, _exterior_letter), omega.num)
    return ExteriorVector._ints(a.n, out, a.den * omega.den)


def _two_bits(key: int) -> tuple[int, int]:
    """The positions p < p2 of the two bits of a two-form's key."""
    return (key & -key).bit_length() - 1, key.bit_length() - 1


def so_to_clifford(x) -> CliffordElement:
    """Image of a two-form under the quarter-commutator embedding: the basis
    two-form u^v, keyed by the mask of the bits p < p2 of u and v (see
    spin_rep.SoElement), maps to (uv - vu)/4, with u and v the Clifford
    letters at those bits."""
    n = x.n
    table = _letter_table(_clifford_letter, n)
    words = []
    for m, c in x.num.items():
        p, p2 = _two_bits(m)
        lu, lv = table[p], table[p2]
        words += [(c, [lu, lv]), (-c, [lv, lu])]
    return _clifford_image(words, CliffordElement.unit(n), 4 * x.den)
