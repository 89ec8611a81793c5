"""Exact arithmetic in the Clifford algebra of a split quadratic space.

Level n means a 2n-dimensional space with hyperbolic basis
e_1..e_n, f_1..f_n:  (e_i|e_j) = (f_i|f_j) = 0 and (e_i|f_j) = delta_ij.

Basis-vector symbols are signed integers: +i is e_i, -i is f_i.  Strings
"e3"/"f1" and pairs ("e", 3) are accepted anywhere a symbol is expected.

Monomials are normal-ordered words: all e-factors before all f-factors,
each block ascending.  A monomial is stored as a bitmask pair
(emask, fmask) with bit i-1 encoding index i.  Elements are sparse maps
from monomials to Fractions; zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
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
    if kind == "e":
        return idx
    if kind == "f":
        return -idx
    raise IndexRangeError(f"unknown symbol kind {kind!r}")


def symbol_name(sym: Symbol) -> str:
    return f"e{sym}" if sym > 0 else f"f{-sym}"


def _check_index(sym: Symbol, n: int) -> None:
    if not 1 <= abs(sym) <= n:
        raise IndexRangeError(f"symbol {symbol_name(sym)} out of range 1..{n}")


def symbol_pairing(a: Symbol, b: Symbol) -> Fraction:
    """(a|b) for basis symbols: 1 exactly when {a, b} = {e_i, f_i}."""
    return Fraction(1) if a == -b else Fraction(0)


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


def _apply_words(words, terms: dict[int, Fraction]) -> dict[int, Fraction]:
    """Sum over (coef, letters) in words of coef * (letters applied right to
    left to the sparse map terms: mask -> coefficient)."""
    out: dict[int, Fraction] = {}
    for coef, letters in words:
        cur = terms
        for letter in reversed(letters):
            nxt: dict[int, Fraction] = {}
            for m, c in cur.items():
                for b, need, factor in letter:
                    if m & b != need:
                        continue
                    v = c if factor == 1 else factor * c
                    _accumulate(nxt, m ^ b, -v if (m & (b - 1)).bit_count() & 1 else v)
            cur = nxt
            if not cur:
                break
        for m, c in cur.items():
            _accumulate(out, m, c if coef == 1 else coef * c)
    return out


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


def _vector_letter(coords) -> tuple:
    """Wedge by the vector with these coordinates over the 2n mask bits."""
    return tuple(_wedge(bit, c) for bit, c in enumerate(coords) if c)


def monomial_word(mono: Monomial) -> list[Symbol]:
    emask, fmask = mono
    return [i for i in _mask_indices(emask)] + [-j for j in _mask_indices(fmask)]


def monomial_str(mono: Monomial) -> str:
    emask, fmask = mono
    if emask == 0 and fmask == 0:
        return "1"
    return "".join(f"e{i}" for i in _mask_indices(emask)) + "".join(
        f"f{j}" for j in _mask_indices(fmask)
    )


class CliffordElement:
    """Sparse rational linear combination of normal-ordered monomials."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, Fraction] | None = None):
        self.n = n
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                if not (0 <= mono[0] < 1 << n and 0 <= mono[1] < 1 << n):
                    raise IndexRangeError(f"monomial masks {mono} out of range at level {n}")
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(n: int) -> "CliffordElement":
        return CliffordElement(n, {(0, 0): Fraction(1)})

    @staticmethod
    def zero(n: int) -> "CliffordElement":
        return CliffordElement(n)

    @staticmethod
    def from_symbol(n: int, sym) -> "CliffordElement":
        s = parse_symbol(sym)
        _check_index(s, n)
        if s > 0:
            return CliffordElement(n, {(1 << (s - 1), 0): Fraction(1)})
        return CliffordElement(n, {(0, 1 << (-s - 1)): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check_level(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(out, mono, c)
        return CliffordElement(self.n, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "CliffordElement":
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return CliffordElement.zero(self.n)
        return CliffordElement(self.n, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return mul(self, other)
        return self.scale(other)

    def _check_level(self, other: "CliffordElement") -> None:
        if self.n != other.n:
            raise LevelMismatchError(f"levels differ: {self.n} vs {other.n}")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            parts.append(f"{self.terms[mono]}*{monomial_str(mono)}")
        return " + ".join(parts)

    __repr__ = __str__


def _packed(a: CliffordElement) -> dict[int, Fraction]:
    return {em | fm << a.n: c for (em, fm), c in a.terms.items()}


def _unpacked(n: int, terms: dict[int, Fraction]) -> CliffordElement:
    low = (1 << n) - 1
    return CliffordElement(n, {(m & low, m >> n): c for m, c in terms.items()})


def _clifford_words(a: CliffordElement, letter) -> list:
    """a as a sum of (coefficient, letters) words over its monomials."""
    return [
        (c, [letter(s, a.n) for s in monomial_word(mono)])
        for mono, c in a.terms.items()
    ]


def normal_form(word: Iterable, n: int) -> CliffordElement:
    """Normal-ordered expansion of a word of basis-vector symbols: the unit
    multiplied on the left by each symbol, last symbol first."""
    syms = [parse_symbol(s) for s in word]
    for s in syms:
        _check_index(s, n)
    letters = [_clifford_letter(s, n) for s in syms]
    return _unpacked(n, _apply_words([(1, letters)], {0: Fraction(1)}))


def mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Clifford product: b multiplied on the left by the letters of each
    monomial of a."""
    a._check_level(b)
    return _unpacked(a.n, _apply_words(_clifford_words(a, _clifford_letter), _packed(b)))


def star(a: CliffordElement) -> CliffordElement:
    """The anti-automorphism reversing each monomial word."""
    words = [(c, letters[::-1]) for c, letters in _clifford_words(a, _clifford_letter)]
    return _unpacked(a.n, _apply_words(words, {0: Fraction(1)}))


_ZERO = Fraction(0)


class VectorInV:
    """A vector of the level-n space, split into E- and F-coordinates."""

    __slots__ = ("n", "e", "f")

    def __init__(self, n: int, e: Iterable = (), f: Iterable = ()):
        self.n = n
        ee = [x if isinstance(x, Fraction) else Fraction(x) for x in e]
        ff = [x if isinstance(x, Fraction) else Fraction(x) for x in f]
        ee += [_ZERO] * (n - len(ee))
        ff += [_ZERO] * (n - len(ff))
        if len(ee) != n or len(ff) != n:
            raise IndexRangeError("coordinate sequence longer than level")
        self.e = tuple(ee)
        self.f = tuple(ff)

    @staticmethod
    def basis(n: int, sym) -> "VectorInV":
        s = parse_symbol(sym)
        _check_index(s, n)
        e = [0] * n
        f = [0] * n
        if s > 0:
            e[s - 1] = 1
        else:
            f[-s - 1] = 1
        return VectorInV(n, e, f)

    @staticmethod
    def from_coords(n: int, coords) -> "VectorInV":
        coords = list(coords)
        if len(coords) != 2 * n:
            raise IndexRangeError("expected 2n coordinates")
        return VectorInV(n, coords[:n], coords[n:])

    def coords(self) -> list[Fraction]:
        return list(self.e) + list(self.f)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.e) and all(x == 0 for x in self.f)

    def __add__(self, other: "VectorInV") -> "VectorInV":
        if self.n != other.n:
            raise LevelMismatchError("vector levels differ")
        return VectorInV(
            self.n,
            [a + b for a, b in zip(self.e, other.e)],
            [a + b for a, b in zip(self.f, other.f)],
        )

    def __sub__(self, other: "VectorInV") -> "VectorInV":
        return self + other.scale(-1)

    def scale(self, c) -> "VectorInV":
        c = Fraction(c)
        return VectorInV(self.n, [c * x for x in self.e], [c * x for x in self.f])

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorInV)
            and (self.n, self.e, self.f) == (other.n, other.e, other.f)
        )

    def __hash__(self):
        return hash((self.n, self.e, self.f))

    def as_clifford(self) -> CliffordElement:
        terms: dict[Monomial, Fraction] = {}
        for i, c in enumerate(self.e):
            if c:
                terms[(1 << i, 0)] = c
        for j, c in enumerate(self.f):
            if c:
                key = (0, 1 << j)
                terms[key] = terms.get(key, Fraction(0)) + c
        return CliffordElement(self.n, terms)

    def __str__(self) -> str:
        parts = [f"{c}*e{i+1}" for i, c in enumerate(self.e) if c]
        parts += [f"{c}*f{j+1}" for j, c in enumerate(self.f) if c]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def pairing(v: VectorInV, w: VectorInV) -> Fraction:
    """The bilinear form (v|w) of the split quadratic space."""
    if v.n != w.n:
        raise LevelMismatchError("vector levels differ")
    total = _ZERO
    for a, b in zip(v.e + v.f, w.f + w.e):
        if a and b:
            total += a * b
    return total


def quadratic_value(v: VectorInV) -> Fraction:
    return pairing(v, v)


def require_isotropic(v: VectorInV, what: str = "vector") -> None:
    q = quadratic_value(v)
    if q != 0:
        raise NotIsotropicError(f"{what} has q = {q} != 0")


class ExteriorVector:
    """Sparse element of the exterior algebra on the 2n symbols of level n.

    Mask bit i-1 encodes e_i, bit n+i-1 encodes f_i; wedge letters are
    ordered e_1 < ... < e_n < f_1 < ... < f_n by bit index.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[int, Fraction] | None = None):
        self.n = n
        self.terms: dict[int, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if not 0 <= m < 1 << (2 * n):
                    raise IndexRangeError(f"wedge mask {m} out of range at level {n}")
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    self.terms[m] = c

    @staticmethod
    def unit(n: int) -> "ExteriorVector":
        return ExteriorVector(n, {0: Fraction(1)})

    @staticmethod
    def zero(n: int) -> "ExteriorVector":
        return ExteriorVector(n)

    def _apply(self, letter: tuple) -> "ExteriorVector":
        return ExteriorVector(self.n, _apply_words([(1, [letter])], self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExteriorVector)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        if self.n != other.n:
            raise LevelMismatchError("levels differ")
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return ExteriorVector(self.n, out)

    def __sub__(self, other: "ExteriorVector") -> "ExteriorVector":
        return self + other.scale(-1)

    def scale(self, c) -> "ExteriorVector":
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return ExteriorVector.zero(self.n)
        return ExteriorVector(self.n, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def degrees(self) -> set[int]:
        return {bin(m).count("1") for m in self.terms}

    def degree_component(self, d: int) -> "ExteriorVector":
        return ExteriorVector(
            self.n, {m: c for m, c in self.terms.items() if bin(m).count("1") == d}
        )

    def outer_symbol(self, sym: Symbol) -> "ExteriorVector":
        _check_index(sym, self.n)
        return self._apply((_wedge(_bit(sym, self.n)),))

    def inner_vector(self, v: VectorInV) -> "ExteriorVector":
        partner = v.f + v.e  # iota(e_i) removes f_i and iota(f_i) removes e_i
        return self._apply(tuple(_contract(bit, c) for bit, c in enumerate(partner) if c))

    def change_basis(self, new_rows: list[VectorInV]) -> "ExteriorVector":
        """Coordinates of self over the wedge basis of the given 2n vectors."""
        from . import linalg

        n = self.n
        a = [row.coords() for row in new_rows]
        if len(a) != 2 * n:
            raise IndexRangeError("need 2n basis vectors")
        c = linalg.inverse(a)  # old symbol s = sum_j c[s][j] * new_j
        words = [
            (coef, [_vector_letter(c[bit]) for bit in range(2 * n) if m >> bit & 1])
            for m, coef in self.terms.items()
        ]
        return ExteriorVector(n, _apply_words(words, {0: Fraction(1)}))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            names = []
            for bit in range(2 * self.n):
                if m >> bit & 1:
                    names.append(
                        f"e{bit+1}" if bit < self.n else f"f{bit-self.n+1}"
                    )
            mono = "^".join(names) if names else "1"
            parts.append(f"{self.terms[m]}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def _wedge_front(ext: ExteriorVector, coords: list[Fraction]) -> ExteriorVector:
    """Wedge a coordinate vector (over ext's symbol space) on the left."""
    return ext._apply(_vector_letter(coords))


def wedge_of_vectors(n: int, vectors: list[VectorInV]) -> ExteriorVector:
    """v_1 wedge ... wedge v_k as an ExteriorVector."""
    letters = [_vector_letter(v.coords()) for v in vectors]
    return ExteriorVector(n, _apply_words([(1, letters)], {0: Fraction(1)}))


def act_on_exterior(a: CliffordElement, omega: ExteriorVector) -> ExteriorVector:
    """The Clifford module action on the exterior algebra of the whole space."""
    if a.n != omega.n:
        raise LevelMismatchError("levels differ")
    return ExteriorVector(a.n, _apply_words(_clifford_words(a, _exterior_letter), omega.terms))


def so_to_clifford(x) -> CliffordElement:
    """Image of a two-form under the quarter-commutator embedding.

    Accepts any object with fields n, ee, ff, ef (sparse two-form blocks);
    each basis two-form u^v maps to (uv - vu)/4.
    """
    n = x.n
    pairs = [(i, j, c) for (i, j), c in x.ee.items()]
    pairs += [(-i, -j, c) for (i, j), c in x.ff.items()]
    pairs += [(i, -j, c) for (i, j), c in x.ef.items()]
    words = []
    for u, v, c in pairs:
        lu, lv = _clifford_letter(u, n), _clifford_letter(v, n)
        words += [(Fraction(c, 4), [lu, lv]), (Fraction(-c, 4), [lv, lu])]
    return _unpacked(n, _apply_words(words, {0: Fraction(1)}))
