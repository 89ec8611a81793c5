"""Polynomials on spin coordinates, discovery of the level-4 quadric,
pullback families certifying cone membership at higher levels, and the
derivation-based degree-lowering machinery on limit-level polynomials."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations_with_replacement, repeat
from math import comb, gcd
from operator import add, mul
from typing import Iterator

from . import clifford_core as cc
from . import grassmann_cone as gc
from . import linalg
from . import spin_rep as sr
from . import transfer_maps as tm
from .errors import (
    DiscoveryError,
    IndexRangeError,
    LevelMismatchError,
    SpinalgError,
    StructureError,
    TooFewPointsError,
)


def _level_name(x) -> str:
    """The level of a polynomial or variable as an error message names it."""
    return "limit" if x.is_limit else str(x.level)


def _check_masks(is_limit: bool, level: int, low: int, high: int) -> None:
    """IndexRangeError unless the smallest mask `low` and the largest mask
    `high` name coordinates: no mask is negative, and at a finite level
    every mask is below 2^level."""
    if low < 0 or (not is_limit and high >> level):
        where = "the limit level" if is_limit else f"level {level}"
        raise IndexRangeError(f"variable mask out of range at {where}")


@dataclass(frozen=True, order=True)
class SpinVariable:
    """A view of one coordinate on a spin space.

    Finite level: `mask` is the subset S of {1..level}.  Limit level
    (level -1): `mask` is the finite complement of the cofinite index
    set, and popcount(mask) is the filtration degree.  Polynomials store
    only the masks; this view names and prints one variable.
    """

    is_limit: bool
    level: int
    mask: int

    def __post_init__(self):
        _check_masks(self.is_limit, self.level, self.mask, self.mask)

    @staticmethod
    def finite(level: int, mask: int) -> "SpinVariable":
        return SpinVariable(False, level, mask)

    @staticmethod
    def limit(cmask: int) -> "SpinVariable":
        return SpinVariable(True, -1, cmask)

    @property
    def filtration(self) -> int:
        if not self.is_limit:
            raise SpinalgError("filtration degree is a limit-level notion")
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return [i + 1 for i in range(self.mask.bit_length()) if self.mask >> i & 1]

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in self.indices())
        return f"x[~{inner}]" if self.is_limit else f"x[{inner}]"

    __repr__ = __str__


# the masks of a monomial's variables, one per factor; sorted in Polynomial.terms
Monomial = tuple[int, ...]


class Polynomial(cc.SparseElement):
    """Sparse polynomial over spin variables, all at one finite level or all
    at the limit level; a monomial is the sorted tuple of its variables'
    masks (subset masks, or complement masks at the limit level).  On the
    shared element base, n is the level, or -1 at the limit level."""

    __slots__ = ("_parities",)

    def __init__(self, is_limit: bool, level: int, terms: dict[Monomial, Fraction] | None = None):
        out: dict[Monomial, Fraction] = {}
        for mono, c in (terms or {}).items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if not c:
                continue
            mono = tuple(sorted(mono))
            if mono:
                _check_masks(is_limit, level, mono[0], mono[-1])
            cc._accumulate(out, mono, c)
        self.n = -1 if is_limit else level
        self.num, self.den = cc._num_den(out)

    is_limit = property(lambda self: self.n < 0)
    level = property(lambda self: self.n)  # -1 at the limit level

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero_limit() -> "Polynomial":
        return Polynomial.zero(-1)

    @staticmethod
    def variable(v: SpinVariable) -> "Polynomial":
        return Polynomial(v.is_limit, v.level, {(v.mask,): Fraction(1)})

    @staticmethod
    def constant_finite(level: int, c) -> "Polynomial":
        """The constant c at a finite level; public as the finite-level twin of variable()."""
        return Polynomial(False, level, {(): Fraction(c)})

    # -- ring operations ----------------------------------------------------

    def _check_level(self, other) -> None:
        """LevelMismatchError unless other (a polynomial or a variable) is at
        self's level, finite or the limit."""
        if (self.is_limit, self.level) != (other.is_limit, other.level):
            raise LevelMismatchError(f"levels differ: {_level_name(self)} vs {_level_name(other)}")

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_level(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                cc._accumulate(out, tuple(sorted(m1 + m2)), c1 * c2)
        return self._ints(self.n, out, self.den * other.den)

    def degree(self) -> int:
        return max((len(m) for m in self.num), default=0)

    def is_homogeneous(self) -> bool:
        return len({len(m) for m in self.num}) <= 1

    def _masks(self) -> set[int]:
        return set().union(*self.num)

    def _view(self, mask: int) -> SpinVariable:
        return SpinVariable(self.is_limit, self.level, mask)

    def variables(self) -> set[SpinVariable]:
        return {self._view(m) for m in self._masks()}

    def _variable_parities(self) -> frozenset[int]:
        """The parities |S| mod 2 of the variables x_S that occur, kept from
        the first call: a polynomial's terms do not change after it is built."""
        try:
            return self._parities
        except AttributeError:
            self._parities = frozenset(m.bit_count() % 2 for m in self._masks())
            return self._parities

    def partial(self, v: SpinVariable) -> "Polynomial":
        self._check_level(v)
        out: dict[Monomial, int] = {}
        for mono, c in self.num.items():
            k = mono.count(v.mask)
            if k:
                i = mono.index(v.mask)
                cc._accumulate(out, mono[:i] + mono[i + 1 :], k * c)
        return self._ints(self.n, out, self.den)

    def _key_str(self, mono: Monomial) -> str:
        factors = []
        for m in dict.fromkeys(mono):
            k = mono.count(m)
            factors.append(str(self._view(m)) + (f"^{k}" if k > 1 else ""))
        return "*".join(factors) or "1"

    # -- level conversion ----------------------------------------------------

    def to_limit(self) -> "Polynomial":
        """Reinterpret at the limit level.

        A finite variable reading coordinate mask S is the limit variable
        with complement S: the coordinate masks are stable along the
        contraction tower, so the correspondence is mask-for-mask."""
        if self.is_limit:
            return self
        return Polynomial._ints(-1, self.num, self.den)

    def to_finite(self, level: int) -> "Polynomial":
        """Truncate to a finite level; IndexRangeError when a variable's
        complement does not fit in {1..level}."""
        if not self.is_limit:
            if self.level == level:
                return self
            raise LevelMismatchError(f"levels differ: {self.level} vs {level}")
        return Polynomial(False, level, self.terms)


def _monomial_value(mono: Monomial, coords: dict[int, Fraction], c: Fraction) -> Fraction:
    """c times the coordinates coords[m] of the monomial's variables."""
    for m in mono:
        c *= coords.get(m, 0)
        if not c:
            break
    return c


def eval_poly(p: Polynomial, x: sr.SpinVector) -> Fraction:
    """Exact evaluation of a finite-level polynomial at a spin vector; public
    as the plain evaluation the README example uses (certify_membership packs its own)."""
    if p.is_limit:
        raise LevelMismatchError("evaluate limit polynomials through to_finite")
    if p.level != x.n:
        raise LevelMismatchError(f"levels differ: {p.level} vs {x.n}")
    x_pars = {m.bit_count() % 2 for m in x.num}
    if len(p._variable_parities() | x_pars) > 1:
        raise LevelMismatchError("parity mismatch between polynomial and point")
    return sum((_monomial_value(mono, x.terms, c) for mono, c in p.terms.items()), Fraction(0))


def component_variables(n: int) -> list[int]:
    """Masks of the coordinates of the even half-spin component at level n.

    Even means even subset size |S|: the contraction tower preserves
    subset masks, so this labeling is stable across levels."""
    return [m for m in range(1 << n) if m.bit_count() % 2 == 0]


def monomials_of_degree(masks: list[int], d: int) -> list[Monomial]:
    if d < 0:
        raise IndexRangeError(f"degree {d} is negative")
    return list(combinations_with_replacement(sorted(masks), d))


def vanishing_forms(points: list[sr.SpinVector], degree: int) -> list[Polynomial]:
    """Canonical basis of the degree-d forms vanishing on all given points.

    Exact nullspace of the evaluation matrix, on integers: a form vanishes at
    x iff it vanishes at x's primitive integer multiple, whose row is x's
    times a constant that the elimination divides out.  Raises if there are
    fewer points than monomials (the result would be meaningless), for a
    point with an odd coordinate and for a negative degree."""
    if not points:
        raise TooFewPointsError("no points supplied")
    n = points[0].n
    for x in points:
        points[0]._check_level(x)
    if any(m.bit_count() & 1 for x in points for m in x.num):
        raise LevelMismatchError("the forms read even coordinates; a point has odd ones")
    monos = monomials_of_degree(component_variables(n), degree)
    if len(points) < len(monos):
        raise TooFewPointsError(f"need at least {len(monos)} points for {len(monos)} monomials, got {len(points)}")
    ints = [x.integer_form()[0] for x in points]
    kernel = linalg.nullspace([[_monomial_value(mono, xs, 1) for mono in monos] for xs in ints])
    return [Polynomial(False, n, dict(zip(monos, coeffs))) for coeffs in kernel]


def cone_points(n: int, seed, count: int) -> list[sr.SpinVector]:
    return [gc.sample_cone_point(n, f"{seed}:{i}", length=10) for i in range(count)]


def stable_vanishing_forms(n: int, degree: int, seed) -> tuple[list[Polynomial], dict]:
    """Discovery with the two-seed stationarity stopping rule.

    Samples 3 * (monomial count) cone points under two independent seed
    streams; accepts when both runs agree and each basis vanishes on the
    other run's points, else doubles the count, for at most 3 rounds.  The
    provenance records seeds and counts."""
    count = 3 * len(monomials_of_degree(component_variables(n), degree))
    for round_no in range(3):
        pts_a = cone_points(n, f"vf:{seed}:a{round_no}", count)
        pts_b = cone_points(n, f"vf:{seed}:b{round_no}", count)
        forms_a = vanishing_forms(pts_a, degree)
        forms_b = vanishing_forms(pts_b, degree)
        if len(forms_a) == len(forms_b) and _vanish(forms_a, pts_b) and _vanish(forms_b, pts_a):
            provenance = {
                "level": n,
                "degree": degree,
                "seed": str(seed),
                "points_per_stream": count,
                "rounds": round_no + 1,
                "dimension": len(forms_a),
            }
            return forms_a, provenance
        count *= 2
    raise DiscoveryError(
        f"vanishing forms did not stabilize at level {n}, degree {degree}"
    )


def _vanish(forms: list[Polynomial], points: list[sr.SpinVector]) -> bool:
    """Whether every form vanishes at every point, on integers: a form is zero
    at a point iff its numerators are zero at the point's integer row."""
    coefs = [f.num for f in forms]
    rows = [x.integer_form()[0] for x in points]
    return not any(sum(_monomial_value(mono, xs, c) for mono, c in cf.items()) for cf in coefs for xs in rows)


def _primitive_normal(p: Polynomial) -> Polynomial:
    """Scale to integer coefficients with content 1 and positive leading term."""
    if p.is_zero():
        return p
    num = p.num
    content = gcd(*num.values()) if num[min(num)] > 0 else -gcd(*num.values())
    return Polynomial._ints(p.n, {mono: c // content for mono, c in num.items()})


def beta_norm_quadric(n: int) -> Polynomial:
    """The quadratic form x -> beta(x, x) restricted to the even component."""
    gram = tm.beta_gram(n)
    masks = component_variables(n)
    terms: dict[Monomial, Fraction] = {}
    for a, ma in enumerate(masks):
        for mb in masks[a:]:
            terms[ma, mb] = gram[ma][mb] + gram[mb][ma] if ma != mb else gram[ma][ma]
    return Polynomial(False, n, terms)


@lru_cache(maxsize=1)
def i4_quadric() -> Polynomial:
    """The canonical generator of the one-dimensional degree-2 slice of the
    even-cone equations at level 4, cross-checked against the invariant
    pairing norm."""
    forms, _prov = stable_vanishing_forms(4, 2, "i4-discovery")
    if len(forms) != 1:
        raise DiscoveryError(
            f"level-4 degree-2 slice has dimension {len(forms)}, expected 1"
        )
    quad = _primitive_normal(forms[0])
    if not cc._proportional(quad.num, beta_norm_quadric(4).num):
        raise DiscoveryError("discovered quadric is not the pairing norm")
    return quad


# -- linear maps and pullback --------------------------------------------------


def pullback(p: Polynomial, lm: sr.LinearOperator) -> Polynomial:
    """(pullback p)(x) = p(L x); degree is preserved."""
    if p.is_limit:
        raise LevelMismatchError("pullback works on finite-level polynomials")
    if p.level != lm.target_n:
        raise LevelMismatchError(f"levels differ: {p.level} vs {lm.target_n}")
    if not p.is_homogeneous():
        raise SpinalgError("pullback expects a homogeneous polynomial")
    rows: dict[int, dict[int, int]] = {}
    low = (1 << lm.target_n) - 1
    for key in sorted(lm.num):  # each row's sources increasing
        rows.setdefault(key & low, {})[key >> lm.target_n] = lm.num[key]
    q = _pullback_rows(p, rows, lm.den, lm.source_n)
    if masks := q._masks():
        _check_masks(False, q.level, min(masks), max(masks))
    return q


def _pullback_rows(
    p: Polynomial, rows: dict[int, dict[int, int]], den: int, source_n: int
) -> Polynomial:
    """pullback of the homogeneous p along L = rows / den, rows as pullback
    gives them (target mask -> {source mask: coef}, no zero entries; the caller
    checks the source masks): _pullback_ints on p's numerators, over p.den
    den^degree, as p is homogeneous."""
    out = _pullback_ints(p.num, rows)
    return Polynomial._ints(source_n, {mono: v for mono, v in out.items() if v}, p.den * den ** p.degree())


def _pullback_ints(coefs: dict[Monomial, int], rows: dict[int, dict[int, int]]) -> dict[Monomial, int]:
    """sum_mono c prod_(m in mono) rows[m] on integers, cancelled terms kept as
    zeros.  Symmetric accumulation: the products of one entry from each row are
    keyed by their sources, sorted as each pick is made, so reordered picks
    meet in one int; a pick making a two-key monomial is one compare."""
    out: dict[Monomial, int] = {}
    for mono, c in coefs.items():
        if not mono:
            out[()] = out.get((), 0) + c
        picks: dict[Monomial, int] = {(): c}
        for depth, m in enumerate(mono, 1):
            row = rows.get(m, {}).items()
            step: dict[Monomial, int] = out if depth == len(mono) else {}
            get = step.get
            for key, v in picks.items():
                if len(key) == 1:
                    (s,) = key
                    for t, a in row:
                        k = (s, t) if s <= t else (t, s)
                        step[k] = get(k, 0) + v * a
                else:
                    for t, a in row:
                        k = (*key, t) if not key or key[-1] <= t else tuple(sorted((*key, t)))
                        step[k] = get(k, 0) + v * a
            picks = step
    return out


@dataclass(frozen=True)
class FamilyMember:
    """One pulled-back quadric and its compiled map x -> pi_4(g x) on the
    even coordinates: rows[a][b] / den is the coefficient of the b-th even
    level-n coordinate in the a-th even level-4 coordinate (masks in
    increasing order, as component_variables lists them)."""

    g: sr.GroupElement
    rows: tuple[tuple[int, ...], ...]
    den: int

    @cached_property
    def quadric(self) -> Polynomial:
        """The level-4 quadric pulled back along rows / den, on first read;
        StructureError unless it is homogeneous quadratic."""
        sources = component_variables(self.g.n)  # the even mask s sits at s >> 1
        rows = [{sources[b]: c for b, c in enumerate(row) if c} for row in self.rows]
        quad = _pullback_rows(i4_quadric(), dict(zip(component_variables(4), rows)), self.den, self.g.n)
        if not (quad.is_homogeneous() and quad.degree() in (0, 2)):
            raise StructureError("pulled-back form is not homogeneous quadratic")
        return quad


# a member's rows, one per even level-4 mask; the screen maps a point by
# members 0.._BLOCK-1 at once, slot _ROWS j + a holding row a of member j
_ROWS = 8
_BLOCK = 8
_SLOTS = _BLOCK * _ROWS


@dataclass(frozen=True)
class PullbackFamily:
    """The pullbacks of the level-4 quadric along the members' maps
    x -> pi_4(g x) at level n.

    Every member is a level-n member: LevelMismatchError at construction
    for a group element of another level, or rows that are not _ROWS rows over
    the 2^(n-1) even level-n masks.

    certify_membership reads the members through packed tables kept outside
    the fields, so equality and hash see only n, seed and members.  The screen
    holds, per even source position k and slot width w, the int sum_s rows_s[k]
    2^(w s) over the rows s of members 0.._BLOCK-1 (Kronecker substitution).
    The pair table holds, per pair s <= t of even positions, the int T[s][t] =
    sum_j S_j[s, t] 2^(w j), S_j / den^2 the quadric of member _BLOCK + j
    (_pullback_ints on its rows).  It is built when a point first passes the
    screen, over that point's positions, then over all once a point leaves them."""

    n: int
    seed: str
    members: tuple[FamilyMember, ...]

    def __post_init__(self):
        sources = (1 << self.n) >> 1
        for m in self.members:
            if m.g.n != self.n or len(m.rows) != _ROWS or any(len(r) != sources for r in m.rows):
                raise LevelMismatchError(f"family member is not a level-{self.n} member")

    def serialize(self) -> dict:
        """Replayable description: the seed plus every group word."""
        return {
            "level": self.n,
            "seed": self.seed,
            "words": [m.g.serialize() for m in self.members],
        }

    @cached_property
    def _row_bound(self) -> int:
        """The largest L1 norm of a screen member's row."""
        return max((sum(map(abs, row)) for m in self.members[:_BLOCK] for row in m.rows), default=0)

    @cached_property
    def _tables(self) -> dict:
        """width -> (bias, screen), and "pairs" -> (positions, bound, width -> T)."""
        return {}

    def _screen(self, width: int) -> tuple[int, list[int]]:
        """The bias that puts 2^(width-1) in every slot, and the screen."""
        if width not in self._tables:
            bias = sum(1 << width * s for s in range(_SLOTS)) << width - 1
            slots = [row for m in self.members[:_BLOCK] for row in m.rows]
            self._tables[width] = bias, [sum(c << width * s for s, c in enumerate(col) if c) for col in zip(*slots)]
        return self._tables[width]

    def _pairs(self, top: int, support: set[int]) -> tuple[int, list[list[int]]]:
        """The pair table covering support at the smallest width w, a multiple of
        64, with top^2 * bound < 2^(w-1).  bound is the largest sum_(a,b,c) |c|
        |R_a|_1 |R_b|_1 over the members after the screen, R_a row a of the
        member on the covered positions: never below sum_(s<=t) |S_j[s, t]|, and
        read off the rows, so each S_j is folded into the table as it is made and
        pulled back again for a new width, not kept."""
        cover, bound, packed = self._tables.get("pairs", (None, 0, {}))
        if cover is None or not support.issubset(cover):
            cover = support if cover is None else range((1 << self.n) >> 1)
            norms = [[sum(abs(row[k]) for k in cover) for row in m.rows] for m in self.members[_BLOCK:]]
            bound, packed = max(sum(abs(c) * r[a] * r[b] for a, b, c in _i4_slot_terms()) for r in norms), {}
            self._tables["pairs"] = cover, bound, packed
        width = 64 * ((top * top * bound).bit_length() // 64 + 1)
        if width not in packed:
            table = packed[width] = [[0] * ((1 << self.n) >> 1) for _ in range((1 << self.n) >> 1)]
            for j, q in enumerate(self._pair_quadrics(cover)):
                for (s, t), c in q.items():
                    table[s][t] += c << width * j
        return width, packed[width]

    def _pair_quadrics(self, cover) -> Iterator[dict[Monomial, int]]:
        """S_j on the pairs of positions in cover, for each member after the
        screen in turn, each made when the one before has been read."""
        quad = {(a, b): c for a, b, c in _i4_slot_terms()}
        for m in self.members[_BLOCK:]:
            yield _pullback_ints(quad, {a: {k: row[k] for k in cover if row[k]} for a, row in enumerate(m.rows)})


def orbit_pullback_family(n: int, seed, count: int, length: int = 10) -> PullbackFamily:
    """count pullbacks of the level-4 quadric along contraction-after-group
    maps with seeded random group elements; deterministic in the seed.

    Each map x -> pi_4(g x) is built from its rows, the unit covectors of the
    even level-4 masks moved through g's transposed steps on integers in one
    dict, row k's keys tagged k << n: the quadric reads only even level-4
    coordinates, and the spin group and the contraction keep parity, so the
    rows are supported on even masks.  Each entry, over the gcd of den and all
    entries, goes straight to its row and position in the dense rows."""
    if n < 4:
        raise IndexRangeError("pullback families need level >= 4")
    if count < 1:
        raise IndexRangeError(f"a pullback family needs at least one member, got count {count}")
    if length < 1:
        raise IndexRangeError(f"word length must be >= 1, got {length}")
    i4_quadric()  # the members' base quadric: a failed discovery raises at build, not at a query
    covectors = {k << n | t: 1 for k, t in enumerate(component_variables(4))}
    low = (1 << n) - 1
    members = []
    for i in range(count):
        g = sr.random_group_element(n, f"family:{seed}:{i}", length) if i else sr.GroupElement.identity(n)
        v, den = sr._word_steps(g, covectors, True, low)
        common = reduce(gcd, v.values(), den)
        dense = [[0] * ((1 << n) >> 1) for _ in covectors]
        for key, c in v.items():
            dense[key >> n][(key & low) >> 1] = c // common  # an even mask s is the (s >> 1)-th even mask
        members.append(FamilyMember(g, tuple(map(tuple, dense)), den // common))
    return PullbackFamily(n, str(seed), tuple(members))


@dataclass(frozen=True)
class MembershipVerdict:
    passes: bool
    witness_index: int | None
    witness_word: tuple | None
    witness_value: Fraction | None


@lru_cache(maxsize=1)
def _i4_slot_terms() -> tuple[tuple[int, int, int], ...]:
    """The primitive level-4 quadric as (a, b, c) terms c y_a y_b, a and b
    positions among the even level-4 masks; its coefficients are integers."""
    at = {t: k for k, t in enumerate(component_variables(4))}
    return tuple((at[a], at[b], c) for (a, b), c in i4_quadric().num.items())


def _slot_values(packed: int, width: int) -> memoryview | list[int]:
    """The _SLOTS width-bit two's complement slots of packed, lowest first;
    the bytes are in native order, as cast("q") reads them."""
    raw = packed.to_bytes(_SLOTS * width // 8, sys.byteorder)
    if width == 64:
        return memoryview(raw).cast("q")
    step = width // 8
    return [
        int.from_bytes(raw[i : i + step], sys.byteorder, signed=True)
        for i in range(0, len(raw), step)
    ]


def certify_membership(x: sr.SpinVector, family: PullbackFamily) -> MembershipVerdict:
    """x passes iff every pulled-back form vanishes at x.

    The forms are evaluated on integers at X = (den_x / content) x; the first
    member with a nonzero value val is the witness, val content^2 / (den
    den_x)^2, the pullback's value at x.  The screen maps X by members
    0.._BLOCK-1 at once: Y = bias + sum_k X_k P_k holds 2^(w-1) + y_s in slot
    s, y_s row s applied to X, and w, the smallest multiple of 64 with max|X|
    * (largest row L1 norm) < 2^(w-1), keeps every slot in [0, 2^w), so Y ^
    bias is the y_s in w-bit two's complement.  A point that passes meets the
    other members in one zero test: Y = sum_(s<=t) X_s X_t T[s][t] over its
    support holds S_j(X) in slot j, and the pair table's width makes every
    |S_j(X)| < 2^(w-1), so Y = 0 only when every S_j(X) is; else the lowest
    set bit of Y lies in the first nonzero slot, read as a signed w-bit int.
    LevelMismatchError for a point with an odd coordinate."""
    if not family.members:
        raise SpinalgError("empty family cannot certify")
    if x.n != family.n:
        raise LevelMismatchError(f"levels differ: {family.n} vs {x.n}")
    if any(m.bit_count() & 1 for m in x.num):
        raise LevelMismatchError("the family's forms read even coordinates; the point has odd ones")
    if x.is_zero():
        return MembershipVerdict(True, None, None, None)
    ints, den_x, content = x.integer_form()
    # one mask of each pair {2k, 2k + 1} is even, so the even mask s is the
    # (s >> 1)-th in increasing order
    positions = [s >> 1 for s in ints]
    values = list(ints.values())
    top = max(map(abs, values))
    width = 64 * ((top * family._row_bound).bit_length() // 64 + 1)
    bias, screen = family._screen(width)
    ys = _slot_values(sum(map(mul, map(screen.__getitem__, positions), values), bias) ^ bias, width)
    # the quadric's value for each screen member, over strided slots
    vals = repeat(0, _BLOCK)
    for a, b, c in _i4_slot_terms():
        vals = map(add, vals, map(mul, map(mul, ys[a::_ROWS], ys[b::_ROWS]), repeat(c)))
    idx, val = next(((j, v) for j, v in enumerate(vals) if v), (0, 0))
    if not val and len(family.members) > _BLOCK:
        width, pairs = family._pairs(top, set(positions))
        coords = sorted(zip(positions, values))
        y = sum(a * b * pairs[s][t] for i, (s, a) in enumerate(coords) for t, b in coords[i:])
        if y:
            j = ((y & -y).bit_length() - 1) // width
            low = y >> width * j & (1 << width) - 1
            idx, val = _BLOCK + j, low - (low >> width - 1 << width)
    if not val:
        return MembershipVerdict(True, None, None, None)
    member = family.members[idx]
    witness = Fraction(val * content * content, (member.den * den_x) ** 2)
    return MembershipVerdict(False, idx, tuple(member.g.serialize()), witness)


OFF_CONE_DRAWS = 100


def off_cone_sample(n: int, seed) -> sr.SpinVector:
    """Rejection-sample a non-pure even vector with coordinates in -3..3;
    StructureError after OFF_CONE_DRAWS draws.  Every nonzero even vector
    is pure at levels n <= 3, so the levels start at 4, as for the pullback
    families."""
    if n < 4:
        raise IndexRangeError("off-cone even vectors need level >= 4")
    rng = random.Random(f"offcone:{n}:{seed}")
    masks = component_variables(n)
    for _ in range(OFF_CONE_DRAWS):
        x = sr.SpinVector(n, {m: Fraction(rng.randint(-3, 3)) for m in masks})
        if not x.is_zero() and gc.is_pure(x).kind == "not_pure":
            return x
    raise StructureError(f"no non-pure even vector at level {n} in {OFF_CONE_DRAWS} draws")


# -- derivations on limit-level polynomials -----------------------------------


def _limit_variable_action(x: sr.SoElement, cmask: int, window: int) -> tuple[Fraction, int] | None:
    """Action of a two-form on the limit variable with complement cmask,
    computed by the finite oracle at the window level; returns (scalar, new
    complement mask) or None."""
    full = (1 << window) - 1
    if cmask & ~full:
        raise IndexRangeError("truncation too small for the variable")
    img = sr.rho_so(x, sr.SpinVector.basis(window, full & ~cmask))
    if img.is_zero():
        return None
    if len(img.num) != 1:
        raise StructureError("two-form action is not monomial on a variable")
    ((m2, c),) = img.num.items()
    return Fraction(c, img.den), full & ~m2


def _derive(x: sr.SoElement, p: Polynomial, window: int) -> Polynomial:
    """Leibniz extension of the variable action to limit polynomials."""
    if not p.is_limit:
        raise LevelMismatchError("derivations act on limit-level polynomials")
    actions = {m: _limit_variable_action(x, m, window) for m in p._masks()}
    out: dict[Monomial, Fraction] = {}
    for mono, c in p.terms.items():
        for pos, m in enumerate(mono):
            if actions[m] is not None:
                scalar, new = actions[m]
                cc._accumulate(out, mono[:pos] + (new,) + mono[pos + 1 :], c * scalar)
    return Polynomial(True, -1, out)


def derivation_ff(i: int, j: int, p: Polynomial, window: int) -> Polynomial:
    """Derivation action of f_i^f_j; raises each complement size by 2.

    The per-variable scalar (including its factor 2 and sign) comes from
    the finite-level oracle, never from a closed-form convention.  Public as
    the lowering argument's derivation, which _main_step applies by _derive."""
    if not i < j:
        raise IndexRangeError("need i < j")
    if j > window:
        raise IndexRangeError("truncation too small for the indices")
    return _derive(sr.SoElement.basis_ff(window, i, j), p, window)


def derivation_ef(i: int, j: int, p: Polynomial, window: int) -> Polynomial:
    """Derivation action of e_i^f_j (the gl block; i = j is the diagonal)."""
    if i > window or j > window:
        raise IndexRangeError("truncation too small for the indices")
    return _derive(sr.SoElement.basis_ef(window, i, j), p, window)


def _main_step(x: sr.SoElement, cur: Polynomial, cmask: int, window: int, where: str) -> tuple[Fraction, int, Polynomial]:
    """One step of the lowering construction: x's scalar and new complement
    on the main variable with complement cmask (_limit_variable_action), and
    x's derivation of cur; StructureError when x kills the main variable."""
    acted = _limit_variable_action(x, cmask, window)
    if acted is None:
        raise StructureError(f"main variable died {where}")
    return *acted, _derive(x, cur, window)


@dataclass(frozen=True)
class LoweringStep:
    pair: tuple[int, int]
    main_scalar: Fraction
    result: Polynomial


@dataclass(frozen=True)
class LoweringTrace:
    """Record of the degree-lowering construction.

    The final polynomial decomposes exactly as
        p_ell = scalar * e_top * q + remainder
    with q the formal partial derivative of p by the selected variable and
    every remainder variable of complement size < window."""

    start: Polynomial
    window: int
    main_var: SpinVariable
    k: int
    ell: int
    steps: tuple[LoweringStep, ...]
    q: Polynomial
    scalar: Fraction
    top_var: SpinVariable
    remainder: Polynomial

    def final(self) -> Polynomial:
        return self.steps[-1].result if self.steps else self.start


def degree_lowering_trace(p: Polynomial, window: int) -> LoweringTrace:
    """Run the lowering construction: act with f-pairs on the two smallest
    surviving indices of the selected maximal-complement variable."""
    if p.is_zero():
        raise SpinalgError("cannot lower the zero polynomial")
    if not p.is_limit:
        raise LevelMismatchError("lowering works on limit-level polynomials")
    if not p.is_homogeneous():
        raise SpinalgError("lowering expects a homogeneous polynomial")
    full = (1 << window) - 1
    masks = p._masks()
    if any(m & ~full for m in masks):
        raise IndexRangeError("truncation too small for the polynomial")
    k = max(m.bit_count() for m in masks)
    if window % 2 or window < k + 2:
        raise IndexRangeError("window must be even and at least k + 2")
    main = min(m for m in masks if m.bit_count() == k)
    q = p.partial(SpinVariable.limit(main))
    ell = (window - k) // 2
    steps: list[LoweringStep] = []
    cur = p
    cmask = main
    scalar = Fraction(1)
    for _ in range(ell):
        pair = []
        i = 1
        while len(pair) < 2:
            if not cmask >> (i - 1) & 1:
                pair.append(i)
            i += 1
        i1, i2 = pair
        step_scalar, cmask, cur = _main_step(
            sr.SoElement.basis_ff(window, i1, i2), cur, cmask, window, "under its own pair"
        )
        scalar *= step_scalar
        steps.append(LoweringStep((i1, i2), step_scalar, cur))
    if ell > 0 and cmask != full:
        raise StructureError("main chain did not reach the full-window variable")
    remainder = cur - Polynomial(True, -1, {(cmask,): scalar}) * q
    if ell > 0 and any(m.bit_count() >= window for m in remainder._masks()):
        raise StructureError(
            "remainder keeps a variable of maximal complement size"
        )
    if q.degree() != p.degree() - 1 and not q.is_zero():
        raise StructureError("derivative degree is off")
    return LoweringTrace(
        start=p,
        window=window,
        main_var=SpinVariable.limit(main),
        k=k,
        ell=ell,
        steps=tuple(steps),
        q=q,
        scalar=scalar,
        top_var=SpinVariable.limit(cmask),
        remainder=remainder,
    )


@dataclass(frozen=True)
class SolvingElement:
    """The pre-localization witness  scalar * e_J * q^power + remainder,
    lying in the derivation closure of the trace's ideal."""

    target: SpinVariable
    element: Polynomial
    q: Polynomial
    power: int
    scalar: Fraction
    remainder: Polynomial
    generators: tuple[Polynomial, ...]
    gl_moves: tuple[tuple[int, int], ...]


def produce_solving_element(trace: LoweringTrace, target_cmask: int, window: int) -> SolvingElement:
    """Extend the trace to the variable with complement J^c = target_cmask.

    Phase one acts with f-pairs to grow the main complement to [m]; phase
    two moves it onto the target with gl elements.  When a gl move also
    hits q, the current element is combined with its own q-multiple so the
    main term keeps the shape e_J q^d exactly (d grows by one)."""
    m = target_cmask.bit_count()
    n_tr = trace.window
    if m < n_tr:
        raise IndexRangeError("target complement must be at least the trace window")
    if m % 2:
        raise IndexRangeError("target complement size must be even")
    if target_cmask >> window:
        raise IndexRangeError("target outside the truncation")
    if window < m:
        raise IndexRangeError("truncation too small for the target")
    generators: list[Polynomial] = [trace.start]
    generators += [s.result for s in trace.steps]
    cur = trace.final()
    cmask = trace.top_var.mask
    scalar = trace.scalar
    power = 1
    q = trace.q
    # phase one: (n+1, n+2), ..., (m-1, m)
    for t in range(n_tr + 1, m, 2):
        step_scalar, cmask, cur = _main_step(
            sr.SoElement.basis_ff(window, t, t + 1), cur, cmask, window, "while extending"
        )
        generators.append(cur)
        scalar *= step_scalar
    # phase two: move the complement [m] onto the target, largest slot first
    targets = sorted(
        i + 1 for i in range(target_cmask.bit_length()) if target_cmask >> i & 1
    )
    moves: list[tuple[int, int]] = []
    for t_slot in range(m, 0, -1):
        c_t = targets[t_slot - 1]
        if c_t == t_slot:
            continue
        moves.append((t_slot, c_t))
    for i, j in moves:
        x = sr.SoElement.basis_ef(window, i, j)
        move_scalar, cmask, dcur = _main_step(x, cur, cmask, window, "under a gl move")
        dq = _derive(x, q, window)
        generators.append(dcur)
        scalar *= move_scalar
        if dq.is_zero():
            cur = dcur
        else:
            # q * D(cur) - power * D(q) * cur keeps the main shape, power + 1
            cur = q * dcur - dq.scale(power) * cur
            power += 1
            generators.append(cur)
    if cmask != target_cmask:
        raise StructureError("moves did not reach the target variable")
    remainder = cur - Polynomial(True, -1, {(cmask,): scalar}) * q_power(q, power)
    if any(v.bit_count() >= m for v in remainder._masks()):
        raise StructureError("solving element keeps a high variable")
    return SolvingElement(
        target=SpinVariable.limit(cmask),
        element=cur,
        q=q,
        power=power,
        scalar=scalar,
        remainder=remainder,
        generators=tuple(generators),
        gl_moves=tuple(moves),
    )


def q_power(q: Polynomial, d: int) -> Polynomial:
    out = Polynomial(True, -1, {(): Fraction(1)})
    for _ in range(d):
        out = out * q
    return out


@dataclass(frozen=True)
class LocalizedExpression:
    """On the locus where q is invertible, the target variable equals
    s / q^power with every variable of s of filtration <= window - 2.

    The certificate lists one polynomial multiplier per generator with
        target * q^power - s  =  sum(multiplier_i * generator_i)
    verified exactly on construction."""

    target: SpinVariable
    power: int
    s: Polynomial
    generators: tuple[Polynomial, ...]
    certificate: tuple[Polynomial, ...]


def assemble_localized(trace: LoweringTrace, target_cmask: int, window: int) -> LocalizedExpression:
    """Assemble the localized expression for the target variable.

    Starts from the pre-localization witness and recursively substitutes
    away every variable of filtration >= the trace window; an explicit
    multiplier certificate for the ideal membership of e_J q^d - s is
    carried through every step and audited at the end."""
    n_tr = trace.window
    sol = produce_solving_element(trace, target_cmask, window)
    gens: list[Polynomial] = []

    def gen_index(g: Polynomial) -> int:
        for i, h in enumerate(gens):
            if h == g:
                return i
        gens.append(g)
        return len(gens) - 1

    for g in sol.generators:
        gen_index(g)
    d = sol.power
    s = sol.remainder.scale(Fraction(-1) / sol.scalar)
    # e_J q^d - s = element / scalar; the element is the last recorded one
    rep: dict[int, Polynomial] = {
        gen_index(sol.element): Polynomial(True, -1, {(): Fraction(1) / sol.scalar})
    }

    def rep_add(target: dict, idx: int, mult: Polynomial) -> None:
        if mult.is_zero():
            return
        cur = target.get(idx)
        target[idx] = mult if cur is None else cur + mult

    while True:
        v = max(
            (m for m in s._masks() if m.bit_count() >= n_tr),
            key=lambda m: (m.bit_count(), m),
            default=None,
        )
        if v is None:
            break
        inner = assemble_localized(trace, v, window)
        inner_map = [gen_index(g) for g in inner.generators]
        r_v = Polynomial(True, -1, {(v,): 1}) * q_power(trace.q, inner.power) - inner.s
        a_max = max(m.count(v) for m in s.num)
        clear = q_power(trace.q, a_max * inner.power)
        new_rep: dict[int, Polynomial] = {}
        for idx, mult in rep.items():
            rep_add(new_rep, idx, mult * clear)
        new_s = Polynomial.zero_limit()
        for mono, c in s.terms.items():
            a = mono.count(v)
            base = Polynomial(
                True, -1, {tuple(w for w in mono if w != v): c}
            ) * q_power(trace.q, (a_max - a) * inner.power)
            new_s = new_s + base * q_power(inner.s, a)
            # cross terms: base * ((s_v + R_v)^a - s_v^a), all multiples of R_v
            for b in range(1, a + 1):
                coeff = base.scale(comb(a, b)) * q_power(inner.s, a - b) * q_power(r_v, b - 1)
                for j, m_inner in zip(inner_map, inner.certificate):
                    rep_add(new_rep, j, coeff * m_inner)
        s = new_s
        d += a_max * inner.power
        rep = new_rep
    if any(m.bit_count() > n_tr - 2 for m in s._masks()):
        raise StructureError("numerator keeps a high-filtration variable")
    lhs = Polynomial(True, -1, {(target_cmask,): 1}) * q_power(trace.q, d) - s
    expanded = Polynomial.zero_limit()
    for idx, mult in rep.items():
        expanded = expanded + mult * gens[idx]
    if expanded != lhs:
        raise StructureError("membership certificate does not reproduce the relation")
    certificate = tuple(
        rep.get(i, Polynomial.zero_limit()) for i in range(len(gens))
    )
    return LocalizedExpression(
        target=SpinVariable.limit(target_cmask),
        power=d,
        s=s,
        generators=tuple(gens),
        certificate=certificate,
    )


def ideal_membership(target: Polynomial, generators: list[Polynomial]) -> list[Polynomial] | None:
    """Exact membership in the span of monomial multiples of the generators
    up to the target degree; returns the multiplier list or None.

    The variable universe is restricted to the variables present in the
    inputs, which is sound for certificates produced by the constructions
    here (their multipliers never need fresh variables)."""
    if target.is_zero():
        return [Polynomial.zero_limit() for _ in generators]
    deg_t = target.degree()
    universe = sorted(target._masks().union(*[g._masks() for g in generators]))
    columns = []
    owners = []
    for gi, g in enumerate(generators):
        if g.is_zero():
            continue
        room = deg_t - g.degree()
        if room < 0:
            continue
        for d in range(room + 1):
            for mult in monomials_of_degree(universe, d):
                prod = Polynomial._ints(-1, {mult: 1}) * g
                columns.append(prod)
                owners.append((gi, mult))
    monos = sorted(set().union(target.num, *[c.num for c in columns]))
    a = [[col.terms.get(mn, Fraction(0)) for col in columns] for mn in monos]
    b = [target.terms.get(mn, Fraction(0)) for mn in monos]
    sol = linalg.solve(a, b)
    if sol is None:
        return None
    multipliers = [Polynomial.zero_limit() for _ in generators]
    for coef, (gi, mult) in zip(sol, owners):
        if coef:
            multipliers[gi] = multipliers[gi] + Polynomial(True, -1, {mult: coef})
    return multipliers


# -- the windowed duality pairing ----------------------------------------------


def gamma_windowed(finite_terms: dict[int, Fraction], limit_terms: dict[int, Fraction], window: int) -> Fraction:
    """Coefficient-of-everything pairing between a finite wedge (subset
    masks over the window) and a limit vector (complement masks); a mask of
    either map with a bit above the window raises IndexRangeError."""
    for terms in (finite_terms, limit_terms):
        if terms:
            _check_masks(False, window, min(terms), max(terms))
    total = Fraction(0)
    for s, a in finite_terms.items():
        b = limit_terms.get(s)
        if not b:
            continue
        # the sign of e_S wedge e_(complement) against the full window wedge:
        # (-1)^inv(S) for the pairs i in S, j not in S, j < i, which is
        # sign(S) (-1)^(k(k-1)/2), k = |S|
        k = s.bit_count()
        sign = tm._complement_sign(s) * (-1) ** (k * (k - 1) // 2)
        total += sign * a * b
    return total


def standard_gl_exp(a: int, b: int, t: Fraction, terms: dict[int, Fraction], window: int) -> dict[int, Fraction]:
    """exp(t E_ab) = I + t E_ab in the standard wedge action on subset masks
    (a != b, so E_ab squares to zero)."""
    if a == b:
        raise IndexRangeError("need a != b")
    v = sr.SpinVector(window, terms)
    moved = sr.rho_standard(sr.SoElement.basis_ef(window, a, b), v).scale(t)
    return dict((v + moved).terms)


def limit_standard_gl_exp(a: int, b: int, t: Fraction, limit_terms: dict[int, Fraction], window: int) -> dict[int, Fraction]:
    """The same unipotent acting on limit vectors via complements (the
    positions of indices <= window agree with the finite picture)."""
    if limit_terms:
        _check_masks(False, window, min(limit_terms), max(limit_terms))
    full = (1 << window) - 1
    finite = {full & ~cm: c for cm, c in limit_terms.items()}
    moved = standard_gl_exp(a, b, t, finite, window)
    return {full & ~sm: c for sm, c in moved.items()}
