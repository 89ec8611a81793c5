"""Polynomials on spin coordinates, discovery of the level-4 quadric,
pullback families certifying cone membership at higher levels, and the
derivation-based degree-lowering machinery on limit-level polynomials."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

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


@dataclass(frozen=True, order=True)
class SpinVariable:
    """A coordinate on a spin space.

    Finite level: `mask` is the subset S of {1..level}.  Limit level
    (level None): `mask` is the finite complement of the cofinite index
    set, and popcount(mask) is the filtration degree.
    """

    is_limit: bool
    level: int
    mask: int

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
        return bin(self.mask).count("1")

    def indices(self) -> list[int]:
        return [i + 1 for i in range(self.mask.bit_length()) if self.mask >> i & 1]

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in self.indices())
        return f"x[~{inner}]" if self.is_limit else f"x[{inner}]"

    __repr__ = __str__


Monomial = tuple[SpinVariable, ...]


class Polynomial:
    """Sparse polynomial over spin variables, all at one finite level or all
    at the limit level."""

    __slots__ = ("is_limit", "level", "terms", "_parities")

    def __init__(self, is_limit: bool, level: int, terms: dict[Monomial, Fraction] | None = None):
        self.is_limit = is_limit
        self.level = level
        self.terms: dict[Monomial, Fraction] = {}
        self._parities: frozenset[int] | None = None
        if terms:
            for mono, c in terms.items():
                c = c if isinstance(c, Fraction) else Fraction(c)
                if not c:
                    continue
                for v in mono:
                    if v.is_limit != is_limit:
                        raise LevelMismatchError("variable level kind mismatch")
                    if not is_limit and v.level != level:
                        raise LevelMismatchError("variable level mismatch")
                cc._accumulate(self.terms, tuple(sorted(mono)), c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero_finite(level: int) -> "Polynomial":
        return Polynomial(False, level)

    @staticmethod
    def zero_limit() -> "Polynomial":
        return Polynomial(True, -1)

    @staticmethod
    def variable(v: SpinVariable) -> "Polynomial":
        return Polynomial(v.is_limit, v.level, {(v,): Fraction(1)})

    @staticmethod
    def constant_finite(level: int, c) -> "Polynomial":
        return Polynomial(False, level, {(): Fraction(c)})

    # -- ring operations ----------------------------------------------------

    def _like(self, terms) -> "Polynomial":
        return Polynomial(self.is_limit, self.level, terms)

    def _check(self, other: "Polynomial") -> None:
        if (self.is_limit, self.level) != (other.is_limit, other.level):
            raise LevelMismatchError("polynomial levels differ")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            cc._accumulate(out, m, c)
        return self._like(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return self._like({})
        return self._like({m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(sorted(m1 + m2))
                cc._accumulate(out, key, c1 * c2)
        return self._like(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and (self.is_limit, self.level) == (other.is_limit, other.level)
            and self.terms == other.terms
        )

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len({len(m) for m in self.terms}) <= 1

    def variables(self) -> set[SpinVariable]:
        out: set[SpinVariable] = set()
        for m in self.terms:
            out.update(m)
        return out

    def _variable_parities(self) -> frozenset[int]:
        """The parities |S| mod 2 of the variables x_S that occur, found on
        the first call: a polynomial's terms do not change after it is built."""
        if self._parities is None:
            self._parities = frozenset(v.mask.bit_count() % 2 for v in self.variables())
        return self._parities

    def partial(self, v: SpinVariable) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            k = mono.count(v)
            if not k:
                continue
            rest = list(mono)
            rest.remove(v)
            key = tuple(rest)
            cc._accumulate(out, key, k * c)
        return self._like(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            if mono:
                factors = []
                i = 0
                while i < len(mono):
                    j = i
                    while j < len(mono) and mono[j] == mono[i]:
                        j += 1
                    factors.append(
                        str(mono[i]) if j - i == 1 else f"{mono[i]}^{j - i}"
                    )
                    i = j
                body = "*".join(factors)
            else:
                body = "1"
            parts.append(f"{self.terms[mono]}*{body}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- level conversion ----------------------------------------------------

    def to_limit(self) -> "Polynomial":
        """Reinterpret at the limit level.

        A finite variable reading coordinate mask S is the limit variable
        with complement S: the coordinate masks are stable along the
        contraction tower, so the correspondence is mask-for-mask."""
        if self.is_limit:
            return self
        out = {}
        for mono, c in self.terms.items():
            out[tuple(sorted(SpinVariable.limit(v.mask) for v in mono))] = c
        return Polynomial(True, -1, out)

    def to_finite(self, level: int) -> "Polynomial":
        full = (1 << level) - 1
        if not self.is_limit:
            if self.level == level:
                return self
            raise LevelMismatchError("already at a different finite level")
        out = {}
        for mono, c in self.terms.items():
            for v in mono:
                if v.mask & ~full:
                    raise IndexRangeError("truncation too small for a variable")
            out[tuple(sorted(SpinVariable.finite(level, v.mask) for v in mono))] = c
        return Polynomial(False, level, out)


def eval_poly(p: Polynomial, x: sr.SpinVector) -> Fraction:
    """Exact evaluation of a finite-level polynomial at a spin vector."""
    if p.is_limit:
        raise LevelMismatchError("evaluate limit polynomials through to_finite")
    if p.level != x.n:
        raise LevelMismatchError(f"levels differ: {p.level} vs {x.n}")
    x_pars = {m.bit_count() % 2 for m in x.terms}
    if len(p._variable_parities() | x_pars) > 1:
        raise LevelMismatchError("parity mismatch between polynomial and point")
    total = Fraction(0)
    for mono, c in p.terms.items():
        val = c
        for v in mono:
            val *= x.coefficient(v.mask)
            if not val:
                break
        total += val
    return total


def component_variables(n: int, component: str = "even") -> list[SpinVariable]:
    """Coordinates of the chosen half-spin component at level n.

    'even' means even subset size |S|: the contraction tower preserves
    subset masks, so this labeling is stable across levels."""
    want = 0 if component == "even" else 1
    return [
        SpinVariable.finite(n, m)
        for m in range(1 << n)
        if bin(m).count("1") % 2 == want
    ]


def monomials_of_degree(variables: list[SpinVariable], d: int) -> list[Monomial]:
    return [tuple(sorted(c)) for c in combinations_with_replacement(sorted(variables), d)]


def vanishing_forms(points: list[sr.SpinVector], degree: int, component: str = "even") -> list[Polynomial]:
    """Canonical basis of the degree-d forms vanishing on all given points.

    Exact nullspace of the evaluation matrix; raises if there are fewer
    points than monomials (the result would be meaningless)."""
    if not points:
        raise TooFewPointsError("no points supplied")
    n = points[0].n
    if any(x.n != n for x in points):
        raise LevelMismatchError("points live at different levels")
    variables = component_variables(n, component)
    monos = monomials_of_degree(variables, degree)
    if len(points) < len(monos):
        raise TooFewPointsError(
            f"need at least {len(monos)} points for {len(monos)} monomials, got {len(points)}"
        )
    matrix = []
    for x in points:
        row = []
        for mono in monos:
            val = Fraction(1)
            for v in mono:
                val *= x.coefficient(v.mask)
                if not val:
                    break
            row.append(val)
        matrix.append(row)
    kernel = linalg.nullspace(matrix)
    forms = []
    for coeffs in kernel:
        terms = {monos[i]: c for i, c in enumerate(coeffs) if c}
        forms.append(Polynomial(False, n, terms))
    return forms


def cone_points(n: int, seed, count: int, component: str = "even") -> list[sr.SpinVector]:
    return [
        gc.sample_cone_point(n, f"{seed}:{i}", component=component, length=10)
        for i in range(count)
    ]


def stable_vanishing_forms(
    n: int,
    degree: int,
    seed,
    component: str = "even",
    factor: int = 3,
    max_rounds: int = 3,
) -> tuple[list[Polynomial], dict]:
    """Discovery with the two-seed stationarity stopping rule.

    Samples factor * (monomial count) cone points under two independent
    seed streams; accepts when both runs agree and each basis vanishes on
    the other run's points.  The provenance records seeds and counts."""
    variables = component_variables(n, component)
    base = len(monomials_of_degree(variables, degree))
    count = factor * base
    for round_no in range(max_rounds):
        pts_a = cone_points(n, f"vf:{seed}:a{round_no}", count, component)
        pts_b = cone_points(n, f"vf:{seed}:b{round_no}", count, component)
        forms_a = vanishing_forms(pts_a, degree, component)
        forms_b = vanishing_forms(pts_b, degree, component)
        cross_ok = all(
            eval_poly(f, x) == 0 for f in forms_a for x in pts_b
        ) and all(eval_poly(f, x) == 0 for f in forms_b for x in pts_a)
        if len(forms_a) == len(forms_b) and cross_ok:
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


def _primitive_normal(p: Polynomial) -> Polynomial:
    """Scale to integer coefficients with content 1 and positive leading term."""
    if p.is_zero():
        return p
    from math import gcd

    dens = 1
    for c in p.terms.values():
        dens = dens * c.denominator // gcd(dens, c.denominator)
    nums = [int(c * dens) for c in p.terms.values()]
    g = 0
    for v in nums:
        g = gcd(g, abs(v))
    lead = p.terms[min(p.terms)]
    sign = -1 if lead < 0 else 1
    return p.scale(Fraction(sign * dens, g))


def beta_norm_quadric(n: int, component: str = "even") -> Polynomial:
    """The quadratic form x -> beta(x, x) restricted to one component."""
    gram = tm.beta_gram(n)
    variables = component_variables(n, component)
    terms: dict[Monomial, Fraction] = {}
    for a, va in enumerate(variables):
        for vb in variables[a:]:
            g = gram[va.mask][vb.mask]
            g2 = gram[vb.mask][va.mask]
            coeff = g + g2 if va != vb else g
            if coeff:
                key = tuple(sorted((va, vb)))
                terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(False, n, terms)


def _proportional_polys(p: Polynomial, q: Polynomial) -> bool:
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    k = next(iter(p.terms))
    r = p.terms[k] / q.terms[k]
    return all(p.terms[m] == r * q.terms[m] for m in p.terms)


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
    if not _proportional_polys(quad, beta_norm_quadric(4)):
        raise DiscoveryError("discovered quadric is not the pairing norm")
    return quad


# -- linear maps and pullback --------------------------------------------------


def pullback(p: Polynomial, lm: sr.LinearOperator) -> Polynomial:
    """(pullback p)(x) = p(L x); degree is preserved."""
    if p.is_limit:
        raise LevelMismatchError("pullback works on finite-level polynomials")
    if p.level != lm.target_n:
        raise LevelMismatchError("polynomial level must match the map target")
    if not p.is_homogeneous():
        raise SpinalgError("pullback expects a homogeneous polynomial")
    # linear form (in source variables) of each target variable
    rows: dict[int, dict[SpinVariable, Fraction]] = {}
    for src_mask, col in lm.cols.items():
        sv = SpinVariable.finite(lm.source_n, src_mask)
        for tgt_mask, c in col.terms.items():
            rows.setdefault(tgt_mask, {})[sv] = c
    out = Polynomial.zero_finite(lm.source_n)
    for mono, c in p.terms.items():
        piece = Polynomial.constant_finite(lm.source_n, c)
        for v in mono:
            form = Polynomial(
                False,
                lm.source_n,
                {(w,): val for w, val in rows.get(v.mask, {}).items()},
            )
            piece = piece * form
            if piece.is_zero():
                break
        out = out + piece
    return out


@dataclass(frozen=True)
class FamilyMember:
    g: sr.GroupElement
    level_map: sr.LinearOperator
    quadric: Polynomial


@dataclass(frozen=True)
class PullbackFamily:
    n: int
    seed: str
    members: tuple[FamilyMember, ...]

    def serialize(self) -> dict:
        """Replayable description: the seed plus every group word."""
        return {
            "level": self.n,
            "seed": self.seed,
            "words": [m.g.serialize() for m in self.members],
        }


def orbit_pullback_family(n: int, seed, count: int, length: int = 10) -> PullbackFamily:
    """count pullbacks of the level-4 quadric along contraction-after-group
    maps with seeded random group elements; deterministic in the seed."""
    if n < 4:
        raise IndexRangeError("pullback families need level >= 4")
    base = i4_quadric()
    members = []
    pi_map = sr.LinearOperator.of_contraction(n, 4)
    for i in range(count):
        if i == 0:
            g = sr.GroupElement.identity(n)
        else:
            g = sr.random_group_element(n, f"family:{seed}:{i}", length)
        lm = pi_map.compose(sr.LinearOperator.of_group_element(g))
        quad = pullback(base, lm)
        if not (quad.is_homogeneous() and quad.degree() in (0, 2)):
            raise StructureError("pulled-back form is not homogeneous quadratic")
        members.append(FamilyMember(g, lm, quad))
    return PullbackFamily(n, str(seed), tuple(members))


@dataclass(frozen=True)
class MembershipVerdict:
    passes: bool
    witness_index: int | None
    witness_word: tuple | None
    witness_value: Fraction | None


def certify_membership(x: sr.SpinVector, family: PullbackFamily) -> MembershipVerdict:
    """x passes iff every pulled-back form vanishes at x.

    Evaluation goes through the factored map (value of the level-4 quadric
    at the mapped point), which equals evaluating the stored pullback."""
    if not family.members:
        raise SpinalgError("empty family cannot certify")
    if x.n != family.n:
        raise LevelMismatchError("levels differ")
    base = i4_quadric()
    for idx, member in enumerate(family.members):
        y = member.level_map.apply(x)
        val = eval_poly(base, y) if not y.is_zero() else Fraction(0)
        if val != 0:
            return MembershipVerdict(False, idx, tuple(member.g.serialize()), val)
    return MembershipVerdict(True, None, None, None)


def off_cone_sample(n: int, seed, component: str = "even", bound: int = 3) -> sr.SpinVector:
    """Rejection-sample a non-pure vector with small integer coordinates."""
    rng = random.Random(f"offcone:{n}:{seed}")
    variables = component_variables(n, component)
    while True:
        terms = {
            v.mask: Fraction(rng.randint(-bound, bound)) for v in variables
        }
        x = sr.SpinVector(n, terms)
        if x.is_zero():
            continue
        if gc.is_pure(x).kind == "not_pure":
            return x


# -- derivations on limit-level polynomials -----------------------------------


def _limit_variable_action(x: sr.SoElement, v: SpinVariable, window: int) -> tuple[Fraction, SpinVariable] | None:
    """Action of a two-form on one limit variable, computed by the finite
    oracle at the window level; returns (scalar, new variable) or None."""
    full = (1 << window) - 1
    if v.mask & ~full:
        raise IndexRangeError("truncation too small for the variable")
    s_mask = full & ~v.mask
    img = sr.rho_so(x, sr.SpinVector.basis(window, s_mask))
    if img.is_zero():
        return None
    if len(img.terms) != 1:
        raise StructureError("two-form action is not monomial on a variable")
    ((m2, c),) = img.terms.items()
    return c, SpinVariable.limit(full & ~m2)


def _derive(x: sr.SoElement, p: Polynomial, window: int) -> Polynomial:
    """Leibniz extension of the variable action to limit polynomials."""
    if not p.is_limit:
        raise LevelMismatchError("derivations act on limit-level polynomials")
    out = Polynomial.zero_limit()
    for mono, c in p.terms.items():
        for pos in range(len(mono)):
            acted = _limit_variable_action(x, mono[pos], window)
            if acted is None:
                continue
            scalar, new_var = acted
            new_mono = tuple(sorted(mono[:pos] + (new_var,) + mono[pos + 1 :]))
            out = out + Polynomial(True, -1, {new_mono: c * scalar})
    return out


def derivation_ff(i: int, j: int, p: Polynomial, window: int) -> Polynomial:
    """Derivation action of f_i^f_j; raises each complement size by 2.

    The per-variable scalar (including its factor 2 and sign) comes from
    the finite-level oracle, never from a closed-form convention."""
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
    variables = p.variables()
    for v in variables:
        if v.mask & ~full:
            raise IndexRangeError("truncation too small for the polynomial")
    k = max(v.filtration for v in variables)
    if window % 2 or window < k + 2:
        raise IndexRangeError("window must be even and at least k + 2")
    main = min((v for v in variables if v.filtration == k), key=lambda v: v.mask)
    q = p.partial(main)
    ell = (window - k) // 2
    steps: list[LoweringStep] = []
    cur = p
    cur_var = main
    scalar = Fraction(1)
    for _ in range(ell):
        cmask = cur_var.mask
        pair = []
        i = 1
        while len(pair) < 2:
            if not cmask >> (i - 1) & 1:
                pair.append(i)
            i += 1
        i1, i2 = pair
        acted = _limit_variable_action(
            sr.SoElement.basis_ff(window, i1, i2), cur_var, window
        )
        if acted is None:
            raise StructureError("main variable died under its own pair")
        step_scalar, new_var = acted
        cur = derivation_ff(i1, i2, cur, window)
        scalar *= step_scalar
        cur_var = new_var
        steps.append(LoweringStep((i1, i2), step_scalar, cur))
    top = SpinVariable.limit(full)
    if ell > 0 and cur_var != top:
        raise StructureError("main chain did not reach the full-window variable")
    if ell == 0:
        top = cur_var
    remainder = cur - (Polynomial.variable(top) * q).scale(scalar)
    for v in remainder.variables():
        if v.filtration >= window and ell > 0:
            raise StructureError(
                "remainder keeps a variable of maximal complement size"
            )
    if q.degree() != p.degree() - 1 and not q.is_zero():
        raise StructureError("derivative degree is off")
    return LoweringTrace(
        start=p,
        window=window,
        main_var=main,
        k=k,
        ell=ell,
        steps=tuple(steps),
        q=q,
        scalar=scalar,
        top_var=top,
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
    m = bin(target_cmask).count("1")
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
    cur_var = trace.top_var
    scalar = trace.scalar
    power = 1
    q = trace.q
    # phase one: (n+1, n+2), ..., (m-1, m)
    t = n_tr + 1
    while t < m:
        i1, i2 = t, t + 1
        acted = _limit_variable_action(
            sr.SoElement.basis_ff(window, i1, i2), cur_var, window
        )
        if acted is None:
            raise StructureError("main variable died while extending")
        step_scalar, cur_var = acted
        cur = derivation_ff(i1, i2, cur, window)
        generators.append(cur)
        scalar *= step_scalar
        t += 2
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
        acted = _limit_variable_action(
            sr.SoElement.basis_ef(window, i, j), cur_var, window
        )
        if acted is None:
            raise StructureError("main variable died under a gl move")
        move_scalar, new_var = acted
        dq = derivation_ef(i, j, q, window)
        dcur = derivation_ef(i, j, cur, window)
        generators.append(dcur)
        if dq.is_zero():
            cur = dcur
            scalar *= move_scalar
        else:
            # q * D(cur) - power * D(q) * cur keeps the main shape, power + 1
            cur = q * dcur - dq.scale(power) * cur
            scalar *= move_scalar
            power += 1
            generators.append(cur)
        cur_var = new_var
    if cur_var != SpinVariable.limit(target_cmask):
        raise StructureError("moves did not reach the target variable")
    main_part = (Polynomial.variable(cur_var) * q_power(q, power)).scale(scalar)
    remainder = cur - main_part
    for v in remainder.variables():
        if v.filtration >= m:
            raise StructureError("solving element keeps a high variable")
    return SolvingElement(
        target=cur_var,
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


def _binomial(a: int, b: int) -> int:
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


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
        high = sorted(
            (v for v in s.variables() if v.filtration >= n_tr),
            key=lambda v: (v.filtration, v.mask),
            reverse=True,
        )
        if not high:
            break
        v = high[0]
        inner = assemble_localized(trace, v.mask, window)
        inner_map = [gen_index(g) for g in inner.generators]
        r_v = (
            Polynomial.variable(v) * q_power(trace.q, inner.power) - inner.s
        )
        a_max = max(m.count(v) for m in s.terms)
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
                coeff = base.scale(_binomial(a, b)) * q_power(inner.s, a - b) * q_power(r_v, b - 1)
                for j, m_inner in zip(inner_map, inner.certificate):
                    rep_add(new_rep, j, coeff * m_inner)
        s = new_s
        d += a_max * inner.power
        rep = new_rep
    for v in s.variables():
        if v.filtration > n_tr - 2:
            raise StructureError("numerator keeps a high-filtration variable")
    target_var = SpinVariable.limit(target_cmask)
    lhs = Polynomial.variable(target_var) * q_power(trace.q, d) - s
    expanded = Polynomial.zero_limit()
    for idx, mult in rep.items():
        expanded = expanded + mult * gens[idx]
    if expanded != lhs:
        raise StructureError("membership certificate does not reproduce the relation")
    certificate = tuple(
        rep.get(i, Polynomial.zero_limit()) for i in range(len(gens))
    )
    return LocalizedExpression(
        target=target_var,
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
    universe = sorted(target.variables() | set().union(*[g.variables() for g in generators]))
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
                prod = Polynomial(True, -1, {mult: Fraction(1)}) * g
                columns.append(prod)
                owners.append((gi, mult))
    monos = sorted(set().union(set(target.terms), *[set(c.terms) for c in columns]))
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
    masks over the window) and a limit vector (complement masks)."""
    full = (1 << window) - 1
    total = Fraction(0)
    for s_mask, a in finite_terms.items():
        b = limit_terms.get(s_mask)
        if not b:
            continue
        # the sign of e_S wedge e_(complement) against the full window wedge
        letters = [(cc._wedge(s),) for s in range(window) if s_mask >> s & 1]
        sign = cc._apply_words([(1, letters)], {full & ~s_mask: Fraction(1)})[full]
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
    full = (1 << window) - 1
    finite = {full & ~cm: c for cm, c in limit_terms.items()}
    moved = standard_gl_exp(a, b, t, finite, window)
    return {full & ~sm: c for sm, c in moved.items()}
