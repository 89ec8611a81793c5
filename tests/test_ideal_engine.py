"""Polynomials on spin coordinates: discovery, pullback certification,
derivations, and the degree-lowering machinery."""

import hashlib
import json
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import suites
from spinalg import transfer_maps as tm
from spinalg.errors import (
    DiscoveryError,
    IndexRangeError,
    LevelMismatchError,
    SpinalgError,
    StructureError,
    TooFewPointsError,
)

from conftest import (
    cone_query_points,
    make_rng,
    oracle_certify,
    oracle_gamma_windowed,
    oracle_level_maps,
    oracle_pullback_rows,
    oracle_vanishing_forms,
    random_spin,
    word_rows,
)


def var_f(n, *idx):
    mask = 0
    for i in idx:
        mask |= 1 << (i - 1)
    return ie.SpinVariable.finite(n, mask)


def var_l(*idx):
    mask = 0
    for i in idx:
        mask |= 1 << (i - 1)
    return ie.SpinVariable.limit(mask)


class TestPolynomials:
    def test_eval_examples(self):
        p = ie.Polynomial.constant_finite(2, Fraction(5))
        assert ie.eval_poly(p, sr.SpinVector.basis(2, 0)) == 5
        coord = ie.Polynomial.variable(var_f(2, 1, 2))
        assert ie.eval_poly(coord, sr.SpinVector.basis(2, [1, 2])) == 1

    def test_eval_level_and_parity_errors(self):
        coord = ie.Polynomial.variable(var_f(2, 1, 2))
        with pytest.raises(LevelMismatchError):
            ie.eval_poly(coord, sr.SpinVector.basis(3, [1, 2]))
        with pytest.raises(LevelMismatchError):
            ie.eval_poly(coord, sr.SpinVector.basis(2, [1]))

    def test_parity_mismatch_raises_after_a_matching_point(self):
        # the polynomial's variable parity is found once; a later point of the
        # other parity must still be refused
        p = ie.Polynomial.variable(var_f(3, 1, 2)) * ie.Polynomial.variable(var_f(3))
        assert ie.eval_poly(p, sr.SpinVector(3, {0b011: 2, 0: 3})) == 6
        for _ in range(2):
            with pytest.raises(LevelMismatchError):
                ie.eval_poly(p, sr.SpinVector(3, {0b001: 1}))
            with pytest.raises(LevelMismatchError):
                ie.eval_poly(p, sr.SpinVector(3, {0b011: 1, 0b100: 1}))
        assert ie.eval_poly(p, sr.SpinVector(3, {0b011: 1})) == 0
        mixed = ie.Polynomial.variable(var_f(3, 1)) + ie.Polynomial.variable(var_f(3))
        for point in (sr.SpinVector(3, {0: 1}), sr.SpinVector(3, {0b001: 1}), sr.SpinVector(3, {})):
            with pytest.raises(LevelMismatchError):
                ie.eval_poly(mixed, point)

    def test_keys_sorting_to_one_monomial_add_up(self):
        a, b = var_f(2, 1).mask, var_f(2, 2).mask
        p = ie.Polynomial(False, 2, {(a, b): 1, (b, a): 1})
        assert str(p) == "2*x[1]*x[2]"
        assert ie.Polynomial(False, 2, {(a, b): 1, (b, a): -1}).is_zero()

    def test_finite_mask_outside_level_rejected(self):
        # index 8 does not exist at level 2
        with pytest.raises(IndexRangeError):
            ie.Polynomial.variable(ie.SpinVariable.finite(2, 0b1 | 1 << 7))
        with pytest.raises(IndexRangeError):
            ie.Polynomial(False, 2, {(0b1, 1 << 7): 1})
        with pytest.raises(IndexRangeError):
            ie.Polynomial(False, 2, {(-1,): 1})
        assert str(ie.Polynomial(False, 2, {(0b11, 0): 1})) == "1*x[]*x[1,2]"

    def test_negative_limit_mask_rejected(self):
        with pytest.raises(IndexRangeError):
            ie.SpinVariable.limit(-1)
        with pytest.raises(IndexRangeError):
            ie.Polynomial(True, -1, {(0b11, -1): 1})
        assert str(ie.Polynomial(True, -1, {(1 << 40,): 1})) == "1*x[~41]"

    def test_partial_by_variable_of_other_level_rejected(self):
        p = ie.Polynomial.variable(var_f(2, 1, 2)) * ie.Polynomial.variable(var_f(2))
        for v in (var_f(3, 1, 2), var_l(1, 2), var_l()):
            with pytest.raises(LevelMismatchError):
                p.partial(v)
        with pytest.raises(LevelMismatchError):
            p.to_limit().partial(var_f(2, 1, 2))
        assert p.partial(var_f(2)) == ie.Polynomial.variable(var_f(2, 1, 2))

    def test_ring_operations(self, rng):
        x = ie.Polynomial.variable(var_f(2, 1, 2))
        y = ie.Polynomial.variable(var_f(2))
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.degree() == 2 and p.is_homogeneous()
        assert p.partial(var_f(2, 1, 2)) == x.scale(2)

    def test_serialization(self):
        p = ie.Polynomial(
            False, 2, {(var_f(2).mask, var_f(2, 1, 2).mask): Fraction(1, 2)}
        )
        assert str(p) == "1/2*x[]*x[1,2]"
        q = ie.Polynomial(True, -1, {(var_l(1, 2).mask, var_l(1, 2).mask): Fraction(-1)})
        assert str(q) == "-1*x[~1,2]^2"

    def test_limit_conversion_is_mask_stable(self):
        p = ie.Polynomial.variable(var_f(4, 1, 2))
        lim = p.to_limit()
        assert lim == ie.Polynomial.variable(var_l(1, 2))
        assert lim.to_finite(6) == ie.Polynomial.variable(var_f(6, 1, 2))
        with pytest.raises(IndexRangeError):  # the truncation must hold index 6
            ie.Polynomial.variable(var_l(1, 6)).to_finite(5)


class TestVanishingForms:
    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            ie.vanishing_forms([sr.SpinVector.basis(4, 0)], 2)

    def test_odd_coordinate_rejected(self):
        with pytest.raises(LevelMismatchError, match="odd"):
            ie.vanishing_forms([sr.SpinVector(3, {1: 1})] * 20, 1)
        points = [sr.SpinVector.omega0(4)] * 40 + [sr.SpinVector(4, {0: 1, 7: Fraction(1, 2)})]
        with pytest.raises(LevelMismatchError, match="odd"):
            ie.vanishing_forms(points, 2)

    @pytest.mark.parametrize("degree", [-1, -4])
    def test_negative_degree_rejected(self, degree):
        with pytest.raises(IndexRangeError, match=f"degree {degree}"):
            ie.vanishing_forms([sr.SpinVector.omega0(4)] * 40, degree)
        with pytest.raises(IndexRangeError, match=f"degree {degree}"):
            ie.stable_vanishing_forms(4, degree, "negative")

    @pytest.mark.parametrize(
        "n,degree,drop", [(3, 1, True), (3, 2, True), (3, 3, True), (4, 1, True), (4, 2, True), (4, 2, False)]
    )
    def test_matches_fraction_oracle(self, n, degree, drop):
        # cone points scaled by fractions, and a zero point; with drop, the
        # points lose the coordinate of mask 3, so the kernel holds every
        # monomial in it whatever the cone's equations
        rng = make_rng(f"vf-oracle:{n}:{degree}:{drop}")
        count = len(ie.monomials_of_degree(ie.component_variables(n), degree)) + 5
        points = [sr.SpinVector.zero(n)]
        for k in range(count):
            x = gc.sample_cone_point(n, f"vf-oracle:{n}:{k}", length=4)
            x = x.scale(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12)))
            if drop:
                x = sr.SpinVector(n, {m: c for m, c in x.terms.items() if m != 3})
            points.append(x)
        forms = ie.vanishing_forms(points, degree)
        assert forms
        expected = oracle_vanishing_forms(points, degree)
        assert [list(f.terms.items()) for f in forms] == [list(f.terms.items()) for f in expected]

    def test_generic_points_have_no_forms(self, rng):
        n = 3
        monos = ie.monomials_of_degree(ie.component_variables(n), 2)
        pts = [random_spin(n, rng, "even") for _ in range(3 * len(monos))]
        assert ie.vanishing_forms(pts, 2) == []

    def test_cone_slice_at_level_four(self):
        forms, prov = ie.stable_vanishing_forms(4, 2, "t-slice")
        assert len(forms) == 1
        assert prov["dimension"] == 1

    @pytest.mark.parametrize(
        "n,degree,points,dimension", [(3, 2, 30, 0), (4, 1, 24, 0), (4, 2, 108, 1)]
    )
    def test_discovery_provenance(self, n, degree, points, dimension):
        forms, prov = ie.stable_vanishing_forms(n, degree, "prov")
        assert prov == {
            "level": n,
            "degree": degree,
            "seed": "prov",
            "points_per_stream": points,
            "rounds": 1,
            "dimension": dimension,
        }
        assert len(forms) == dimension

    def test_integer_cross_check_matches_evaluation(self):
        # forms scaled by fractions, vanishing or not, at cone points scaled
        # by fractions, dense points with denominators and the zero point
        rng = make_rng("cross-check")
        quad = ie.i4_quadric()
        x13, x24 = ie.Polynomial.variable(var_f(4, 1, 3)), ie.Polynomial.variable(var_f(4, 2, 4))
        forms = [quad.scale(Fraction(-3, 7)), quad + (x13 * x24).scale(Fraction(1, 5)), (x13 * x24).scale(Fraction(2, 9))]
        points = [gc.sample_cone_point(4, f"cc:{k}", length=6).scale(Fraction(rng.randint(1, 9), rng.randint(1, 12))) for k in range(6)]
        points += [sr.SpinVector(4, {m: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for m in ie.component_variables(4)}) for _ in range(3)]
        points += [sr.SpinVector.zero(4), sr.SpinVector(4, {3: Fraction(1, 2)})]
        for f in forms:
            for x in points:
                assert ie._vanish([f], [x]) == (ie.eval_poly(f, x) == 0)
        assert ie._vanish(forms[:1], points[:6]) and not ie._vanish(forms, points)

    def test_discovery_that_never_agrees_raises(self, monkeypatch):
        # a form that misses every point fails the cross-check in every round
        monkeypatch.setattr(ie, "cone_points", lambda n, seed, count: [sr.SpinVector.omega0(4)] * count)
        monkeypatch.setattr(ie, "vanishing_forms", lambda points, degree: [ie.Polynomial.variable(var_f(4, 1, 2, 3, 4))])
        with pytest.raises(DiscoveryError, match="did not stabilize at level 4, degree 2"):
            ie.stable_vanishing_forms(4, 2, "never")

    def test_quadric_is_frozen_and_norm_proportional(self):
        quad = ie.i4_quadric()
        expect = (
            ie.Polynomial.variable(var_f(4)) * ie.Polynomial.variable(var_f(4, 1, 2, 3, 4))
            - ie.Polynomial.variable(var_f(4, 1, 2)) * ie.Polynomial.variable(var_f(4, 3, 4))
            + ie.Polynomial.variable(var_f(4, 1, 3)) * ie.Polynomial.variable(var_f(4, 2, 4))
            - ie.Polynomial.variable(var_f(4, 2, 3)) * ie.Polynomial.variable(var_f(4, 1, 4))
        )
        assert quad == expect
        norm = ie.beta_norm_quadric(4)
        assert cc._proportional(quad.terms, norm.terms)

    def test_quadric_ratio_on_samples(self):
        quad = ie.i4_quadric()
        rng = make_rng("ratio")
        ratio = None
        for _ in range(20):
            x = random_spin(4, rng, "even")
            qv = ie.eval_poly(quad, x)
            bv = tm.beta(x, x)
            if qv == 0:
                assert bv == 0
                continue
            r = bv / qv
            ratio = r if ratio is None else ratio
            assert r == ratio

    def test_quadric_vanishes_on_cone(self):
        quad = ie.i4_quadric()
        for t in range(10):
            x = gc.sample_cone_point(4, f"qv:{t}", length=10)
            assert ie.eval_poly(quad, x) == 0


class TestPullback:
    def test_identity_map(self):
        p = ie.i4_quadric()
        assert ie.pullback(p, sr.LinearOperator.identity(4)) == p

    def test_contraction_structure(self):
        p = ie.i4_quadric()
        lm = sr.LinearOperator.of_contraction(5, 4)
        pulled = ie.pullback(p, lm)
        for v in pulled.variables():
            assert not v.mask >> 4, "no variable may touch the top index"

    def test_evaluation_identity(self, rng):
        p = ie.i4_quadric()
        g = sr.random_group_element(5, "pbe", 6)
        lm = sr.LinearOperator.of_contraction(5, 4).compose(
            sr.LinearOperator.of_group_element(g)
        )
        pulled = ie.pullback(p, lm)
        for _ in range(10):
            x = random_spin(5, rng, "even")
            assert ie.eval_poly(pulled, x) == ie.eval_poly(p, lm.apply(x))

    def test_functoriality(self):
        p = ie.i4_quadric()
        g = sr.random_group_element(5, "pbf", 5)
        lm_inner = sr.LinearOperator.of_group_element(g)
        lm_outer = sr.LinearOperator.of_contraction(5, 4)
        combined = lm_outer.compose(lm_inner)
        assert ie.pullback(ie.pullback(p, lm_outer), lm_inner) == ie.pullback(
            p, combined
        )


    def test_source_mask_out_of_range_rejected(self):
        # source mask 16 does not exist at level 4
        col = sr.SpinVector.basis(4, 0b0011) + sr.SpinVector.basis(4, 0b1100)
        with pytest.raises(IndexRangeError):
            ie.pullback(ie.i4_quadric(), sr.LinearOperator(4, 4, {16: col}))


def random_rows(rng, targets, n):
    """Sparse integer rows over the level-n masks, a quarter of the targets
    missing; entries in -3..3, so that products cancel now and then."""
    rows = {}
    for t in targets:
        row = {s: rng.choice([-3, -2, -1, 1, 2, 3]) for s in range(1 << n) if rng.random() < 0.4}
        if row and rng.random() > 0.25:
            rows[t] = row
    return rows


def random_form(rng, masks, degree):
    """A homogeneous form of the degree on the masks, with 1..5 terms."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.choice(masks) for _ in range(degree))
        terms[mono] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 8))
    return ie.Polynomial(False, 4, terms)


class TestPullbackRows:
    """_pullback_rows against oracle_pullback_rows, the routine as first
    written: equal polynomials, whatever the degree."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_matches_oracle(self, degree):
        rng = make_rng(f"pullback-rows:{degree}")
        targets = ie.component_variables(4)
        for n in (2, 4, 5):
            for _ in range(8):
                p = random_form(rng, targets, degree)
                rows, den = random_rows(rng, targets, n), rng.randint(1, 6)
                assert ie._pullback_rows(p, rows, den, n) == oracle_pullback_rows(p, rows, den, n)

    @pytest.mark.parametrize("degrees", [(2,), (2, 2), (1, 2), (0, 2, 3), (3,)])
    def test_pullback_ints_match_oracle(self, degrees):
        # the symmetric picks against the oracle, on integer coefficients
        rng = make_rng(f"pullback-ints:{degrees}")
        targets = ie.component_variables(4)
        for n in (2, 4, 5):
            for _ in range(8):
                monos = [m for d in degrees for m in random_form(rng, targets, d).terms]
                p = ie.Polynomial(False, 4, {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9)) for m in monos})
                coefs = {m: c.numerator for m, c in p.terms.items()}
                rows = random_rows(rng, targets, n)
                got = ie._pullback_ints(coefs, rows)
                want = oracle_pullback_rows(p, rows, 1, n)
                assert {k: Fraction(v) for k, v in got.items() if v} == want.terms

    def test_cancelling_terms(self):
        a, b, c = 0b0011, 0b1100, 0b0101
        rows = {a: {1: 2, 2: -1}, b: {1: 2, 2: -1}, c: {3: 5}}
        # r_a^2 - r_a r_b is zero, and r_a r_c is all that is left of the second
        for terms in ({(a, a): 1, (a, b): -1}, {(a, a): 1, (a, b): -1, (a, c): Fraction(1, 3)}):
            p = ie.Polynomial(False, 4, terms)
            got = ie._pullback_rows(p, rows, 3, 2)
            assert got == oracle_pullback_rows(p, rows, 3, 2)
        assert ie._pullback_rows(ie.Polynomial(False, 4, {(a, a): 1, (a, b): -1}), rows, 3, 2).is_zero()
        assert got.terms == {(1, 3): Fraction(10, 27), (2, 3): Fraction(-5, 27)}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_family_maps_match_oracle(self, n):
        targets = ie.component_variables(4)
        fam = ie.orbit_pullback_family(n, f"pb-oracle:{n}", 12)
        for member in fam.members:
            rows, den = word_rows(member.g, targets)
            expected = oracle_pullback_rows(ie.i4_quadric(), dict(zip(targets, rows)), den, n)
            assert member.quadric == expected


class TestCertification:
    def test_family_members_vanish_on_cone(self):
        fam = ie.orbit_pullback_family(5, "tf", 8)
        assert len(fam.members) == 8
        assert fam.members[0].g.word == ()  # the plain contraction pullback
        for t in range(5):
            x = gc.sample_cone_point(5, f"fv:{t}", length=10)
            for member in fam.members:
                assert ie.eval_poly(member.quadric, x) == 0

    def test_base_point_passes(self):
        fam = ie.orbit_pullback_family(5, "tb", 8)
        assert ie.certify_membership(sr.SpinVector.omega1(5), fam).passes

    def test_off_cone_fails_with_witness(self):
        fam = ie.orbit_pullback_family(5, "tw", 64)
        x = ie.off_cone_sample(5, "w0")
        v = ie.certify_membership(x, fam)
        assert not v.passes
        assert v.witness_index is not None and v.witness_value != 0
        assert isinstance(v.witness_word, tuple)

    def test_span_stabilizes(self):
        variables = ie.component_variables(5)
        monos = ie.monomials_of_degree(variables, 2)
        idx = {m: i for i, m in enumerate(monos)}

        def rows(fam):
            out = []
            for member in fam.members:
                row = [Fraction(0)] * len(monos)
                for mn, c in member.quadric.terms.items():
                    row[idx[mn]] = c
                out.append(row)
            return out

        fam32 = ie.orbit_pullback_family(5, "ts", 32)
        fam64 = ie.orbit_pullback_family(5, "ts", 64)
        r32 = linalg.rank(rows(fam32))
        r64 = linalg.rank(rows(fam64))
        assert r32 == r64 == 10

    def test_degree2_span_at_level_six(self, monkeypatch):
        # the report runs degree2-span at n = 5 only; at n = 6 the pullbacks
        # of 120 members span the 66 = 528 - 462 quadrics on the cone
        ranks, rank = [], linalg.rank

        def spy(a):
            ranks.append(rank(a))
            return ranks[-1]

        monkeypatch.setattr(linalg, "rank", spy)
        assert suites._check_degree2_span(6, 7, 25) is None
        assert ranks == [66, 66, 66]

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected_at_build(self, count):
        with pytest.raises(IndexRangeError, match=f"count {count}"):
            ie.orbit_pullback_family(5, "none", count)

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("length", [0, -2])
    def test_word_length_below_one_rejected_for_every_count(self, count, length):
        # count 1 draws no group word, and returned a one-member family
        with pytest.raises(IndexRangeError, match=f"word length must be >= 1, got {length}"):
            ie.orbit_pullback_family(5, "none", count, length=length)

    def test_empty_family_rejected(self):
        fam = ie.PullbackFamily(5, "x", ())
        with pytest.raises(SpinalgError):
            ie.certify_membership(sr.SpinVector.omega1(5), fam)

    @pytest.mark.parametrize("n,count", [(4, 6), (5, 12), (6, 10)])
    def test_matches_oracle(self, n, count):
        fam = ie.orbit_pullback_family(n, f"cert-oracle:{n}", count)
        maps = oracle_level_maps(fam)
        verdicts = set()
        for x in cone_query_points(n, "cert-oracle"):
            # each member leads once, so every compiled map gives a witness
            for k in range(count):
                rotated = ie.PullbackFamily(n, fam.seed, fam.members[k:] + fam.members[:k])
                got = ie.certify_membership(x, rotated)
                assert got == oracle_certify(x, rotated, maps[k:] + maps[:k])
                verdicts.add((got.passes, got.witness_index))
        assert (True, None) in verdicts and (False, 0) in verdicts
        if n > 4:  # at level 4 every member is a multiple of the one quadric
            assert any(passes is False and idx > 0 for passes, idx in verdicts)

    def test_odd_coordinate_rejected_up_front(self):
        fam = ie.orbit_pullback_family(5, "odd", 4)
        # member 0's contraction kills mask 16, so evaluating through the
        # maps would see the even point {0, 15} and report a witness
        assert not oracle_certify(
            sr.SpinVector(5, {0: 1, 15: 1, 16: 1}), fam, oracle_level_maps(fam)
        ).passes
        for terms in ({0: 1, 16: 1}, {0: 1, 15: 1, 16: 1}, {31: 1}):
            with pytest.raises(LevelMismatchError):
                ie.certify_membership(sr.SpinVector(5, terms), fam)

    def test_zero_point_passes(self):
        fam = ie.orbit_pullback_family(5, "zero", 4)
        assert ie.certify_membership(sr.SpinVector.zero(5), fam).passes

    def test_compiled_rows_are_the_even_level_map(self):
        fam = ie.orbit_pullback_family(5, "rows", 4)
        sources = ie.component_variables(5)
        targets = ie.component_variables(4)
        for member, lm in zip(fam.members, oracle_level_maps(fam)):
            assert len(member.rows) == len(targets)
            for t, row in zip(targets, member.rows):
                assert len(row) == len(sources)
                for s, a in zip(sources, row):
                    column = lm.apply(sr.SpinVector.basis(5, s))
                    assert Fraction(a, member.den) == column.coefficient(t)

    @pytest.mark.parametrize("n,count", [(4, 6), (5, 12), (6, 10)])
    def test_member_denominator_is_canonical(self, n, count):
        # rows / den in lowest terms: den is the lcm of the map's denominators
        fam = ie.orbit_pullback_family(n, f"den:{n}", count)
        for member in fam.members:
            assert member.den > 0
            assert reduce(gcd, (a for row in member.rows for a in row), member.den) == 1


class TestQuadricOnFirstRead:
    """A member pulls the level-4 quadric back when its quadric is first
    read; building a family and certifying membership read only the rows."""

    def test_build_and_certify_make_no_quadric(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pulled back")

        monkeypatch.setattr(ie, "_pullback_rows", refuse)
        fam = ie.orbit_pullback_family(5, "first-read", 12)
        assert ie.certify_membership(sr.SpinVector.omega1(5), fam).passes
        assert not ie.certify_membership(ie.off_cone_sample(5, "first-read"), fam).passes
        with pytest.raises(AssertionError, match="pulled back"):
            fam.members[3].quadric

    def test_a_pullback_that_is_not_quadratic_raises_on_first_read(self, monkeypatch):
        fam = ie.orbit_pullback_family(5, "first-read", 2)
        x = ie.Polynomial.variable(var_f(5))
        monkeypatch.setattr(ie, "_pullback_rows", lambda *args: x * x * x)
        with pytest.raises(StructureError, match="not homogeneous quadratic"):
            fam.members[1].quadric

    def test_a_second_read_returns_the_same_quadric(self):
        member = ie.orbit_pullback_family(5, "first-read", 2).members[1]
        first = member.quadric
        assert member.quadric is first


@lru_cache(maxsize=None)
def family_with_maps(n):
    """A 17-member family at level n (the screen's 8 members and 9 in the
    pair table) and the oracle's Fraction map of each member."""
    fam = ie.orbit_pullback_family(n, f"packed:{n}", 17)
    return fam, oracle_level_maps(fam)


@lru_cache(maxsize=None)
def full_family_with_maps(n):
    """The report's family size at level n (64 at 5, 120 at 6) and the maps."""
    fam = ie.orbit_pullback_family(n, f"pairs:{n}", suites._family_size(n))
    return fam, oracle_level_maps(fam)


def primitive_max(x):
    """The largest entry of the primitive integer multiple of x."""
    den = reduce(lcm, (c.denominator for c in x.terms.values()))
    ints = [c.numerator * (den // c.denominator) for c in x.terms.values()]
    return max(map(abs, ints)) // reduce(gcd, ints)


def wide_points(n, tag):
    """Even points whose primitive integer entries exceed 2^70: an orbit
    point under a word with parameters near 2^71, the same point plus a
    unit coordinate, and a dense point with entries up to 2^75."""
    rng = make_rng(f"{tag}:{n}")
    on_cone = orbit_point(n, tag, 71)
    dense = sr.SpinVector(
        n, {m: Fraction(rng.randint(-(2**75), 2**75), rng.randint(1, 99)) for m in ie.component_variables(n)}
    )
    return [on_cone, on_cone + sr.SpinVector.basis(n, 0), dense]


def orbit_point(n, tag, bits):
    """The base point moved by a six-letter word with parameters near 2^bits / 3."""
    word = sr.random_group_element(n, tag, 6).word
    g = sr.GroupElement(n, [(k, i, j, Fraction(2**bits + 2 * s + 1, 3)) for s, (k, i, j, _t) in enumerate(word)])
    return g.apply(sr.SpinVector.omega0(n) if n % 2 == 0 else sr.SpinVector.omega1(n))


def pair_widths(fam):
    """The slot widths of the family's pair tables built so far."""
    return set(fam._tables["pairs"][2]) if "pairs" in fam._tables else set()


def reordered(fam, maps, picks):
    """The family of fam's members picks[0], picks[1], ..., and their maps."""
    return ie.PullbackFamily(fam.n, fam.seed, tuple(fam.members[k] for k in picks)), [maps[k] for k in picks]


class TestPackedCertification:
    """certify_membership screens members 0..7 through a row-packed table
    and meets the others in one zero test over the pair table; every
    verdict must equal oracle_certify's, witness included."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_partial_blocks_match_oracle(self, n):
        fam, maps = family_with_maps(n)
        points = cone_query_points(n, "packed") + wide_points(n, "packed")
        for size in (1, 7, 8, 9, 17):
            sub = ie.PullbackFamily(n, fam.seed, fam.members[:size])
            for x in points:
                assert ie.certify_membership(x, sub) == oracle_certify(x, sub, maps[:size])

    @pytest.mark.parametrize("n", [5, 6])
    def test_families_of_the_report_match_oracle(self, n):
        fam, maps = full_family_with_maps(n)
        verdicts = set()
        for x in cone_query_points(n, "pairs") + wide_points(n, "pairs"):
            got = ie.certify_membership(x, fam)
            assert got == oracle_certify(x, fam, maps)
            verdicts.add(got.passes)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [5, 6])
    def test_witness_in_a_later_block(self, n):
        # the plain contraction (member 0) kills every mask above level 4;
        # nine copies of it lead, so the first witness sits in the pair table
        fam, maps = family_with_maps(n)
        lead = ie.PullbackFamily(n, fam.seed, fam.members[:1] * 9 + fam.members[1:])
        lead_maps = maps[:1] * 9 + maps[1:]
        rng = make_rng(f"later-block:{n}")
        masks = [m for m in ie.component_variables(n) if m >> 4]
        for _ in range(3):
            x = sr.SpinVector(n, {m: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for m in masks})
            got = ie.certify_membership(x, lead)
            assert got == oracle_certify(x, lead, lead_maps)
            assert not got.passes and got.witness_index >= 9

    @pytest.mark.parametrize("n", [5, 6])
    def test_witness_at_member_eight_and_at_the_last_member(self, n):
        # an orbit point plus a coordinate that member 0 kills: member 0's
        # copies vanish there, and the one other member does not
        fam, maps = full_family_with_maps(n)
        last = len(fam.members) - 1
        x = gc.sample_cone_point(n, "eighth", length=4) + sr.SpinVector.basis(n, 0b11000)
        k = oracle_certify(x, fam, maps).witness_index  # the first member that does not vanish
        assert k > 0
        for picks, index in (([0] * 8 + [k], 8), ([0] * 8 + list(range(k, k + 9)), 8), ([0] * last + [k], last)):
            sub, sub_maps = reordered(fam, maps, picks)
            got = ie.certify_membership(x, sub)
            assert got == oracle_certify(x, sub, sub_maps)
            assert got.witness_index == index

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_slots_wider_than_64_bits(self, n):
        fam, maps = family_with_maps(n)
        verdicts = []
        for x in wide_points(n, "wide"):
            assert primitive_max(x) > 2**70
            got = ie.certify_membership(x, fam)
            assert got == oracle_certify(x, fam, maps)
            verdicts.append(got.passes)
        assert verdicts[0] and not verdicts[2]

    def test_pair_slots_of_128_and_192_bits_both_signs(self):
        # witnesses of both signs read from pair slots of 64, 128 and 192 bits
        fam, maps = family_with_maps(5)
        lead, lead_maps = reordered(fam, maps, [0] * 9 + list(range(1, 17)))
        signs, widths = set(), set()
        for bits in (6, 12, 20):
            x = orbit_point(5, "wide", bits)
            for y, sign in ((x, 0), (x + sr.SpinVector.basis(5, 24), -1), (x - sr.SpinVector.basis(5, 24), 1)):
                fresh = ie.PullbackFamily(5, lead.seed, lead.members)
                got = ie.certify_membership(y, fresh)
                assert got == oracle_certify(y, fresh, lead_maps)
                assert got.passes == (sign == 0)
                if sign:
                    assert got.witness_index == 9 and (got.witness_value > 0) == (sign > 0)
                    signs.add(sign)
                widths |= pair_widths(fresh)
        assert signs == {-1, 1} and widths == {64, 128, 192}

    def test_row_norm_bound_widens_a_pair_slot_exactly(self):
        # the pair table's width follows sum |c| |R_a|_1 |R_b|_1, which runs
        # ahead of the largest sum_(s<=t) |S_j[s, t]|: these points take 128-bit
        # pair slots where that exact sum keeps 64, and still read the oracle's
        # verdict and witness
        fam, maps = family_with_maps(5)
        lead, lead_maps = reordered(fam, maps, [0] * 9 + list(range(1, 17)))
        x = orbit_point(5, "wide", 8)
        for y in (x, x + sr.SpinVector.basis(5, 24), x - sr.SpinVector.basis(5, 24)):
            fresh = ie.PullbackFamily(5, lead.seed, lead.members)
            assert ie.certify_membership(y, fresh) == oracle_certify(y, fresh, lead_maps)
            cover, bound, _packed = fresh._tables["pairs"]
            exact = max(sum(map(abs, q.values())) for q in fresh._pair_quadrics(cover))
            top = max(map(abs, y.integer_form()[0].values()))
            assert bound >= exact and (top * top * exact).bit_length() < 64 <= (top * top * bound).bit_length()
            assert pair_widths(fresh) == {128}

    def test_rows_that_are_not_a_group_word(self):
        # a group word's rows send every basis point onto the cone, so its
        # S_j[s, s] is 0; free integer rows read the diagonal of the table too
        n, rng = 5, make_rng("free-rows")
        quad = ie._i4_slot_terms()
        zero = tuple((0,) * 16 for _ in range(8))
        free = [tuple(tuple(rng.randint(-3, 3) for _ in range(16)) for _ in range(8)) for _ in range(9)]
        identity = sr.GroupElement.identity(n)
        fam = ie.PullbackFamily(n, "free", tuple(ie.FamilyMember(identity, rows, 2) for rows in [zero] * 8 + free))
        masks = ie.component_variables(n)
        points = [sr.SpinVector.basis(n, m) for m in masks[:4]]
        points += [sr.SpinVector(n, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for m in rng.sample(masks, 3)})
                   for _ in range(20)]
        for x in points:
            coords = [x.coefficient(m) for m in masks]
            values = []
            for member in fam.members:
                y = [sum(Fraction(c, member.den) * v for c, v in zip(row, coords)) for row in member.rows]
                values.append(sum(c * y[a] * y[b] for a, b, c in quad))
            index = next((k for k, v in enumerate(values) if v), None)
            got = ie.certify_membership(x, fam)
            assert (got.witness_index, got.witness_value) == (index, None if index is None else values[index])
            assert got.passes == (index is None) and (index is None or index >= 8)

    @pytest.mark.parametrize("n", [5, 6])
    def test_pair_quadrics_are_the_member_quadrics(self, n):
        fam, _maps = full_family_with_maps(n)
        sources = ie.component_variables(n)
        for member, ints in zip(fam.members[8:], fam._pair_quadrics(range(len(sources)))):
            scaled = {(sources[s], sources[t]): Fraction(c, member.den**2) for (s, t), c in ints.items() if c}
            assert scaled == member.quadric.terms

    @pytest.mark.parametrize("n", [5, 6])
    def test_blocks_are_built_when_a_query_reaches_them(self, n, monkeypatch):
        # two blocks: the screen of the first eight members, then the pair
        # table of the rest, built only when a point passes the screen
        fam, maps = family_with_maps(n)
        fresh = ie.PullbackFamily(n, fam.seed, fam.members)
        covers = []
        build = ie.PullbackFamily._pair_quadrics

        def spy(self, cover):
            covers.append(sorted(cover))
            return build(self, cover)

        monkeypatch.setattr(ie.PullbackFamily, "_pair_quadrics", spy)
        off = ie.off_cone_sample(n, "lazy")
        got = ie.certify_membership(off, fresh)
        assert got == oracle_certify(off, fresh, maps) and got.witness_index < 8
        assert "pairs" not in fresh._tables and covers == []  # the query stopped in the screen
        assert len(fresh._tables) == 1  # the screen, at one slot width
        on = gc.sample_cone_point(n, "lazy", length=4)
        support = sorted(m >> 1 for m in on.terms)
        for x in (on, on.scale(Fraction(-3, 4)), off):
            assert ie.certify_membership(x, fresh) == oracle_certify(x, fresh, maps)
        assert covers == [support]  # built once, over the first point's positions
        other = gc.sample_cone_point(n, "lazy", length=10)
        assert not {m >> 1 for m in other.terms} <= set(support)
        for x in (other, on, other + on):
            assert ie.certify_membership(x, fresh) == oracle_certify(x, fresh, maps)
        assert covers == [support, list(range(1 << n - 1))]  # then once over every position

    def test_tables_leave_equality_and_hash_alone(self):
        fam, _maps = family_with_maps(5)
        twin = ie.PullbackFamily(5, fam.seed, fam.members)
        assert fam == twin and repr(fam) == repr(twin)
        with pytest.raises(TypeError):  # a GroupElement is not hashable
            hash(fam)
        for x in [sr.SpinVector.omega1(5)] + wide_points(5, "eq"):
            ie.certify_membership(x, fam)  # fills the tables of two slot widths
        assert fam == twin and twin == fam and repr(fam) == repr(twin)
        assert fam != ie.PullbackFamily(5, fam.seed, fam.members[1:])
        with pytest.raises(TypeError):
            hash(fam)

    def test_members_of_another_level_rejected(self):
        # a level-5 member in a level-6 family used to raise IndexError on
        # a level-6 orbit point, and pass SpinVector(6, {0: 1})
        fam5, _maps = family_with_maps(5)
        with pytest.raises(LevelMismatchError):
            ie.PullbackFamily(6, "mixed", fam5.members)
        # a level-6 group element with level-5 rows
        m = fam5.members[0]
        wrong_rows = ie.FamilyMember(sr.GroupElement.identity(6), m.rows, m.den)
        with pytest.raises(LevelMismatchError):
            ie.PullbackFamily(6, "rows", (wrong_rows,))
        assert ie.PullbackFamily(5, fam5.seed, fam5.members) == fam5


class TestDerivations:
    def test_single_variable_action(self):
        # complement {3,4} at window 4: indices 1, 2 lie in the index set
        p = ie.Polynomial.variable(var_l(3, 4))
        out = ie.derivation_ff(1, 2, p, 4)
        assert len(out.terms) == 1
        ((mono, c),) = out.terms.items()
        assert mono == (var_l(1, 2, 3, 4).mask,)
        assert abs(c) == 2

    def test_zero_when_index_in_complement(self):
        p = ie.Polynomial.variable(var_l(1, 2))
        assert ie.derivation_ff(1, 2, p, 4).is_zero()

    def test_leibniz(self):
        a = ie.Polynomial.variable(var_l())
        b = ie.Polynomial.variable(var_l(3, 4))
        prod = a * b
        out = ie.derivation_ff(1, 2, prod, 4)
        da = ie.derivation_ff(1, 2, a, 4)
        db = ie.derivation_ff(1, 2, b, 4)
        assert out == da * b + a * db

    def test_window_errors(self):
        p = ie.Polynomial.variable(var_l(5, 6))
        with pytest.raises(IndexRangeError):
            ie.derivation_ff(1, 2, p, 4)
        with pytest.raises(IndexRangeError):
            ie.derivation_ff(1, 7, ie.Polynomial.variable(var_l(1, 2)), 6)

    def test_gl_move_and_diagonal(self):
        p = ie.Polynomial.variable(var_l(1, 2))
        moved = ie.derivation_ef(1, 3, p, 4)
        ((mono, c),) = moved.terms.items()
        assert mono == (var_l(2, 3).mask,)
        assert abs(c) == 1
        diag = ie.derivation_ef(4, 4, p, 4)  # index 4 in the variable's set
        assert diag == p.scale(Fraction(1, 2))
        diag0 = ie.derivation_ef(1, 1, p, 4)  # index 1 in the complement
        assert diag0 == p.scale(Fraction(-1, 2))

    def test_degree_scaling_of_diagonal(self):
        p = ie.i4_quadric().to_limit()
        # index 5 lies in every variable's index set at window >= 5
        assert ie.derivation_ef(5, 5, p, 6) == p.scale(Fraction(p.degree(), 2))


class TestLowering:
    def test_single_variable(self):
        p = ie.Polynomial.variable(var_l(1, 2))
        tr = ie.degree_lowering_trace(p, 4)
        assert tr.k == 2 and tr.ell == 1
        assert tr.q == ie.Polynomial(True, -1, {(): Fraction(1)})
        assert tr.remainder.is_zero()

    def test_embedded_quadric(self):
        p = ie.i4_quadric().to_limit()
        tr = ie.degree_lowering_trace(p, 6)
        assert tr.ell == 1
        assert tr.main_var == var_l(1, 2, 3, 4)
        assert tr.q == ie.Polynomial.variable(var_l())
        final = tr.final()
        main = (ie.Polynomial.variable(tr.top_var) * tr.q).scale(tr.scalar)
        assert final == main + tr.remainder
        assert all(v.filtration < 6 for v in tr.remainder.variables())

    def test_tie_break_lowest_mask(self):
        p = ie.Polynomial.variable(var_l(1, 2)) + ie.Polynomial.variable(var_l(1, 3))
        tr = ie.degree_lowering_trace(p, 4)
        assert tr.main_var == var_l(1, 2)

    def test_main_step_is_the_variable_action_and_the_derivation(self):
        p = ie.i4_quadric().to_limit()
        main = var_l(1, 2, 3, 4).mask
        for x, derive in (
            (sr.SoElement.basis_ff(8, 5, 6), lambda q: ie.derivation_ff(5, 6, q, 8)),
            (sr.SoElement.basis_ef(8, 2, 7), lambda q: ie.derivation_ef(2, 7, q, 8)),
        ):
            scalar, cmask, cur = ie._main_step(x, p, main, 8, "here")
            assert (scalar, cmask) == ie._limit_variable_action(x, main, 8)
            assert cur == derive(p) and not cur.is_zero()
        # f_1^f_2 contracts indices 1 and 2, which this variable lacks
        with pytest.raises(StructureError, match="^main variable died under a gl move$"):
            ie._main_step(sr.SoElement.basis_ff(8, 1, 2), p, main, 8, "under a gl move")

    def test_random_decompositions(self, rng):
        vars_pool = [m for m in range(1 << 4) if bin(m).count("1") % 2 == 0]
        done = 0
        for _ in range(30):
            terms = {}
            deg = rng.choice([2, 3])
            for _ in range(4):
                mono = tuple(sorted(rng.choice(vars_pool) for _ in range(deg)))
                terms[mono] = Fraction(rng.randint(-3, 3))
            p = ie.Polynomial(True, -1, terms)
            if p.is_zero():
                continue
            k = max(v.filtration for v in p.variables())
            window = max(6, k + 2)
            tr = ie.degree_lowering_trace(p, window)
            final = tr.final()
            main = (ie.Polynomial.variable(tr.top_var) * tr.q).scale(tr.scalar)
            assert final == main + tr.remainder
            done += 1
        assert done >= 20


class TestSolving:
    def test_trivial_target(self):
        p = ie.i4_quadric().to_limit()
        tr = ie.degree_lowering_trace(p, 6)
        sol = ie.produce_solving_element(tr, (1 << 6) - 1, 8)
        assert sol.power == 1
        assert sol.element == tr.final()
        assert ie.ideal_membership(sol.element, list(sol.generators)) is not None

    def test_transposed_target(self):
        p = ie.i4_quadric().to_limit()
        tr = ie.degree_lowering_trace(p, 6)
        tmask = 0b1011111  # {1,2,3,4,5,7}
        sol = ie.produce_solving_element(tr, tmask, 8)
        assert sol.target == ie.SpinVariable.limit(tmask)
        main = (
            ie.Polynomial.variable(sol.target) * ie.q_power(sol.q, sol.power)
        ).scale(sol.scalar)
        assert sol.element == main + sol.remainder
        assert all(v.filtration < 6 for v in sol.remainder.variables())
        mult = ie.ideal_membership(sol.element, list(sol.generators))
        assert mult is not None
        recon = ie.Polynomial.zero_limit()
        for m_, g_ in zip(mult, sol.generators):
            recon = recon + m_ * g_
        assert recon == sol.element

    def test_localized_assembly_with_certificate(self):
        p = ie.i4_quadric().to_limit()
        tr = ie.degree_lowering_trace(p, 6)
        loc = ie.assemble_localized(tr, (1 << 8) - 1, 8)
        assert all(v.filtration <= 4 for v in loc.s.variables())
        lhs = (
            ie.Polynomial.variable(loc.target) * ie.q_power(tr.q, loc.power) - loc.s
        )
        recon = ie.Polynomial.zero_limit()
        for mult, gen in zip(loc.certificate, loc.generators):
            recon = recon + mult * gen
        assert recon == lhs

    def test_pollution_handled_by_power_growth(self, rng):
        vars_pool = [m for m in range(1 << 4) if bin(m).count("1") % 2 == 0]
        found = False
        for trial in range(200):
            terms = {}
            for _ in range(4):
                mono = tuple(sorted(rng.choice(vars_pool) for _ in range(2)))
                terms[mono] = Fraction(rng.randint(-3, 3))
            p = ie.Polynomial(True, -1, terms)
            if p.is_zero():
                continue
            if max(v.filtration for v in p.variables()) < 4:
                continue
            tr = ie.degree_lowering_trace(p, 6)
            if tr.q.is_zero():
                continue
            try:
                sol = ie.produce_solving_element(tr, 0b1111101, 8)
            except SpinalgError:
                continue
            if sol.power > 1:
                mult = ie.ideal_membership(sol.element, list(sol.generators))
                assert mult is not None
                found = True
                break
        assert found


class TestGamma:
    def test_diagonal_pairing(self):
        n = 4
        # the pairing couples a subset with the limit vector of equal mask
        fin = {0b0011: Fraction(1)}
        lim = {0b0011: Fraction(1)}
        val = ie.gamma_windowed(fin, lim, n)
        assert val != 0
        assert ie.gamma_windowed(fin, {0b0101: Fraction(1)}, n) == 0

    def test_sl_invariance(self, rng):
        n = 4
        for _ in range(10):
            fin = {rng.randrange(1 << n): Fraction(rng.randint(-2, 2)) for _ in range(3)}
            lim = {rng.randrange(1 << n): Fraction(rng.randint(-2, 2)) for _ in range(3)}
            a, b = rng.sample(range(1, n + 1), 2)
            t = Fraction(rng.randint(-2, 2))
            before = ie.gamma_windowed(fin, lim, n)
            after = ie.gamma_windowed(
                ie.standard_gl_exp(a, b, t, fin, n),
                ie.limit_standard_gl_exp(a, b, t, lim, n),
                n,
            )
            assert before == after

    @pytest.mark.parametrize("window", range(1, 7))
    def test_closed_form_sign_matches_the_wedge_walk(self, window):
        # every subset S alone, against a limit vector on the same mask
        for s_mask in range(1 << window):
            for a, b in ((Fraction(1), Fraction(1)), (Fraction(-2, 3), Fraction(5, 7))):
                got = ie.gamma_windowed({s_mask: a}, {s_mask: b}, window)
                assert got == oracle_gamma_windowed({s_mask: a}, {s_mask: b}, window)
                assert got in (a * b, -a * b)
        # maps with shared and unshared masks, some with bits above the window,
        # which are rejected
        rng = make_rng(f"gamma-walk:{window}")
        for k in range(30):
            top = 1 << (window + (k % 3 == 2))

            def coef():
                return Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))

            fin = {rng.randrange(top): coef() for _ in range(rng.randint(0, 6))}
            lim = {rng.randrange(top): coef() for _ in range(rng.randint(0, 6))}
            lim.update((m, coef()) for m in list(fin)[k % 2 :: 2])
            if any(m >> window for m in [*fin, *lim]):
                with pytest.raises(IndexRangeError, match=f"^variable mask out of range at level {window}$"):
                    ie.gamma_windowed(fin, lim, window)
                continue
            got = ie.gamma_windowed(fin, lim, window)
            assert got == oracle_gamma_windowed(fin, lim, window)
            assert type(got) is Fraction

    @pytest.mark.parametrize(
        "fin, lim",
        [
            ({0b100: Fraction(1)}, {0b100: Fraction(1)}),  # shared, above the window
            ({0b100: Fraction(1)}, {0b01: Fraction(1)}),  # finite side only
            ({0b01: Fraction(1)}, {0b101: Fraction(2)}),  # limit side only
            ({-1: Fraction(1)}, {}),  # negative mask
        ],
    )
    def test_masks_outside_the_window_rejected(self, fin, lim):
        # a mask with a bit above the window was paired by its window bits
        # alone: {0b100} against itself read as the empty set at window 2
        with pytest.raises(IndexRangeError, match="^variable mask out of range at level 2$"):
            ie.gamma_windowed(fin, lim, 2)

    @pytest.mark.parametrize("lim", [{0b10000: Fraction(1)}, {0: Fraction(1), 0b1000: Fraction(2)}, {-1: Fraction(1)}])
    def test_limit_exp_rejects_masks_outside_the_window(self, lim):
        # a limit mask above the window was dropped: {0b10000: 1} at window 3
        # gave {0: 1}, the answer for {0: 1}, while standard_gl_exp and
        # gamma_windowed reject such masks
        with pytest.raises(IndexRangeError, match="^variable mask out of range at level 3$"):
            ie.limit_standard_gl_exp(1, 2, Fraction(1), lim, 3)
        assert ie.limit_standard_gl_exp(1, 2, Fraction(1), {0: Fraction(1)}, 3) == {0: Fraction(1)}


class TestOffConeSampler:
    def test_deterministic_and_not_pure(self):
        x = ie.off_cone_sample(4, 1)
        y = ie.off_cone_sample(4, 1)
        assert x == y
        assert gc.is_pure(x).kind == "not_pure"
        assert x.parity() == "even"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levels_below_four_rejected(self, n):
        # every nonzero even vector is pure there, so rejection would not end
        with pytest.raises(IndexRangeError, match="level >= 4"):
            ie.off_cone_sample(n, 0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_draws_are_bounded(self, n, monkeypatch):
        # an oracle that calls every vector pure ends the rejection after a
        # fixed number of draws instead of hanging the run
        monkeypatch.setattr(gc, "is_pure", lambda x: gc.PurityResult("pure"))
        with pytest.raises(StructureError, match=f"^no non-pure even vector at level {n} in {ie.OFF_CONE_DRAWS} draws$"):
            ie.off_cone_sample(n, 0)


class TestGoldenOutputs:
    """Printed forms recorded from the tuple-of-SpinVariable monomial format;
    the int-mask format must reproduce them exactly."""

    def test_level_four_quadric(self):
        assert str(ie.i4_quadric()) == (
            "1*x[]*x[1,2,3,4] + -1*x[1,2]*x[3,4] + 1*x[1,3]*x[2,4] + -1*x[2,3]*x[1,4]"
        )

    @pytest.mark.parametrize(
        "n,count,expected",
        [
            (5, 64, "a90d82d95bdfa7c2524d56a18ce5e7ff5e38001d4a377fe6e8d903ff4a5f7d52"),
            (6, 120, "7d9efd29f322b7955d59be497abc2069c9eb80b0f9d5a1efb932d2272106da86"),
        ],
    )
    def test_pullback_family(self, n, count, expected):
        # every member's word, compiled rows, denominator and quadric terms
        fam = ie.orbit_pullback_family(n, "7:fam", count)
        doc = {
            "family": fam.serialize(),
            "members": [
                [m.rows, m.den, sorted((list(mono), str(c)) for mono, c in m.quadric.terms.items())]
                for m in fam.members
            ],
        }
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == expected

    @pytest.mark.parametrize(
        "n,seed,count,expected",
        [
            (5, "7:fam", 64, "a19c1f9a1173b8479fe25aee010d418bd7d7fc934ed7c031e6276ddfbd0a10b4"),
            (5, "11:fam", 64, "c22aaf5fccee37f8e1ee5808c58f5524d16ae24151751907a48b448bf662c631"),
            (6, "7:fam", 120, "7fd864e1319ec50b7e6d06b0c6821123f40515c53a6725c23eb9e7f2b7e747ca"),
            (6, "11:fam", 120, "6efa5e1217f0f363df9c99360cc6bccd0c9d060aaefcb9bee019ccebf3c61ab9"),
        ],
    )
    def test_family_rows(self, n, seed, count, expected):
        # every member's (rows, den) of the benchmark's families, as built by
        # the row-by-row word steps with one 2q rescale per letter
        digest = hashlib.sha256()
        for m in ie.orbit_pullback_family(n, seed, count).members:
            digest.update(repr((m.rows, m.den)).encode())
        assert digest.hexdigest() == expected

    def test_lowering_trace_and_localized_certificate(self):
        tr = ie.degree_lowering_trace(ie.i4_quadric().to_limit(), 6)
        assert str(tr.q) == "1*x[~]"
        assert str(tr.remainder) == (
            "2*x[~1,2]*x[~3,4,5,6] + -2*x[~1,3]*x[~2,4,5,6] + 2*x[~2,3]*x[~1,4,5,6]"
            " + 2*x[~1,4]*x[~2,3,5,6] + -2*x[~2,4]*x[~1,3,5,6]"
            " + 2*x[~3,4]*x[~1,2,5,6] + -2*x[~1,2,3,4]*x[~5,6]"
        )
        loc = ie.assemble_localized(tr, 0xFF, 8)

        def digest(p):
            return hashlib.sha256(str(p).encode()).hexdigest()

        assert loc.power == 9
        assert digest(loc.s) == "15d4a852fbaec5afffc6a288b4efd06b4f4f8ab1c81a554b07d350f54ece3208"
        assert [digest(c) for c in loc.certificate] == [
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
            "3083f662448a8f6d98ae6fa55ea5b572a6a6b9b054640d6560f5ca32e7719eb5",
            "88bbc8973248ab47dcd62413655d70dd8780f0951c7b0d6a0695020731150f80",
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
            "e95996d47d20898837b00aa028bf928bba738cd9a111711ad9bb8650a3c9b721",
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
            "cdb2c4622fafe619bbd9c1b1aefdf750ba06a1909e9514a3397a4227aa43b8f6",
            "f6104cb63acd083925aee7597c5ebc7e3a78645fd77f45940a3203566fffb137",
            "3cdbdebd96aa78d00bc469c0394a1ea0c72ba4c2f4bfe21c6c71a15a41e261a9",
            "c1224128234f21213b52485c543081311be4d6ce093f8159e8d9fa9b3fdcf287",
            "7b329f4e7174c5b9a8c3843e27c6a56e40d1d547bb772589febf8abb394dde3f",
            "28db3105e40f592d6dc6fc009ce75ac9e6defd1cb2110d683f6d0d31d932f334",
        ]

    def test_lowering_records(self):
        # sha256 of the repr of each record of the lowering construction:
        # Polynomial.__repr__ sorts the monomials, so the text is deterministic
        tr = ie.degree_lowering_trace(ie.i4_quadric().to_limit(), 6)
        records = [
            tr,
            ie.produce_solving_element(tr, 0b111111, 8),
            ie.produce_solving_element(tr, 0b1111101, 8),
            ie.assemble_localized(tr, 0xFF, 8),
        ]
        assert [hashlib.sha256(repr(r).encode()).hexdigest() for r in records] == [
            "b1a84b159dcc35b5833aad4077e51c231bd69b7f90eeec62e404bfda8f52ad39",
            "c541192fc5cf3811f7cd9e11e3aa1896e239494b5577dad3226c7b1868453e61",
            "cf24bb65d4677bade18bfca56416f0bf8fe8dc6feff705b59f1e7a2fe6703c2e",
            "2974c4baa35f2a69cc0f2f3565136061a38d8f36f915d15a8b31d03cf799c1fe",
        ]
        # gl moves that also hit q = x[~1,2]: the power grows to 3
        p = ie.Polynomial(True, -1, {(0b0011, 0b1111): Fraction(1), (0, 0b1100): Fraction(1)})
        sol = ie.produce_solving_element(ie.degree_lowering_trace(p, 6), 0b11111100, 8)
        assert sol.power == 3
        assert hashlib.sha256(repr(sol).encode()).hexdigest() == (
            "c9828aa6775fcc89e0b79cdb76e5277ae7e568f7637747e6c08f082d790303da"
        )
