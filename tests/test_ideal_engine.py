"""Polynomials on spin coordinates: discovery, pullback certification,
derivations, and the degree-lowering machinery."""

import hashlib
from fractions import Fraction

import pytest

from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import transfer_maps as tm
from spinalg.errors import (
    IndexRangeError,
    LevelMismatchError,
    SpinalgError,
    TooFewPointsError,
)

from conftest import (
    cone_query_points,
    make_rng,
    oracle_certify,
    oracle_level_maps,
    random_spin,
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

    def test_generic_points_have_no_forms(self, rng):
        n = 3
        monos = ie.monomials_of_degree(ie.component_variables(n, "even"), 2)
        pts = [random_spin(n, rng, "even") for _ in range(3 * len(monos))]
        assert ie.vanishing_forms(pts, 2) == []

    def test_cone_slice_at_level_four(self):
        forms, prov = ie.stable_vanishing_forms(4, 2, "t-slice")
        assert len(forms) == 1
        assert prov["dimension"] == 1

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
        assert ie._proportional_polys(quad, norm)

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
        variables = ie.component_variables(5, "even")
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
        sources = ie.component_variables(5, "even")
        targets = ie.component_variables(4, "even")
        for member, lm in zip(fam.members, oracle_level_maps(fam)):
            assert len(member.rows) == len(targets)
            for t, row in zip(targets, member.rows):
                assert len(row) == len(sources)
                for s, a in zip(sources, row):
                    column = lm.apply(sr.SpinVector.basis(5, s))
                    assert Fraction(a, member.den) == column.coefficient(t)


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


class TestOffConeSampler:
    def test_deterministic_and_not_pure(self):
        x = ie.off_cone_sample(4, 1)
        y = ie.off_cone_sample(4, 1)
        assert x == y
        assert gc.is_pure(x).kind == "not_pure"
        assert x.parity() == "even"


class TestGoldenOutputs:
    """Printed forms recorded from the tuple-of-SpinVariable monomial format;
    the int-mask format must reproduce them exactly."""

    def test_level_four_quadric(self):
        assert str(ie.i4_quadric()) == (
            "1*x[]*x[1,2,3,4] + -1*x[1,2]*x[3,4] + 1*x[1,3]*x[2,4] + -1*x[2,3]*x[1,4]"
        )

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
