"""Clifford algebra kernel: normal forms, products, the anti-automorphism,
the two-form embedding, and the module action on the exterior algebra."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import spin_rep as sr
from spinalg.errors import IndexRangeError, LevelMismatchError

from conftest import (
    make_rng,
    oracle_normal_form,
    random_clifford,
    random_vector,
    random_word,
)


def nf(word, n):
    return cc.normal_form(word, n)


class TestNormalForm:
    def test_square_vanishes(self):
        assert nf(["e1", "e1"], 2).is_zero()
        assert nf(["f2", "f2"], 2).is_zero()

    def test_anticommutator_is_pairing(self):
        x = nf(["e1", "f1"], 1) + nf(["f1", "e1"], 1)
        assert x == cc.CliffordElement.unit(1).scale(2)

    def test_contraction_example(self):
        assert nf(["f1", "e1", "f1", "f2"], 2) == nf(["f1", "f2"], 2).scale(2)

    def test_index_range_rejected(self):
        with pytest.raises(IndexRangeError):
            nf(["e3"], 2)

    def test_confluence_against_rewrite_oracle(self):
        rng = make_rng("confluence")
        for n in range(2, 7):
            for _ in range(60):
                w = random_word(n, rng, rng.randint(1, 8))
                expect = oracle_normal_form(w, n)
                assert nf(w, n) == expect
                assert oracle_normal_form(w, n, rng) == expect


class TestMul:
    def test_unit(self, rng):
        x = random_clifford(3, rng)
        assert cc.mul(cc.CliffordElement.unit(3), x) == x
        assert cc.mul(x, cc.CliffordElement.unit(3)) == x

    def test_idempotent_like_monomial(self):
        x = nf(["e1", "f1"], 1)
        assert cc.mul(x, x) == x.scale(2)

    def test_isotropic_pair_anticommutes(self):
        f1 = cc.CliffordElement.from_symbol(2, "f1")
        f2 = cc.CliffordElement.from_symbol(2, "f2")
        assert cc.mul(f1, f2) == -cc.mul(f2, f1)

    def test_associativity(self, rng):
        for _ in range(15):
            a = random_clifford(3, rng)
            b = random_clifford(3, rng)
            c = random_clifford(3, rng)
            assert cc.mul(cc.mul(a, b), c) == cc.mul(a, cc.mul(b, c))

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatchError):
            cc.mul(cc.CliffordElement.unit(2), cc.CliffordElement.unit(3))

    def test_against_rewrite_oracle(self):
        rng = make_rng("mul-oracle")
        for n in range(1, 6):
            for _ in range(12):
                a = random_clifford(n, rng, nterms=3)
                b = random_clifford(n, rng, nterms=3)
                expect = cc.CliffordElement.zero(n)
                for m1, c1 in a.terms.items():
                    for m2, c2 in b.terms.items():
                        word = cc.monomial_word(m1) + cc.monomial_word(m2)
                        expect = expect + oracle_normal_form(word, n).scale(c1 * c2)
                assert cc.mul(a, b) == expect


class TestStar:
    def test_single_letter_fixed(self):
        e1 = cc.CliffordElement.from_symbol(2, "e1")
        assert cc.star(e1) == e1

    def test_cross_monomial(self):
        x = nf(["e1", "f2"], 2)
        assert cc.star(x) == nf(["f2", "e1"], 2)
        assert cc.star(x) == -x

    def test_involution_and_antihomomorphism(self, rng):
        for _ in range(15):
            x = random_clifford(3, rng)
            y = random_clifford(3, rng)
            assert cc.star(cc.star(x)) == x
            assert cc.star(cc.mul(x, y)) == cc.mul(cc.star(y), cc.star(x))
        assert cc.star(cc.CliffordElement.unit(3)) == cc.CliffordElement.unit(3)


class TestTwoFormEmbedding:
    def test_ff_pair(self):
        from spinalg import spin_rep as sr

        x = cc.so_to_clifford(sr.SoElement.basis_ff(2, 1, 2))
        assert x == nf(["f1", "f2"], 2).scale(Fraction(1, 2))

    def test_diagonal_ef(self):
        from spinalg import spin_rep as sr

        x = cc.so_to_clifford(sr.SoElement.basis_ef(2, 1, 1))
        expect = nf(["e1", "f1"], 2).scale(Fraction(1, 2)) - cc.CliffordElement.unit(
            2
        ).scale(Fraction(1, 2))
        assert x == expect

    def test_commutator_recovers_the_linear_action(self):
        # [image(u^v), w] = (v|w) u - (u|w) v for basis vectors
        from spinalg import spin_rep as sr

        n = 3
        forms = [
            (sr.SoElement.basis_ee(n, 1, 2), 1, 2),
            (sr.SoElement.basis_ff(n, 2, 3), -2, -3),
            (sr.SoElement.basis_ef(n, 3, 1), 3, -1),
        ]
        syms = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        for form, u, v in forms:
            x = cc.so_to_clifford(form)
            for w in syms:
                wc = cc.CliffordElement.from_symbol(n, w)
                lhs = cc.mul(x, wc) - cc.mul(wc, x)
                uv = cc.VectorInV.basis(n, u)
                vv = cc.VectorInV.basis(n, v)
                wv = cc.VectorInV.basis(n, w)
                rhs = (
                    uv.scale(cc.pairing(vv, wv)) - vv.scale(cc.pairing(uv, wv))
                ).as_clifford()
                assert lhs == rhs


class TestModuleAction:
    def test_vector_on_unit(self):
        out = cc.act_on_exterior(
            cc.CliffordElement.from_symbol(2, "e1"), cc.ExteriorVector.unit(2)
        )
        assert out == cc.ExteriorVector(2, {0b01: Fraction(1)})

    def test_mixed_monomial_on_unit(self):
        out = cc.act_on_exterior(nf(["e1", "f1"], 2), cc.ExteriorVector.unit(2))
        assert out == cc.ExteriorVector(2, {0: Fraction(1), 0b0101: Fraction(1)})

    def test_f_block_on_unit(self):
        for n in (2, 3):
            f = cc.CliffordElement(n, {(0, (1 << n) - 1): Fraction(1)})
            out = cc.act_on_exterior(f, cc.ExteriorVector.unit(n))
            assert out == cc.ExteriorVector(n, {((1 << n) - 1) << n: Fraction(1)})

    def test_module_axioms(self, rng):
        n = 3
        for _ in range(10):
            a = random_clifford(n, rng, nterms=3)
            b = random_clifford(n, rng, nterms=3)
            omega = cc.ExteriorVector(
                n, {rng.randrange(1 << (2 * n)): Fraction(rng.randint(-2, 2)) for _ in range(4)}
            )
            assert cc.act_on_exterior(cc.mul(a, b), omega) == cc.act_on_exterior(
                a, cc.act_on_exterior(b, omega)
            )
            v = random_vector(n, rng)
            vc = v.as_clifford()
            twice = cc.act_on_exterior(vc, cc.act_on_exterior(vc, omega))
            assert twice == omega.scale(cc.quadratic_value(v))

    def test_module_map_is_bijective_small(self):
        from spinalg import linalg

        for n in (1, 2, 3):
            entries = {}
            mask_index = {}
            col = 0
            for em in range(1 << n):
                for fm in range(1 << n):
                    img = cc.act_on_exterior(
                        cc.CliffordElement(n, {(em, fm): Fraction(1)}),
                        cc.ExteriorVector.unit(n),
                    )
                    for mask, val in img.terms.items():
                        r = mask_index.setdefault(mask, len(mask_index))
                        entries.setdefault(r, {})[col] = val
                    col += 1
            assert linalg.sparse_rank(list(entries.values())) == 4**n


@pytest.mark.parametrize(
    "build",
    [
        lambda: cc.CliffordElement(2, {(8, 0): 1}),
        lambda: cc.CliffordElement(2, {(0, 4): 1}),
        lambda: cc.CliffordElement(2, {(-1, 0): 1}),
        lambda: cc.ExteriorVector(2, {1 << 7: 1}),
        lambda: cc.ExteriorVector(2, {1 << 4: 1}),
        lambda: cc.ExteriorVector(2, {-1: 1}),
        lambda: sr.SpinVector(2, {1 << 2: 1}),
        lambda: sr.SpinVector(2, {-1: 1}),
    ],
    ids=["clifford-e", "clifford-f", "clifford-neg", "exterior-high", "exterior-edge",
         "exterior-neg", "spin-edge", "spin-neg"],
)
def test_out_of_level_mask_rejected(build):
    with pytest.raises(IndexRangeError):
        build()


class TestSerialization:
    def test_canonical_text(self):
        x = cc.CliffordElement(
            2, {(0b11, 0b01): Fraction(1, 2), (0, 0): Fraction(-1)}
        )
        assert str(x) == "-1*1 + 1/2*e1e2f1"

    def test_zero(self):
        assert str(cc.CliffordElement.zero(2)) == "0"


class TestVectors:
    def test_pairing_table(self):
        n = 2
        e1 = cc.VectorInV.basis(n, 1)
        f1 = cc.VectorInV.basis(n, -1)
        f2 = cc.VectorInV.basis(n, -2)
        assert cc.pairing(e1, f1) == 1
        assert cc.pairing(e1, f2) == 0
        assert cc.quadratic_value(e1 + f1) == 2

    def test_coordinates_are_fractions(self):
        kept = Fraction(-5, 3)
        v = cc.VectorInV(4, [1, "2/3", kept], ["-7", 0])
        assert all(type(c) is Fraction for c in v.coords())
        assert v.coords() == [1, Fraction(2, 3), kept, 0, -7, 0, 0, 0]
        assert v.e[2] is kept
        assert type(cc.pairing(v, v)) is Fraction
        assert type(cc.pairing(v, cc.VectorInV(4))) is Fraction

    def test_wedge_of_vectors_alternates(self, rng):
        n = 3
        v = random_vector(n, rng)
        w = random_vector(n, rng)
        assert cc.wedge_of_vectors(n, [v, v]).is_zero()
        assert cc.wedge_of_vectors(n, [v, w]) == cc.wedge_of_vectors(n, [w, v]).scale(-1)

    def test_change_basis_roundtrip(self, rng):
        n = 2
        omega = cc.ExteriorVector(
            n, {rng.randrange(1 << (2 * n)): Fraction(rng.randint(-2, 2)) for _ in range(4)}
        )
        std = [cc.VectorInV.basis(n, s) for s in (1, 2, -1, -2)]
        assert omega.change_basis(std) == omega
