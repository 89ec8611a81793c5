"""Clifford algebra kernel: normal forms, products, the anti-automorphism,
the two-form embedding, and the module action on the exterior algebra."""

import re
from fractions import Fraction
from math import lcm

import pytest

from spinalg import cartan as ca
from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import suites
from spinalg.errors import IndexRangeError, LevelMismatchError

from conftest import (
    make_rng,
    oracle_apply_words,
    oracle_induced_map,
    oracle_letter,
    oracle_normal_form,
    oracle_quarter_embedding,
    random_clifford,
    random_exterior,
    random_isotropic,
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

    @pytest.mark.parametrize("sym", ["e0", "f0", "e-1", "f-2", ("e", 0), ("e", -2), ("f", 0), ("f", -1)])
    def test_index_below_one_rejected_by_name(self, sym):
        # "e-1" read as -1, which is f1; ("e", -2) made the vector f2; and
        # from_symbol named f0 for an "e0" the caller never wrote
        message = f"^symbol {re.escape(repr(sym))} has index -?\\d+; indices start at 1$"
        with pytest.raises(IndexRangeError, match=message):
            cc.parse_symbol(sym)
        with pytest.raises(IndexRangeError, match=message):
            cc.VectorInV.basis(3, sym)
        with pytest.raises(IndexRangeError, match=message):
            cc.CliffordElement.from_symbol(3, sym)
        with pytest.raises(IndexRangeError, match=message):
            nf(["e1", sym], 3)
        assert cc.parse_symbol(sym[:1] + "2" if isinstance(sym, str) else (sym[0], 2)) == (2 if sym[0] == "e" else -2)

    def test_confluence_against_rewrite_oracle(self):
        rng = make_rng("confluence")
        for n in range(2, 7):
            for _ in range(60):
                w = random_word(n, rng, rng.randint(1, 8))
                expect = oracle_normal_form(w, n)
                assert nf(w, n) == expect
                assert oracle_normal_form(w, n, rng) == expect


def random_letter(n, rng, frac):
    """A Clifford, exterior or vector letter over the 2n mask bits; vector
    letters get Fraction factors when frac is set, int factors otherwise."""
    sym = rng.choice([i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)])
    kind = rng.randrange(3)
    if kind == 0:
        return cc._clifford_letter(sym, n)
    if kind == 1:
        return cc._exterior_letter(sym, n)
    if frac:
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2 * n)]
    else:
        coords = [rng.randint(-3, 3) for _ in range(2 * n)]
    return oracle_letter(coords)


def random_words(n, rng, frac, count=4):
    """Seeded words of 0..4 letters with nonzero coefficients, Fractions
    with mixed denominators when frac is set."""
    words = []
    for _ in range(count):
        coef = rng.choice([-3, -1, 1, 2, 5])
        if frac:
            coef = Fraction(coef, rng.randint(1, 6))
        words.append((coef, [random_letter(n, rng, frac) for _ in range(rng.randint(0, 4))]))
    return words


def random_terms(n, rng, frac, count=5):
    terms = {}
    for _ in range(count):
        c = rng.choice([-4, -1, 1, 2, 3])
        terms[rng.randrange(1 << (2 * n))] = Fraction(c, rng.randint(1, 9)) if frac else c
    return terms


def kernel_values(words, terms):
    """cc._apply_words on terms with int or Fraction values: run on their
    numerators over the lcm of their denominators, the output divided by
    that lcm and the kernel's scale, as Fractions."""
    den = lcm(*[Fraction(c).denominator for c in terms.values()])
    out, scale = cc._apply_words(words, {m: int(c * den) for m, c in terms.items()})
    assert all(out.values())
    return {m: Fraction(c) / (den * scale) for m, c in out.items()}


class TestLetterKernel:
    """_apply_words runs on int terms and merges the words over the lcm of
    their coefficients' denominators, its scale; the kernel as first written
    (oracle_apply_words) computes on the coefficients as given.  src passes
    only letters with int factors, but the kernel also computes letters with
    Fraction factors exactly (oracle_letter)."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_int_input_gives_ints(self, n):
        rng = make_rng(f"kernel-int:{n}")
        for _ in range(25):
            words, terms = random_words(n, rng, False), random_terms(n, rng, False)
            out, scale = cc._apply_words(words, terms)
            assert scale == 1 and out == oracle_apply_words(words, terms)
            assert all(type(c) is int and c for c in out.values())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fraction_input_gives_fractions(self, n):
        rng = make_rng(f"kernel-frac:{n}")
        for k in range(25):
            # Fraction words on Fraction terms, and each of the two alone
            words = random_words(n, rng, k % 3 != 1)
            terms = random_terms(n, rng, k % 3 != 2)
            if k % 3 == 2:
                terms = {m: Fraction(c) for m, c in terms.items()}
            assert kernel_values(words, terms) == oracle_apply_words(words, terms)

    def test_vector_letters_with_fraction_factors(self):
        rng = make_rng("kernel-vector")
        for n in range(1, 7):
            for _ in range(10):
                coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(2 * n)]
                letters = [oracle_letter(coords), cc._exterior_letter(-1, n), oracle_letter(coords[::-1])]
                words = [(Fraction(2, 3), letters), (-1, letters[1:])]
                for terms in (random_terms(n, rng, True), random_terms(n, rng, False)):
                    assert kernel_values(words, terms) == oracle_apply_words(words, terms)

    @pytest.mark.parametrize("frac", [False, True], ids=["int", "fraction"])
    def test_cancellation_and_the_empty_word(self, frac):
        for n in range(1, 7):
            rng = make_rng(f"kernel-cancel:{n}:{frac}")
            terms = random_terms(n, rng, frac)
            letters = [random_letter(n, rng, frac) for _ in range(3)]
            one = Fraction(1) if frac else 1
            # a word minus itself, and a Clifford letter squared (e_i e_i = 0)
            assert kernel_values([(one, letters), (-one, letters)], terms) == {}
            square = [cc._clifford_letter(n, n)] * 2
            assert kernel_values([(3 * one, square)], terms) == {}
            # the empty word scales the terms; a second word cancels some of them
            assert kernel_values([(2 * one, [])], terms) == {m: 2 * c for m, c in terms.items()}
            words = [(one, []), (one, [cc._exterior_letter(1, n)]), (-one, [])]
            assert kernel_values(words, terms) == oracle_apply_words(words, terms)
            if not frac:
                out, scale = cc._apply_words(words, terms)
                assert scale == 1 and all(type(c) is int for c in out.values())
        assert cc._apply_words([], {1: 1}) == ({}, 1) and cc._apply_words([(1, [])], {}) == ({}, 1)


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


class TestStarMul:
    """star_mul(a, b) is star(a) * b, made without the normal-ordered star(a)."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_star_then_mul(self, n):
        rng = make_rng(f"star-mul:{n}")
        for t in range(8):
            a = random_clifford(n, rng, nterms=2 + t)
            b = random_clifford(n, rng, nterms=2 + t)
            if t % 2:
                a = cc.CliffordElement(n, {m: c / rng.randint(1, 6) for m, c in a.terms.items()})
                b = cc.CliffordElement(n, {m: c / rng.randint(1, 6) for m, c in b.terms.items()})
            assert cc.star_mul(a, b) == cc.mul(cc.star(a), b)

    def test_against_rewrite_oracle(self):
        rng = make_rng("star-mul-oracle")
        for n in range(1, 5):
            for _ in range(8):
                a = random_clifford(n, rng, nterms=3)
                b = random_clifford(n, rng, nterms=3)
                expect = cc.CliffordElement.zero(n)
                for m1, c1 in a.terms.items():
                    for m2, c2 in b.terms.items():
                        word = cc.monomial_word(m1)[::-1] + cc.monomial_word(m2)
                        expect = expect + oracle_normal_form(word, n).scale(c1 * c2)
                assert cc.star_mul(a, b) == expect

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_and_unit(self, n):
        rng = make_rng(f"star-mul-unit:{n}")
        a = random_clifford(n, rng, nterms=5)
        zero, unit = cc.CliffordElement.zero(n), cc.CliffordElement.unit(n)
        assert cc.star_mul(a, unit) == cc.star(a)
        assert cc.star_mul(unit, a) == a
        assert cc.star_mul(zero, a) == zero
        assert cc.star_mul(a, zero) == zero
        assert cc.star_mul(unit, unit) == unit

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatchError):
            cc.star_mul(cc.CliffordElement.unit(2), cc.CliffordElement.unit(3))


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bracket_check_matches_the_oracle(self, n):
        assert suites._check_quarter_embedding(n, 7, 4) is None
        assert oracle_quarter_embedding(n, 7, 4) is None

    @pytest.mark.parametrize("kind", ["sign", "factor", "drop"])
    def test_bracket_check_fails_like_the_oracle_on_broken_letters(self, kind, monkeypatch):
        # one Clifford letter of the table broken: the wedge move's sign
        # flipped, or the contraction's factor 2 made 3, or the contraction
        # dropped; every bit of every level, the witness must be the oracle's
        real = cc._letter_table
        mutate = {
            "sign": lambda letter: ((letter[0][0], letter[0][1], -letter[0][2]),) + letter[1:],
            "factor": lambda letter: letter[:1] + ((letter[1][0], letter[1][1], 3),),
            "drop": lambda letter: letter[:1],
        }[kind]
        failing = 0
        for n in range(1, 7):
            for bit in range(0 if kind == "sign" else n, 2 * n):
                def broken(letter, level, bit=bit):
                    table = real(letter, level)
                    if letter is not cc._clifford_letter:
                        return table
                    return table[:bit] + (mutate(table[bit]),) + table[bit + 1 :]

                monkeypatch.setattr(cc, "_letter_table", broken)
                got = suites._check_quarter_embedding(n, 7, 4)
                assert got == oracle_quarter_embedding(n, 7, 4)
                failing += got is not None
        assert failing


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


def plain(cls, n, terms):
    return cls(n, terms)


def operator_of(cls, n, terms):
    """The level (n, n) operator of the terms keyed (column, row)."""
    cols = {}
    for (m, r), c in terms.items():
        cols.setdefault(m, {})[r] = c
    return cls(n, n, {m: sr.SpinVector(n, col) for m, col in cols.items()})


def vector_of(cls, n, terms):
    """The vector of the coordinates keyed by bit, through the (n, e, f)
    constructor; a key past 2n lengthens the f-block past n."""
    coords = [terms.get(b, 0) for b in range(max([2 * n] + [b + 1 for b in terms]))]
    return cls(n, coords[:n], coords[n:])


# each element type at level 2 (an operator at (2, 2)): its constructor on
# (type, level, terms), a key inside the level as the constructor takes it
# and as the terms hold it, and a key just outside the level
ELEMENT_TYPES = {
    "clifford": (cc.CliffordElement, plain, (0b11, 0b01), (0b11, 0b01), (0, 0b100)),
    "exterior": (cc.ExteriorVector, plain, 0b1010, 0b1010, 1 << 4),
    "spin": (sr.SpinVector, plain, 0b11, 0b11, 1 << 2),
    "two-form": (sr.SoElement, lambda cls, n, terms: cls(n, ef=terms), (1, 2), 0b1001, (1, 3)),
    "polynomial": (ie.Polynomial, lambda cls, n, terms: cls(False, n, terms), (0b01, 0b11), (0b01, 0b11), (0b100,)),
    "operator": (sr.LinearOperator, operator_of, (0b01, 0b11), 0b11 | 0b01 << 2, (0b100, 0)),
    "vector": (cc.VectorInV, vector_of, 2, 2, 4),
}


@pytest.mark.parametrize("cls, make, arg, key, outside", ELEMENT_TYPES.values(), ids=ELEMENT_TYPES.keys())
def test_element_contract(cls, make, arg, key, outside):
    with pytest.raises(IndexRangeError):
        make(cls, 2, {outside: 1})
    x = make(cls, 2, {arg: Fraction(3, 2)})
    assert x.terms == {key: Fraction(3, 2)}
    other_level = make(cls, 3, {arg: 1})
    with pytest.raises(LevelMismatchError):
        x + other_level
    with pytest.raises(LevelMismatchError):
        x - other_level

    class Twin(cls):
        __slots__ = ()

    twin = make(Twin, 2, {arg: Fraction(3, 2)})
    assert x != twin and twin != x
    with pytest.raises(TypeError):
        x + twin
    y = make(cls, 2, {arg: 3}).scale(Fraction(1, 2))
    assert y == x and hash(y) == hash(x)
    zero = cls.zero(x.n)
    assert zero == make(cls, 2, {}) and zero.n == x.n and hash(zero) == hash(make(cls, 2, {}))
    assert x - x == zero and x.scale(0) == zero and -x + x == zero
    assert (-x).coefficient(key) == Fraction(-3, 2) and zero.coefficient(key) == 0


@pytest.mark.parametrize("cls, make, arg, key, outside", ELEMENT_TYPES.values(), ids=ELEMENT_TYPES.keys())
def test_hash_reads_the_numerators_only(cls, make, arg, key, outside):
    # hashing builds no Fraction view; equal elements still hash equal
    x = make(cls, 2, {arg: Fraction(-3, 2)})
    y = make(cls, 2, {arg: 3}).scale(Fraction(-1, 2))
    assert hash(x) == hash(y)
    assert not hasattr(x, "_terms") and not hasattr(y, "_terms")
    assert x.terms == y.terms


def test_polynomial_zero_at_the_limit_and_other_operands():
    assert ie.Polynomial.zero(-1) == ie.Polynomial.zero_limit() == ie.Polynomial(True, -1)
    assert ie.Polynomial.zero(-1).is_limit and not ie.Polynomial.zero(4).is_limit
    with pytest.raises(TypeError):
        ie.Polynomial.constant_finite(4, 1) + 1
    with pytest.raises(TypeError):
        sr.SoElement.basis_ee(4, 1, 2) - cc.ExteriorVector(4)


# operations on an operand of level 4 or 5 given one of level 5 or 4: each
# names both levels, the receiver's first
LEVEL_ERRORS = {
    "vector-add": lambda: cc.VectorInV(4) + cc.VectorInV(5),
    "vector-sub": lambda: cc.VectorInV(4) - cc.VectorInV(5),
    "pairing": lambda: cc.pairing(cc.VectorInV(4), cc.VectorInV(5)),
    "wedge-of-vectors": lambda: cc.wedge_of_vectors(4, [cc.VectorInV(4), cc.VectorInV(5)]),
    "so-add": lambda: sr.SoElement(4) + sr.SoElement(5),
    "so-sub": lambda: sr.SoElement(4) - sr.SoElement(5),
    "operator-apply": lambda: sr.LinearOperator.identity(4).apply(sr.SpinVector.basis(5, 0)),
    "group-mul": lambda: sr.GroupElement.identity(4) * sr.GroupElement.identity(5),
    "certify": lambda: ie.certify_membership(
        sr.SpinVector.omega1(5), ie.orbit_pullback_family(4, "levels", 1)
    ),
    "operator-add": lambda: sr.LinearOperator.of_contraction(4, 3) + sr.LinearOperator.of_contraction(5, 3),
    "operator-sub": lambda: sr.LinearOperator.of_contraction(4, 3) - sr.LinearOperator.of_contraction(5, 3),
    "operator-compose": lambda: sr.LinearOperator.identity(4).compose(sr.LinearOperator.identity(5)),
    "determinant": lambda: sr.LinearOperator(4, 5).determinant(),
    "injectivity": lambda: ca.injectivity_witness(sr.SpinVector.basis(4, 0), sr.SpinVector.basis(5, 0)),
    "lower-factorization": lambda: ca.lower_factorization(4, 4, 4, sr.GroupElement.identity(5)),
    "polynomial-add": lambda: ie.Polynomial.constant_finite(4, 1) + ie.Polynomial.constant_finite(5, 1),
    "polynomial-sub": lambda: ie.Polynomial.constant_finite(4, 1) - ie.Polynomial.constant_finite(5, 1),
    "polynomial-mul": lambda: ie.Polynomial.constant_finite(4, 1) * ie.Polynomial.constant_finite(5, 1),
    "variable-partial": lambda: ie.Polynomial.constant_finite(4, 1).partial(ie.SpinVariable.finite(5, 3)),
    "to-finite": lambda: ie.Polynomial.constant_finite(4, 1).to_finite(5),
    "pullback": lambda: ie.pullback(ie.Polynomial.constant_finite(4, 1), sr.LinearOperator.identity(5)),
    "vanishing-forms": lambda: ie.vanishing_forms([sr.SpinVector.basis(4, 0), sr.SpinVector.basis(5, 0)], 1),
}


@pytest.mark.parametrize("call", LEVEL_ERRORS.values(), ids=LEVEL_ERRORS.keys())
def test_level_errors_name_both_levels(call):
    with pytest.raises(LevelMismatchError, match=r"^levels differ: 4 vs 5$"):
        call()


def test_polynomial_level_errors_name_the_limit():
    finite = ie.Polynomial.constant_finite(4, 1)
    with pytest.raises(LevelMismatchError, match=r"^levels differ: limit vs 4$"):
        ie.Polynomial.zero_limit() + finite
    with pytest.raises(LevelMismatchError, match=r"^levels differ: 4 vs limit$"):
        finite.partial(ie.SpinVariable.limit(3))


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
        assert v.e[2] == kept
        assert type(cc.pairing(v, v)) is Fraction
        assert type(cc.pairing(v, cc.VectorInV(4))) is Fraction

    def test_str_names_each_nonzero_coordinate(self):
        assert str(cc.VectorInV(2, [1], [0, Fraction(-1, 3)])) == "1*e1 + -1/3*f2"
        assert repr(cc.VectorInV(3, [0, 2, 0], [5])) == "2*e2 + 5*f1"
        assert str(cc.VectorInV(2)) == "0"

    def test_keys_are_coordinate_bits(self):
        # e_i at bit i-1 and f_j at bit n+j-1, as in the degree-1 exterior keys
        n = 3
        for s in (1, 3, -1, -3):
            v = cc.VectorInV.basis(n, s)
            assert v.num == {cc._bit(s, n): 1} and v.den == 1
            assert cc.wedge_of_vectors(n, [v]) == cc.ExteriorVector(n, {1 << cc._bit(s, n): 1})
        v = cc.VectorInV(n, [Fraction(1, 2)], [0, 0, Fraction(-2, 3)])
        assert (v.num, v.den) == ({0: 3, 5: -4}, 6)
        assert v.e == (Fraction(1, 2), 0, 0) and v.f == (0, 0, Fraction(-2, 3))
        with pytest.raises(AttributeError):
            v.e = (1, 2, 3)

    def test_blocks_longer_than_the_level_are_refused(self):
        # unchecked, a third e-coordinate at level 2 would be read as f_1
        for e, f in (([1, 2, 3], []), ([], [0, 0, 1])):
            with pytest.raises(IndexRangeError, match="^coordinate sequence longer than level$"):
                cc.VectorInV(2, e, f)
        with pytest.raises(IndexRangeError, match="^expected 2n coordinates$"):
            cc.VectorInV.from_coords(2, [1, 2, 3])

    def test_sum_with_another_type_is_a_type_error(self):
        v = cc.VectorInV.basis(2, 1)
        for other in (1, cc.ExteriorVector(2, {1: 1}), [1, 0, 0, 0]):
            with pytest.raises(TypeError):
                v + other
            with pytest.raises(TypeError):
                v - other

    def test_arithmetic_matches_coordinates(self, rng):
        # sparse vectors, so the zero-skipping paths of scale, + and - are hit
        n = 5
        for _ in range(20):
            v, w = (
                cc.VectorInV.from_coords(
                    n,
                    [
                        Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.3 else 0
                        for _ in range(2 * n)
                    ],
                )
                for _ in range(2)
            )
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            cases = [
                (v.scale(c), [c * a for a in v.coords()]),
                (v + w, [a + b for a, b in zip(v.coords(), w.coords())]),
                (v - w, [a - b for a, b in zip(v.coords(), w.coords())]),
                (w - w, [0] * (2 * n)),
                (v.scale(2), [2 * a for a in v.coords()]),
            ]
            for got, want in cases:
                assert got.coords() == want
                assert all(type(x) is Fraction for x in got.coords())
        for s in (1, 2, -1, -2):
            b = cc.VectorInV.basis(n, s)
            assert all(type(x) is Fraction for x in b.coords())
            assert b.coords() == [int(k == (s - 1 if s > 0 else n - s - 1)) for k in range(2 * n)]

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

    def test_wedge_of_vectors_rejects_other_level(self):
        # unchecked, the level-2 f_1 is read as the level-3 e_3
        with pytest.raises(LevelMismatchError):
            cc.wedge_of_vectors(3, [cc.VectorInV.basis(2, -1)])

    def test_inner_vector_rejects_other_level(self):
        # iota(e_1) f_1 = 1, but a level-2 e_1 contracted the level-3 e_3
        with pytest.raises(LevelMismatchError):
            cc.ExteriorVector(3, {0b001000: 1}).inner_vector(cc.VectorInV.basis(2, 1))


class TestInducedMap:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("den", [1, 3])
    def test_against_per_monomial_oracle(self, n, den):
        rng = make_rng(f"induced:{n}:{den}")
        for _ in range(3):
            cols = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, den)) for _ in range(2 * n)]
                for _ in range(2 * n)
            ]
            omega = random_exterior(n, rng, den=den)
            images = [cc.VectorInV.from_coords(n, col) for col in cols]
            assert cc.induced_map(omega, cols) == oracle_induced_map(omega, images)

    def test_identity_and_composition(self, rng):
        n = 3
        omega = random_exterior(n, rng, nterms=6)
        eye = linalg.identity(2 * n)
        assert cc.induced_map(omega, eye) == omega
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(2 * n)] for _ in range(2 * n)]
        b = [[Fraction(rng.randint(-2, 2)) for _ in range(2 * n)] for _ in range(2 * n)]
        # cols are the columns of the matrix, stored as rows of its transpose
        ab = linalg.transpose(linalg.matmul(linalg.transpose(a), linalg.transpose(b)))
        assert cc.induced_map(cc.induced_map(omega, b), a) == cc.induced_map(omega, ab)

    def test_change_basis_rejects_rows_of_other_level(self):
        # unchecked, four level-1 rows pass the 2n count at level 2 and give -e1^e2
        omega = cc.ExteriorVector(2, {0b0011: 1})
        rows = [cc.VectorInV(1, [a], [b]) for a, b in ((1, 0), (0, 1), (1, 1), (2, 1))]
        with pytest.raises(LevelMismatchError):
            omega.change_basis(rows)

    def test_needs_2n_columns(self):
        omega = cc.ExteriorVector.unit(2)
        with pytest.raises(IndexRangeError, match="need 2n basis vectors"):
            cc.induced_map(omega, linalg.identity(3))

    def test_columns_must_have_2n_coordinates(self):
        # a long column once reached key 4 at level 1 (1*e1 + 5*1); a short
        # one was padded with zeros
        omega = cc.ExteriorVector(1, {1: 1})
        for cols, bad in (([[1, 0, 5], [0, 1]], 0), ([[1, 0], [1]], 1)):
            with pytest.raises(IndexRangeError, match=f"column {bad} has {len(cols[bad])} coordinates; expected 2n = 2"):
                cc.induced_map(omega, cols)
        assert cc.induced_map(omega, [[1, 0], [0, 1]]) == omega

    @pytest.mark.parametrize("n", range(2, 7))
    def test_change_basis_hyperbolic(self, n):
        rng = make_rng(f"change-basis:{n}")
        rows = gc.hyperbolic_basis_through(random_isotropic(n, rng)).rows()
        for _ in range(3):
            omega = random_exterior(n, rng)
            moved = omega.change_basis(rows)
            inverse = linalg.inverse([row.coords() for row in rows])
            images = [cc.VectorInV.from_coords(n, col) for col in inverse]
            assert moved == oracle_induced_map(omega, images)
            assert oracle_induced_map(moved, rows) == omega
