"""The wedge model of the spin representation: letter operators, two-form
action, the left-ideal dictionary, group elements, and the gl twist."""

import copy
import pickle
from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import transfer_maps as tm
from spinalg.errors import (
    IndexRangeError,
    InvalidRootVectorError,
    LevelMismatchError,
    NotInLeftIdealError,
    StructureError,
)

from conftest import (
    make_rng,
    oracle_group_apply,
    oracle_integer_row,
    oracle_operator,
    oracle_random_group_element,
    oracle_root_table,
    oracle_so_matrix,
    oracle_so_from_clifford,
    oracle_so_matrix_replay,
    oracle_so_words,
    oracle_two_form_matrix,
    oracle_word_rows,
    random_spin,
    random_two_form_blocks,
    random_vector,
    read_operator,
    split_form,
    word_rows,
)


class TestLetterOperators:
    def test_outer_examples(self):
        n = 2
        one = sr.SpinVector.basis(n, 0)
        e1 = cc.VectorInV.basis(n, 1)
        e2 = cc.VectorInV.basis(n, 2)
        assert sr.outer(e1, one) == sr.SpinVector.basis(n, [1])
        assert sr.outer(e1, sr.SpinVector.basis(n, [1])).is_zero()
        # one transposition, cross-checked against the Clifford product
        assert sr.outer(e2, sr.SpinVector.basis(n, [1])) == sr.SpinVector.basis(
            n, [1, 2]
        ).scale(-1)
        assert cc.normal_form(["e2", "e1"], n) == cc.normal_form(["e1", "e2"], n).scale(-1)

    def test_basis_rejects_a_repeated_index(self):
        # e1^e1 is zero, not e1: a repeated index names no basis vector
        for n, indices, i in ((2, [1, 1], 1), (3, [2, 1, 2], 2), (3, (3, 3), 3)):
            with pytest.raises(IndexRangeError, match=f"^index {i} repeated"):
                sr.SpinVector.basis(n, indices)
        assert sr.SpinVector.basis(3, [2, 1]) == sr.SpinVector.basis(3, 0b11)

    def test_outer_rejects_f_part(self):
        with pytest.raises(IndexRangeError):
            sr.outer(cc.VectorInV.basis(2, -1), sr.SpinVector.basis(2, 0))

    def test_inner_examples(self):
        n = 3
        f1 = cc.VectorInV.basis(n, -1)
        f2 = cc.VectorInV.basis(n, -2)
        f3 = cc.VectorInV.basis(n, -3)
        e1 = sr.SpinVector.basis(n, [1])
        e12 = sr.SpinVector.basis(n, [1, 2])
        assert sr.inner(f1, e1) == sr.SpinVector.basis(n, 0)
        assert sr.inner(f2, e12) == sr.SpinVector.basis(n, [1]).scale(-1)
        assert sr.inner(f3, e12).is_zero()

    def test_inner_rejects_e_part(self):
        with pytest.raises(IndexRangeError):
            sr.inner(cc.VectorInV.basis(2, 1), sr.SpinVector.basis(2, 0))


class TestTwoFormAction:
    def test_diagonal_on_highest_weight(self):
        for n in (2, 3, 4):
            w0 = sr.SpinVector.omega0(n)
            for i in range(1, n + 1):
                assert sr.rho_so(sr.SoElement.basis_ef(n, i, i), w0) == w0.scale(
                    Fraction(1, 2)
                )

    def test_chevalley_facts(self):
        for n in (2, 3, 4):
            w0 = sr.SpinVector.omega0(n)
            w1 = sr.SpinVector.omega1(n)
            for i in range(1, n):
                assert sr.rho_so(sr.SoElement.chevalley_h(n, i), w0).is_zero()
            assert sr.rho_so(sr.SoElement.chevalley_h(n, n), w0) == w0
            assert sr.rho_so(sr.SoElement.chevalley_h(n, n - 1), w1) == w1
            assert sr.rho_so(sr.SoElement.chevalley_h(n, n), w1).is_zero()
            for i in range(1, n - 1):
                assert sr.rho_so(sr.SoElement.chevalley_h(n, i), w1).is_zero()

    def test_chevalley_h_names_the_level_below_two(self):
        # h_n = e_(n-1)^f_(n-1) + e_n^f_n needs n >= 2: the error names the
        # level, not a pair of indices the caller never gave
        with pytest.raises(IndexRangeError, match="h_1 needs level >= 2, got level 1"):
            sr.SoElement.chevalley_h(1, 1)
        for i in (0, 2):
            with pytest.raises(IndexRangeError, match=f"h_{i} undefined at level 1"):
                sr.SoElement.chevalley_h(1, i)

    def test_ff_lowering_scalar(self):
        # the model action of f_1^f_2 on the top wedge at level 2 is -2
        out = sr.rho_so(sr.SoElement.basis_ff(2, 1, 2), sr.SpinVector.basis(2, [1, 2]))
        assert out == sr.SpinVector.basis(2, 0).scale(-2)

    def test_parity_preserved(self, rng):
        n = 4
        for parity in ("even", "odd"):
            x = random_spin(n, rng, parity)
            for kind, i, j in sr.all_root_vectors(n)[:10]:
                y = sr.rho_so(sr.root_so_element(n, kind, i, j), x)
                assert y.is_zero() or y.parity() == parity

    def test_agreement_with_left_ideal_action(self, rng):
        n = 3
        for _ in range(10):
            x = random_spin(n, rng)
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            for form in (
                sr.SoElement.basis_ee(n, i, j),
                sr.SoElement.basis_ff(n, i, j),
                sr.SoElement.basis_ef(n, j, i),
                sr.SoElement.basis_ef(n, i, i),
            ):
                via_model = sr.rho_so(form, x)
                via_ideal = sr.from_left_ideal(
                    cc.mul(cc.so_to_clifford(form), sr.to_left_ideal(x))
                )
                assert via_model == via_ideal

    def test_bracket_compatibility_full(self):
        for n in (2, 3):
            forms = []
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    forms.append(sr.SoElement.basis_ee(n, i, j))
                    forms.append(sr.SoElement.basis_ff(n, i, j))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    forms.append(sr.SoElement.basis_ef(n, i, j))
            basis = [sr.SpinVector.basis(n, m) for m in range(1 << n)]
            for x in forms:
                for y in forms:
                    z = sr.so_bracket(x, y)
                    for b in basis:
                        lhs = sr.rho_so(z, b)
                        rhs = sr.rho_so(x, sr.rho_so(y, b)) - sr.rho_so(
                            y, sr.rho_so(x, b)
                        )
                        assert lhs == rhs


class TestLeftIdeal:
    def test_highest_weight_dictionary(self):
        n = 3
        full = (1 << n) - 1
        assert sr.to_left_ideal(sr.SpinVector.omega0(n)) == cc.CliffordElement(
            n, {(full, full): Fraction(1)}
        )
        assert sr.to_left_ideal(sr.SpinVector.basis(n, 0)) == cc.CliffordElement(
            n, {(0, full): Fraction(1)}
        )

    def test_roundtrip(self, rng):
        x = random_spin(4, rng)
        assert sr.from_left_ideal(sr.to_left_ideal(x)) == x

    def test_rejects_outside_ideal(self):
        with pytest.raises(NotInLeftIdealError):
            sr.from_left_ideal(cc.CliffordElement.unit(2))

    def test_clifford_action_matches_multiplication(self, rng):
        n = 3
        for _ in range(10):
            a = cc.CliffordElement(
                n,
                {
                    (rng.randrange(1 << n), rng.randrange(1 << n)): Fraction(
                        rng.randint(-2, 2)
                    )
                    for _ in range(3)
                },
            )
            x = random_spin(n, rng)
            lhs = sr.clifford_action_on_spin(a, x)
            rhs = sr.from_left_ideal(cc.mul(a, sr.to_left_ideal(x)))
            assert lhs == rhs


class TestSoElement:
    def test_matrix_roundtrip(self, rng):
        n = 3
        x = sr.SoElement(
            n,
            ee={(1, 2): Fraction(2), (2, 3): Fraction(-1)},
            ff={(1, 3): Fraction(5)},
            ef={(2, 1): Fraction(3), (3, 3): Fraction(-2)},
        )
        assert sr.SoElement.from_matrix(n, x.matrix()) == x

    def test_matrix_is_skew_for_the_form(self):
        n = 2
        j = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(n):
            j[i][n + i] = Fraction(1)
            j[n + i][i] = Fraction(1)
        m = sr.SoElement.basis_ef(n, 1, 2).matrix()
        lhs = linalg.matmul(linalg.transpose(m), j)
        rhs = linalg.matmul(j, m)
        assert lhs == [[-x for x in row] for row in rhs]

    def test_from_matrix_rejects_other_shapes(self):
        # a 4 x 4 matrix at level 3 and a 6 x 6 one at level 2, and a ragged one
        with pytest.raises(IndexRangeError, match=r"^expected a 6 x 6 matrix at level 3$"):
            sr.SoElement.from_matrix(3, sr.SoElement.basis_ef(2, 1, 2).matrix())
        with pytest.raises(IndexRangeError, match=r"^expected a 4 x 4 matrix at level 2$"):
            sr.SoElement.from_matrix(2, sr.SoElement.basis_ef(3, 1, 2).matrix())
        with pytest.raises(IndexRangeError, match=r"^expected a 4 x 4 matrix at level 2$"):
            sr.SoElement.from_matrix(2, [[0] * 4, [0] * 4, [0] * 3, [0] * 4])

    @pytest.mark.parametrize("degree, word", [(1, ["e1"]), (1, ["f3"]), (3, ["e1", "e2", "f3"]), (3, ["f1", "f2", "f3"])])
    def test_so_from_clifford_names_the_degree(self, degree, word):
        z = cc.normal_form(word, 3) + cc.so_to_clifford(sr.SoElement.basis_ee(3, 1, 2))
        with pytest.raises(StructureError, match=rf"has degree {degree}, not 2$"):
            sr.so_from_clifford(z)

    @pytest.mark.parametrize("blocks, message", [
        ({"ee": {(2, 2): 1}}, r"^pair \(2,2\) must satisfy i < j$"),
        ({"ff": {(3, 1): 1}}, r"^pair \(3,1\) must satisfy i < j$"),
        ({"ee": {(1, 4): 1}}, r"^index pair \(1,4\) out of range 1..3$"),
        ({"ef": {(0, 1): 1}}, r"^index pair \(0,1\) out of range 1..3$"),
    ])
    def test_constructor_rejects_pairs_outside_the_blocks(self, blocks, message):
        with pytest.raises(IndexRangeError, match=message):
            sr.SoElement(3, **blocks)

    def test_keys_are_the_masks_of_the_two_bits(self):
        x = sr.SoElement(3, ee={(1, 3): 1}, ff={(2, 3): 2}, ef={(2, 2): 3, (3, 1): 4})
        assert x.terms == {0b000101: 1, 0b110000: 2, 0b010010: 3, 0b001100: 4}
        assert str(x) == "1*e1^e3 + 4*e3^f1 + 3*e2^f2 + 2*f2^f3"  # in mask order
        assert x.trace_gl() == 3


class TestTwoFormsAgainstBlocks:
    """The mask-keyed two-form against the block-by-block routes it replaced
    (the conftest oracles), on random two-forms with every block, diagonal
    e_i^f_i terms and Fraction coefficients."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matrix_words_and_embedding_match_the_blocks(self, n):
        rng = make_rng(f"two-form-blocks:{n}")
        basis = sr._tagged_basis(n)
        for _ in range(4):
            blocks = random_two_form_blocks(n, rng)
            x = sr.SoElement(n, **blocks)
            assert x.matrix() == oracle_two_form_matrix(n, blocks)
            assert sr._so_words(x) == oracle_so_words(blocks)
            assert cc._apply_words(sr._so_words(x), basis) == cc._apply_words(oracle_so_words(blocks), basis)
            gl = sr.SoElement(n, ef=blocks["ef"])
            standard = [(c, [sr._o(i), sr._iota(j)]) for (i, j), c in blocks["ef"].items()]
            assert cc._apply_words(sr._standard_words(gl), basis) == cc._apply_words(standard, basis)
            assert gl.trace_gl() == x.trace_gl() == sum(c for (i, j), c in blocks["ef"].items() if i == j)
            assert sr.SoElement.from_matrix(n, x.matrix()) == x
            z = cc.so_to_clifford(x)
            assert sr.so_from_clifford(z) == x == sr.SoElement(n, **oracle_so_from_clifford(z))
            y = sr.SoElement(n, **random_two_form_blocks(n, rng))
            for got in (x + y, x - y.scale(Fraction(2, 3)), -x):
                z = cc.so_to_clifford(got)
                assert sr.so_from_clifford(z) == got == sr.SoElement(n, **oracle_so_from_clifford(z))
                assert sr.SoElement.from_matrix(n, got.matrix()) == got
                assert got.matrix() == oracle_two_form_matrix(n, oracle_so_from_clifford(z))
                assert cc._apply_words(sr._so_words(got), basis) == cc._apply_words(
                    oracle_so_words(oracle_so_from_clifford(z)), basis
                )


class TestGroupElements:
    def test_zero_parameter_is_identity(self, rng):
        g = sr.exp_nilpotent(3, "ee", 1, 2, 0)
        x = random_spin(3, rng)
        assert g.apply(x) == x

    def test_inverse(self, rng):
        n = 3
        for kind, i, j in sr.all_root_vectors(n):
            t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            g = sr.exp_nilpotent(n, kind, i, j, t)
            x = random_spin(n, rng)
            assert g.inverse().apply(g.apply(x)) == x

    def test_ff_exponential_frozen(self):
        t = Fraction(7, 3)
        g = sr.exp_nilpotent(2, "ff", 1, 2, t)
        out = g.apply(sr.SpinVector.omega0(2))
        assert out == sr.SpinVector(2, {0b11: Fraction(1), 0: -2 * t})

    def test_roots_square_to_zero(self, rng):
        # exp(t X) = I + t rho(X) rests on this for every permitted root; the
        # compiled exponential of GroupElement.apply must agree with rho_so,
        # on basis vectors and on one dense vector per root
        params = [Fraction(-2), Fraction(-1), Fraction(1, 3), Fraction(2)]
        for n in range(1, 7):
            for kind, i, j in sr.all_root_vectors(n):
                x = sr.root_so_element(n, kind, i, j)
                vectors = [sr.SpinVector.basis(n, m) for m in range(1 << n)]
                for v in vectors + [random_spin(n, rng)]:
                    xv = sr.rho_so(x, v)
                    assert sr.rho_so(x, xv).is_zero(), (kind, i, j, v)
                    for t in params:
                        compiled = sr.exp_nilpotent(n, kind, i, j, t).apply(v)
                        assert compiled == v + xv.scale(t), (kind, i, j, v, t)

    def test_apply_matches_oracle(self, rng):
        # the integer word run against x + t rho_so(X, x) on Fractions
        params = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(2)]
        for n in range(2, 7):
            roots = sr.all_root_vectors(n)
            dense = [
                sr.SpinVector(n, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in range(1 << n)})
                for _ in range(2)
            ]
            points = [sr.SpinVector.zero(n), sr.SpinVector.omega0(n), sr.SpinVector.omega1(n)] + dense
            words = [()] + [
                [(*rng.choice(roots), rng.choice(params)) for _ in range(length)]
                for length in (1, 3, 6, 10)
            ]
            for word in words:
                g = sr.GroupElement(n, word)
                for x in points:
                    assert g.apply(x) == oracle_group_apply(g, x), (n, word, x)

    def test_root_tables_are_integer_partial_permutations(self):
        for n in range(1, 7):
            for kind, i, j in sr.all_root_vectors(n):
                table, _inverse = sr._root_table(n, kind, i, j)
                assert table, (kind, i, j)
                assert len({img for img, _ in table.values()}) == len(table)
                for m, (img, c2) in table.items():
                    assert type(c2) is int and abs(c2) in (1, 2, 4)
                    image = sr.rho_so(sr.root_so_element(n, kind, i, j), sr.SpinVector.basis(n, m))
                    assert image == sr.SpinVector(n, {img: Fraction(c2, 2)})

    def test_root_tables_match_fraction_build(self):
        # the closed form against the Fraction build, entries and order, and
        # the stored inverse, in order, against the forward table read backwards
        for n in range(1, 8):
            for kind, i, j in sr.all_root_vectors(n):
                table, inverse = sr._root_table(n, kind, i, j)
                assert list(table.items()) == list(oracle_root_table(n, kind, i, j).items())
                assert list(inverse.items()) == [(img, (src, c2)) for src, (img, c2) in table.items()]

    @pytest.mark.parametrize(
        "kind,i,j,error",
        [
            ("ee", 2, 1, InvalidRootVectorError),
            ("ff", 2, 2, InvalidRootVectorError),
            ("ef", 3, 3, InvalidRootVectorError),
            ("eg", 1, 2, InvalidRootVectorError),
            ("ee", 0, 2, IndexRangeError),
            ("ef", 1, 5, IndexRangeError),
            ("ff", 3, 5, IndexRangeError),
        ],
    )
    def test_root_table_rejects_invalid_roots(self, kind, i, j, error):
        with pytest.raises(error):
            sr._root_table(4, kind, i, j)
        with pytest.raises(error):
            sr.GroupElement(4, [(kind, i, j, Fraction(1))])

    def test_word_rows_match_full_table_scan(self, rng):
        params = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(2)]
        for n in range(2, 7):
            roots = sr.all_root_vectors(n)
            words = [[(*rng.choice(roots), rng.choice(params)) for _ in range(length)] for length in (1, 3, 6, 10)]
            # a zero parameter leaves a letter out; an all-zero word is the identity
            words.append([(*roots[0], Fraction(0))])
            words.append([(*rng.choice(roots), Fraction(0) if k % 2 else Fraction(3, 2)) for k in range(6)])
            for word in words:
                g = sr.GroupElement(n, word)
                for targets in (ie.component_variables(min(n, 4)), list(range(1 << n))):
                    rows, den = word_rows(g, targets)
                    assert (rows, den) == oracle_word_rows(g, targets), (n, g)
                    assert all(list(row) == sorted(row) for row in rows)

    def test_root_table_build_rejects_other_shapes(self, monkeypatch):
        # the words-to-table route of the oracle that the closed form is checked against
        build = oracle_root_table.__wrapped__  # uncached, so no bad table is kept
        monkeypatch.setattr(sr, "_so_words", lambda x: [(Fraction(3, 4), [sr._o(1), sr._o(2)])])
        with pytest.raises(StructureError, match="scales mask"):
            build(2, "ee", 1, 2)
        # o(e_1) + o(e_2) sends the empty wedge to two masks
        monkeypatch.setattr(sr, "_so_words", lambda x: [(Fraction(1), [sr._o(1)]), (Fraction(1), [sr._o(2)])])
        with pytest.raises(StructureError, match="sends mask 0 to 2 masks"):
            build(2, "ee", 1, 2)
        # iota(f_1) (1 - o(e_2) iota(f_2)) + iota(f_2) (1 - o(e_1) iota(f_1))
        # sends both {1} and {2} to the empty wedge, and {1, 2} to 0
        words = [(Fraction(1), [sr._iota(1)]), (Fraction(1), [sr._iota(2)])]
        words += [(Fraction(-1), [sr._iota(a), sr._o(b), sr._iota(b)]) for a, b in ((1, 2), (2, 1))]
        assert [cc._apply_words(words, {m: 1}) for m in range(4)] == [({}, 1), ({0: 1}, 1), ({0: 1}, 1), ({}, 1)]
        monkeypatch.setattr(sr, "_so_words", lambda x: words)
        with pytest.raises(StructureError, match="two masks to one"):
            build(2, "ee", 1, 2)

    def test_no_roots_at_level_one(self):
        with pytest.raises(IndexRangeError, match="no root vectors below level 2"):
            sr.random_group_element(1, 3)

    def test_diagonal_root_rejected(self):
        with pytest.raises(InvalidRootVectorError):
            sr.exp_nilpotent(2, "ef", 1, 1, 1)

    def test_random_element_matches_the_validated_draw(self):
        # the same rng draws as the validating build, so every word is unchanged
        for n in range(2, 7):
            for seed in range(12):
                for length in range(1, 11):
                    g = sr.random_group_element(n, f"draw:{seed}", length)
                    expected = oracle_random_group_element(n, f"draw:{seed}", length)
                    assert (g.n, g.word) == (expected.n, expected.word)
                    assert all(type(t) is Fraction for *_root, t in g.word)

    def test_so_matrix_inverse_closed_form(self):
        for n in range(2, 8):
            for g in [sr.GroupElement.identity(n)] + [sr.random_group_element(n, f"inv:{s}", 4 + s) for s in range(6)]:
                m_inv = g.so_matrix_inverse()
                assert m_inv == g.inverse().so_matrix()
                assert linalg.matmul(g.so_matrix(), m_inv) == linalg.identity(2 * n)

    def test_random_element_determinism(self):
        g1 = sr.random_group_element(3, 11, 5)
        g2 = sr.random_group_element(3, 11, 5)
        assert g1.word == g2.word
        assert g1 == g2
        with pytest.raises(IndexRangeError):
            sr.random_group_element(3, 11, 0)

    def test_single_generator_word(self):
        g = sr.exp_nilpotent(3, "ee", 1, 2, 1)
        assert len(g.word) == 1
        assert g.serialize() == [["ee", 1, 2, "1"]]

    def test_unipotent_determinant(self):
        for n in (2, 3):
            for kind, i, j in sr.all_root_vectors(n):
                g = sr.exp_nilpotent(n, kind, i, j, 2)
                assert g.operator().determinant() == 1

    def test_covering_compatibility(self, rng):
        # group conjugation on the module action matches the orthogonal image
        n = 3
        g = sr.random_group_element(n, 42, 5)
        x = random_spin(n, rng)
        v = random_vector(n, rng)
        lhs = g.apply(sr.vector_action(v, g.inverse().apply(x)))
        mv = cc.VectorInV.from_coords(n, linalg.matvec(g.so_matrix(), v.coords()))
        assert lhs == sr.vector_action(mv, x)

    def test_so_matrix_is_orthogonal(self):
        n = 3
        g = sr.random_group_element(n, 5, 6)
        m = g.so_matrix()
        jm = split_form(n)
        assert linalg.matmul(linalg.matmul(linalg.transpose(m), jm), m) == jm
        assert linalg.det(m) == 1

    def test_so_matrix_matches_dense_product(self):
        for n in range(2, 7):
            for seed in range(8):
                g = sr.random_group_element(n, f"so:{seed}", 2 + seed)
                assert g.so_matrix() == oracle_so_matrix(g), (n, seed)
        g = sr.GroupElement(3, [("ef", 1, 2, Fraction(1, 3)), ("ee", 2, 3, 0)])
        assert g.so_matrix() == oracle_so_matrix(g)
        assert sr.GroupElement.identity(2).so_matrix() == linalg.identity(4)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_so_matrix_matches_the_fraction_replay(self, n):
        # integer rows over one denominator against the in-place Fraction
        # replay; random words carry integer parameters only, so words with
        # denominators (and zero steps) exercise the scaling
        rng = make_rng(f"so-replay:{n}")
        roots = sr.all_root_vectors(n)
        for length in range(1, 11):
            words = [sr.random_group_element(n, f"so-replay:{length}", length).word]
            words += [[(*rng.choice(roots), Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(length)]
                      for _ in range(3)]
            for word in words:
                g = sr.GroupElement(n, word)
                m = g.so_matrix()
                assert m == oracle_so_matrix_replay(g), (n, word)
                assert all(type(x) is Fraction for row in m for x in row)
                assert g.so_matrix() is m


def mixed_word(n, rng, length):
    """A word cycling through ee letters with odd and even t, and ff and ef
    letters with t in {1/3, -7/5, 3/2}; every fourth letter is a zero step."""
    roots = sr.all_root_vectors(n)
    params = {"ee": (1, -3, 2, -4), "ff": (Fraction(1, 3), Fraction(-7, 5), Fraction(3, 2))}
    word = []
    for k in range(length):
        kind = ("ee", "ff", "ef")[k % 3]
        t = 0 if k % 4 == 3 else rng.choice(params.get(kind, params["ff"]))
        word.append((*rng.choice([r for r in roots if r[0] == kind]), Fraction(t)))
    return word


class TestRootSteps:
    """The steps scale v by 2q/g only, g = gcd(2q, p gcd(2c)), and the words
    they make must still equal the Fraction oracles."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_apply_and_operator_match_the_oracle(self, n, rng):
        points = [sr.SpinVector.omega0(n), random_spin(n, rng)]
        points.append(sr.SpinVector(n, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in range(1 << n)}))
        for length in (1, 3, 4, 8, 12):
            g = sr.GroupElement(n, mixed_word(n, rng, length))
            for x in points:
                assert g.apply(x) == oracle_group_apply(g, x), (g, x)
            if n < 6:
                assert read_operator(sr.LinearOperator.of_group_element(g)) == oracle_operator(n, lambda x: oracle_group_apply(g, x))
            targets = ie.component_variables(min(n, 4))
            assert word_rows(g, targets) == oracle_word_rows(g, targets), g

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_family_rows_match_the_oracle(self, n, rng, monkeypatch):
        words = {f"family:mixed:{k}": mixed_word(n, rng, 3 + k) for k in range(1, 6)}
        real = sr.random_group_element
        monkeypatch.setattr(sr, "random_group_element",
                            lambda n, seed, length: sr.GroupElement(n, words[seed]) if seed in words else real(n, seed, length))
        targets = ie.component_variables(4)
        members = ie.orbit_pullback_family(n, "mixed", 6).members
        assert [list(m.g.word) for m in members[1:]] == list(words.values())
        for member in members:
            rows, den = oracle_word_rows(member.g, targets)
            dense = tuple(tuple(row.get(s, 0) for s in ie.component_variables(n)) for row in rows)
            assert (member.rows, member.den) == (dense, den), member.g

    @pytest.mark.parametrize("n", range(2, 7))
    def test_ff_and_ef_letters_with_integer_t_add_no_denominator(self, n, rng):
        # their 2c are multiples of 4 and 2, so g = 2q and the steps never
        # rescale; an ee letter with odd t still doubles the denominator
        roots = [r for r in sr.all_root_vectors(n) if r[0] != "ee"]
        g = sr.GroupElement(n, [(*rng.choice(roots), Fraction(rng.choice((-3, -2, -1, 1, 2, 5)))) for _ in range(10)])
        odd = sr.GroupElement(n, [("ee", 1, 2, Fraction(3))] + list(g.word) + [("ee", 1, n, Fraction(-1))])
        for transpose in (False, True):
            assert sr._word_steps(g, sr._tagged_basis(n), transpose, (1 << n) - 1)[1] == 1
            assert sr._word_steps(odd, sr._tagged_basis(n), transpose, (1 << n) - 1)[1] == 4
        x = random_spin(n, rng)
        assert g.apply(x) == oracle_group_apply(g, x) and odd.apply(x) == oracle_group_apply(odd, x)


class TestLinearOperator:
    def test_sum_and_difference_check_the_source_level(self):
        # same target level 3, sources 4 and 5: the sum read as a level-4
        # operator twice of_contraction(4, 3), the difference as zero
        a = sr.LinearOperator.of_contraction(4, 3)
        b = sr.LinearOperator.of_contraction(5, 3)
        for combine in (a.__add__, a.__sub__):
            with pytest.raises(LevelMismatchError, match=r"^levels differ: 4 vs 5$"):
                combine(b)
        assert (a + a).apply(sr.SpinVector.basis(4, 3)) == a.apply(sr.SpinVector.basis(4, 3)).scale(2)
        assert (a - a).is_zero()

    def test_contraction_cannot_raise_or_leave_the_levels(self):
        with pytest.raises(IndexRangeError, match="^tower contraction cannot raise the level$"):
            sr.LinearOperator.of_contraction(3, 4)
        with pytest.raises(IndexRangeError, match="^no level below 0$"):
            sr.LinearOperator.of_contraction(3, -1)

    @pytest.mark.parametrize("n", range(7))
    def test_contraction_keeps_the_masks_below_the_target(self, n):
        for target in range(n + 1):
            op = sr.LinearOperator.of_contraction(n, target)
            assert op.n == (n, target) and op.den == 1
            for m in range(1 << n):
                assert op.apply(sr.SpinVector.basis(n, m)) == tm.pi_tower(sr.SpinVector.basis(n, m), target)

    def test_sum_checks_the_target_level(self):
        with pytest.raises(LevelMismatchError, match=r"^levels differ: 3 vs 2$"):
            sr.LinearOperator.of_contraction(4, 3) + sr.LinearOperator.of_contraction(4, 2)

    def test_column_keys_name_source_coordinates(self):
        for key in (16, -1):
            with pytest.raises(IndexRangeError, match=f"key {key} out of range at level 4"):
                sr.LinearOperator(4, 4, {key: sr.SpinVector.basis(4, 3)})

    def test_columns_live_at_the_target_level(self):
        # a level-5 column of a level-4 operator, zero or not, is refused
        # rather than dropped by apply
        for col in (sr.SpinVector.basis(5, 0b10011), sr.SpinVector.zero(5)):
            with pytest.raises(LevelMismatchError, match=r"^levels differ: 4 vs 5$"):
                sr.LinearOperator(4, 4, {3: col})

    def test_entries_are_keyed_by_tagged_masks(self):
        # the level is the pair (source, target); row r of column m is keyed
        # r | m << target_n, over one denominator
        op = sr.LinearOperator(3, 2, {0b101: sr.SpinVector(2, {0b10: Fraction(1, 2), 0: 3}), 1: sr.SpinVector.zero(2)})
        assert op.n == (3, 2) and (op.source_n, op.target_n) == (3, 2)
        assert op.num == {0b10 | 0b101 << 2: 1, 0b101 << 2: 6} and op.den == 2
        assert str(op) == "3*[0,5] + 1/2*[2,5]"
        assert -op == op.scale(-1) and hash(op) == hash(op + sr.LinearOperator.zero((3, 2)))
        with pytest.raises(TypeError):
            op + sr.SpinVector.basis(2, 0)


class TestTwist:
    def test_trace_one_diagonal(self):
        n = 3
        a = sr.SoElement.basis_ef(n, 1, 1)
        assert sr.gl_twist_residual(a).is_zero()
        # the spin action shifts the empty wedge by -1/2
        out = sr.rho_so(a, sr.SpinVector.basis(n, 0))
        assert out == sr.SpinVector.basis(n, 0).scale(Fraction(-1, 2))

    def test_strictly_triangular_matches_standard(self, rng):
        n = 3
        a = sr.SoElement.basis_ef(n, 1, 2)
        assert sr.gl_twist_residual(a).is_zero()
        x = random_spin(n, rng)
        assert sr.rho_so(a, x) == sr.rho_standard(a, x)

    def test_random_gl_elements(self, rng):
        n = 3
        for _ in range(10):
            ef = {
                (i, j): Fraction(rng.randint(-3, 3))
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            }
            assert sr.gl_twist_residual(sr.SoElement(n, ef=ef)).is_zero()

    def test_rejects_non_gl(self):
        with pytest.raises(InvalidRootVectorError):
            sr.gl_twist_residual(sr.SoElement.basis_ee(2, 1, 2))


class TestSerialization:
    def test_spin_vector_text(self):
        x = sr.SpinVector(3, {0: Fraction(1, 2), 0b110: Fraction(-3)})
        assert str(x) == "1/2*1 + -3*e23"


class TestIntegerForm:
    def vectors(self):
        rng = make_rng("integer-form")
        return [
            sr.SpinVector(4, {0b1010: Fraction(-6, 5)}),
            sr.SpinVector(3, {0b110: Fraction(4), 0: Fraction(-6), 0b11: Fraction(10)}),
            sr.SpinVector(5, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in range(32)}),
            sr.SpinVector.zero(4),
            random_spin(6, rng, "even"),
            gc.sample_cone_point(6, "integer-form", "odd", 7),
        ]

    def test_form_matches_oracle_and_is_kept(self):
        for x in self.vectors():
            form = x.integer_form()
            assert form == oracle_integer_row(x.terms.items())
            assert list(form[0]) == [m for m, c in x.terms.items() if c]
            assert x.integer_form() == form

    def test_one_form_for_both_oracles_and_the_annihilator(self, monkeypatch):
        fam = ie.orbit_pullback_family(5, "one-form", 20)
        # the pair table is built on the first passing query, so a first
        # pure point of full support builds it before the count starts
        assert ie.certify_membership(gc.sample_cone_point(5, "one-form:warm", length=12), fam).passes
        # fresh vectors: off_cone_sample has already asked is_pure about its own
        points = [gc.sample_cone_point(5, "one-form", length=9), ie.off_cone_sample(5, "one-form")]
        points = [sr.SpinVector(5, dict(x.terms)) for x in points]
        calls = []
        real = linalg._integer_row

        def spy(items):
            calls.append(1)
            return real(items)

        monkeypatch.setattr(linalg, "_integer_row", spy)
        for x in points:
            calls.clear()
            verdict, member = gc.is_pure(x), ie.certify_membership(x, fam)
            gc.annihilator(x)
            assert verdict.on_cone == member.passes == (x is points[0])
            assert not calls  # the integer form is read off the element's numerators
            assert x.integer_form() == oracle_integer_row(x.terms.items())

    def test_equality_hash_repr_copy_and_pickle_read_the_terms(self):
        for x in self.vectors():
            fresh = sr.SpinVector(x.n, dict(x.terms))
            x.integer_form()
            for y in (fresh, copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(fresh))):
                assert y == x and hash(y) == hash(x) and repr(y) == repr(x) == str(x)
                assert y.integer_form() == x.integer_form()
            assert x != sr.SpinVector(x.n + 1, dict(x.terms))
            if not x.is_zero():
                assert x != x.scale(2) and x.integer_form()[0] == x.scale(2).integer_form()[0]
