"""The wedge model of the spin representation: letter operators, two-form
action, the left-ideal dictionary, group elements, and the gl twist."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import linalg
from spinalg import spin_rep as sr
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
    oracle_root_table,
    oracle_so_matrix,
    oracle_word_rows,
    random_spin,
    random_vector,
    split_form,
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
        # the integer build against the Fraction one, entries and order, and
        # the stored inverse against the forward table read backwards
        for n in range(2, 7):
            for kind, i, j in sr.all_root_vectors(n):
                table, inverse = sr._root_table(n, kind, i, j)
                assert list(table.items()) == list(oracle_root_table(n, kind, i, j).items())
                assert len(inverse) == len(table)
                for img, (src, c2) in inverse.items():
                    assert table[src] == (img, c2)
                for src, (img, c2) in table.items():
                    assert inverse[img] == (src, c2)

    def test_word_rows_match_full_table_scan(self, rng):
        params = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(2)]
        for n in range(4, 7):
            roots = sr.all_root_vectors(n)
            for length in (1, 3, 6, 10):
                g = sr.GroupElement(n, [(*rng.choice(roots), rng.choice(params)) for _ in range(length)])
                for targets in ([0, 3, 5, 6, 9, 10, 12, 15], list(range(1 << n))):
                    rows, den = sr._word_rows(g, targets)
                    assert (rows, den) == oracle_word_rows(g, targets), (n, g)

    def test_root_table_build_rejects_other_shapes(self, monkeypatch):
        build = sr._root_table.__wrapped__  # uncached, so no bad table is kept
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
        assert [cc._apply_words(words, {m: Fraction(1)}) for m in range(4)] == [{}, {0: 1}, {0: 1}, {}]
        monkeypatch.setattr(sr, "_so_words", lambda x: words)
        with pytest.raises(StructureError, match="two masks to one"):
            build(2, "ee", 1, 2)

    def test_no_roots_at_level_one(self):
        with pytest.raises(IndexRangeError, match="no root vectors below level 2"):
            sr.random_group_element(1, 3)

    def test_diagonal_root_rejected(self):
        with pytest.raises(InvalidRootVectorError):
            sr.exp_nilpotent(2, "ef", 1, 1, 1)

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

    def test_sum_checks_the_target_level(self):
        with pytest.raises(LevelMismatchError, match=r"^levels differ: 3 vs 2$"):
            sr.LinearOperator.of_contraction(4, 3) + sr.LinearOperator.of_contraction(4, 2)


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
