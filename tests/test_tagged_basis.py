"""The whole-basis path of spin_rep and suites: group operators, the gl twist
residual and the bracket-compatibility and equivariance checks apply their
words or root steps to all 2^n basis vectors at once, each tagged with a
copy of itself above bit n, and split the images by tag.

Each is checked against the per-basis loop it replaced (the conftest
oracles), as is and under injected faults: a flipped coefficient in a root
table, a root table with a wrong operator column, a perturbed so_bracket
result and perturbed standard-action words.  Under a fault the new body and
the oracle must return the same first failing pair or root and the same
witness string."""

from fractions import Fraction

import pytest

from spinalg import spin_rep as sr
from spinalg import suites

from conftest import (
    make_rng,
    oracle_bracket_compat,
    oracle_equivariance,
    oracle_group_apply,
    oracle_group_unipotent,
    oracle_operator,
    oracle_twist,
    oracle_twist_residual,
    read_operator,
)

LEVELS = range(2, 6)


def random_gl(n, rng):
    return sr.SoElement(n, ef={(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                               for i in range(1, n + 1) for j in range(1, n + 1)})


def fractional_word(n, rng, length):
    roots = sr.all_root_vectors(n)
    params = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(length)]
    return sr.GroupElement(n, [(*rng.choice(roots), t) for t in params])


class TestTaggedBasis:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_columns_split_the_tagged_basis(self, n):
        basis = sr._tagged_basis(n)
        assert len(basis) == 1 << n
        assert sr._columns(n, basis) == {m: {m: 1} for m in range(1 << n)}


class TestGroupOperator:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_operator_matches_the_per_basis_columns(self, n):
        rng = make_rng(f"tagged-operator:{n}")
        elements = [sr.GroupElement.identity(n)]
        if n > 1:
            elements += [sr.random_group_element(n, rng.randrange(1000), rng.randint(1, 8)) for _ in range(3)]
            elements += [fractional_word(n, rng, rng.randint(1, 6)) for _ in range(3)]
        for g in elements:
            op = g.operator()
            assert read_operator(op) == oracle_operator(n, g.apply)
            assert read_operator(op) == oracle_operator(n, lambda x: oracle_group_apply(g, x))
            assert sr.LinearOperator.of_group_element(g) == op
            assert set(sr._columns(n, op.num)) == set(range(1 << n))
            assert all(type(c) is Fraction for c in op.terms.values())

    @pytest.mark.parametrize("n", range(2, 6))
    def test_equality_is_operator_equality(self, n):
        rng = make_rng(f"tagged-equality:{n}")
        g = fractional_word(n, rng, 4)
        assert g * g.inverse() == sr.GroupElement.identity(n)
        assert g == sr.GroupElement(n, g.word + (("ef", 1, 2, Fraction(0)),))
        assert g != g * sr.exp_nilpotent(n, "ee", 1, 2, 1)

    @pytest.mark.parametrize("n", LEVELS)
    def test_unipotent_check_matches_the_oracle(self, n):
        assert suites._check_group_unipotent(n, 7, 1) is None
        assert oracle_group_unipotent(n, 7, 1) is None


def patch_root_table(monkeypatch, level, root, change):
    """_root_table with the forward table of one root at one level changed
    by change(table) in a copy; the cached tables stay as they are."""
    real = sr._root_table

    def patched(n, kind, i, j):
        tables = real(n, kind, i, j)
        if (n, (kind, i, j)) != (level, root):
            return tables
        table = dict(tables[0])
        change(table)
        return table, tables[1]

    monkeypatch.setattr(sr, "_root_table", patched)


def flip(m):
    def change(table):
        img, c2 = table[m]
        table[m] = (img, -c2)
    return change


def self_column(n):
    # a mask that the root's table does not move now maps to itself, so the
    # root's operator gets a wrong column and no longer squares to zero
    def change(table):
        m = min(set(range(1 << n)) - set(table))
        table[m] = (m, 2)
    return change


def some_roots(n):
    roots = sr.all_root_vectors(n)
    return sorted({roots[0], roots[len(roots) // 2], roots[-1]})


class TestEquivariance:
    @pytest.mark.parametrize("n", LEVELS)
    def test_matches_the_oracle(self, n):
        assert suites._check_equivariance(n, 7, 1) is None
        assert oracle_equivariance(n, 7, 1) is None

    @pytest.mark.parametrize("n", range(3, 6))  # level 1 has no roots
    def test_flipped_coefficient_fails_like_the_oracle(self, n, monkeypatch):
        # a flip on a mask below bit n shows through pi; one on a mask that
        # holds bit n, whose image holds it too, is dropped by pi and not
        # compared by tau, so both bodies pass
        top = 1 << (n - 1)
        for root in some_roots(n - 1):
            masks = sorted(sr._root_table(n, *root)[0])
            for m in (masks[0], masks[len(masks) // 2], masks[-1]):
                with monkeypatch.context() as mp:
                    patch_root_table(mp, n, root, flip(m))
                    got = suites._check_equivariance(n, 7, 1)
                    assert got == oracle_equivariance(n, 7, 1)
                assert (got is None) == bool(m & top)

    @pytest.mark.parametrize("n", range(3, 6))
    def test_wrong_column_fails_like_the_oracle(self, n, monkeypatch):
        for level in (n - 1, n):
            for root in some_roots(n - 1):
                with monkeypatch.context() as mp:
                    patch_root_table(mp, level, root, self_column(level))
                    got = suites._check_equivariance(n, 7, 1)
                    assert got == oracle_equivariance(n, 7, 1)
                assert got is not None

    @pytest.mark.parametrize("n", range(3, 6))
    def test_step_factors_neither_hide_nor_invent_a_fault(self, n, monkeypatch):
        # every draw gives t = -1/2.  Halving the 2c of an ff or ef root at one
        # level halves the gcd its step divides by, so that step alone is
        # scaled by twice the factor: on a mask with bit n (unseen, as for
        # the flips) both bodies pass, and on a mask without it both fail
        class Last:
            def choice(self, seq):
                return seq[-1]

        monkeypatch.setattr(suites, "_rng", lambda *args: Last())
        top = 1 << (n - 1)
        for level in (n - 1, n):
            for root in [r for r in sr.all_root_vectors(n - 1) if r[0] != "ee"]:
                table, inverse = sr._root_table(level, *root)
                for m in {min(table), max(table)}:
                    img, c2 = table[m]
                    factor = sr._root_step((table, inverse), Fraction(-1, 2), {m: 1}, False)[1]
                    with monkeypatch.context() as mp:
                        patch_root_table(mp, level, root, lambda t: t.update({m: (img, c2 // 2)}))
                        assert sr._root_step(sr._root_table(level, *root), Fraction(-1, 2), {m: 1}, False)[1] == 2 * factor
                        got = suites._check_equivariance(n, 7, 1)
                        assert got == oracle_equivariance(n, 7, 1)
                    assert (got is None) == bool(m & top), (level, root, m)


class TestGroupUnipotentFaults:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_wrong_column_fails_like_the_oracle(self, n, monkeypatch):
        for root in some_roots(n):
            with monkeypatch.context() as mp:
                patch_root_table(mp, n, root, self_column(n))
                got = suites._check_group_unipotent(n, 7, 1)
                assert got == oracle_group_unipotent(n, 7, 1)
            assert got == "inverse failed for {}({},{})".format(*root)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_flipped_coefficient_passes_like_the_oracle(self, n, monkeypatch):
        # a flipped coefficient keeps the root nilpotent: exp(tX) exp(-tX) = I
        # and the determinant is 1 on both paths
        root = some_roots(n)[0]
        patch_root_table(monkeypatch, n, root, flip(min(sr._root_table(n, *root)[0])))
        assert suites._check_group_unipotent(n, 7, 1) is None
        assert oracle_group_unipotent(n, 7, 1) is None


def in_block(x, block):
    """Whether the two-form x has a term in block "ee", "ff" or "ef", read off
    its keys: an ee mask has both bits low, an ff mask both high."""
    low = (1 << x.n) - 1
    return block in {"ff" if not m & low else "ee" if not m >> x.n else "ef" for m in x.terms}


def perturbed_brackets(kind, n):
    """so_bracket with the bracket of some pairs changed."""
    real = sr.so_bracket

    def perturbed(x, y):
        z = real(x, y)
        if kind == "scaled":  # every nonzero bracket doubled
            return z.scale(2)
        if kind == "shifted" and in_block(x, "ef"):  # a two-form added when x is in the ef block
            return z + sr.SoElement.basis_ef(n, 1, n)
        if kind == "dropped" and in_block(y, "ee"):  # the bracket lost when y is in the ee block
            return sr.SoElement(n)
        return z

    return perturbed


class TestBracketCompatibility:
    @pytest.mark.parametrize("n", LEVELS)
    @pytest.mark.parametrize("samples", [1, 3])
    def test_matches_the_oracle(self, n, samples):
        assert suites._check_bracket_compat(n, 11, samples) is None
        assert oracle_bracket_compat(n, 11, samples) is None

    @pytest.mark.parametrize("n", LEVELS)
    @pytest.mark.parametrize("kind", ["scaled", "shifted", "dropped"])
    def test_perturbed_bracket_fails_like_the_oracle(self, n, kind, monkeypatch):
        monkeypatch.setattr(sr, "so_bracket", perturbed_brackets(kind, n))
        got = suites._check_bracket_compat(n, 7, 1)
        assert got == oracle_bracket_compat(n, 7, 1)
        assert got is not None


def perturbed_standard_words(kind):
    """_standard_words with its words changed: one coefficient flipped, one
    word dropped, or one word's letters swapped."""
    real = sr._standard_words

    def perturbed(a):
        words = real(a)
        if not words:
            return words
        c, letters = words[-1]
        if kind == "flipped":
            return words[:-1] + [(-c, letters)]
        if kind == "dropped":
            return words[:-1]
        return words[:-1] + [(c, letters[::-1])]

    return perturbed


class TestTwist:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_residual_matches_the_per_basis_residual(self, n):
        rng = make_rng(f"tagged-twist:{n}")
        for _ in range(3):
            a = random_gl(n, rng)
            residual = sr.gl_twist_residual(a)
            assert residual.is_zero()
            assert read_operator(residual) == oracle_twist_residual(a)
        assert read_operator(sr.gl_twist_residual(sr.SoElement(n))) == oracle_twist_residual(sr.SoElement(n))

    @pytest.mark.parametrize("n", LEVELS)
    @pytest.mark.parametrize("kind", ["flipped", "dropped", "reordered"])
    def test_perturbed_standard_words_fail_like_the_oracle(self, n, kind, monkeypatch):
        monkeypatch.setattr(sr, "_standard_words", perturbed_standard_words(kind))
        rng = make_rng(f"tagged-twist-fault:{n}:{kind}")
        a = random_gl(n, rng)
        residual = sr.gl_twist_residual(a)
        assert read_operator(residual) == oracle_twist_residual(a)
        got = suites._check_twist(n, 7, 3)
        assert got == oracle_twist(n, 7, 3)
        assert got is not None
