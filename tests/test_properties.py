"""Property tests of group words at levels n <= 5: the inverse word undoes
the spin action and the orthogonal image, the image preserves the split form,
and the operator built from a word's columns agrees with the word.
Derandomized, so every run draws the same cases."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinalg import linalg  # noqa: E402
from spinalg import spin_rep as sr  # noqa: E402

from conftest import make_rng, random_spin, split_form  # noqa: E402

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def seeded_words(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    length = draw(st.integers(min_value=1, max_value=8))
    return sr.random_group_element(n, seed, length)


@st.composite
def fractional_words(draw):
    """Words with fractional (and zero) parameters, beyond the seeded +-1, +-2."""
    n = draw(st.integers(min_value=2, max_value=5))
    roots = sr.all_root_vectors(n)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(roots),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return sr.GroupElement(n, [(k, i, j, Fraction(p, q)) for (k, i, j), p, q in steps])


words = st.one_of(seeded_words(), fractional_words())


@PROPERTY_SETTINGS
@given(words, st.integers(min_value=0, max_value=10**6))
def test_inverse_word_undoes_spin_action(g, seed):
    x = random_spin(g.n, make_rng(f"prop:{seed}"))
    assert g.inverse().apply(g.apply(x)) == x


@PROPERTY_SETTINGS
@given(words)
def test_so_matrix_of_inverse_is_inverse(g):
    product = linalg.matmul(g.so_matrix(), g.inverse().so_matrix())
    assert product == linalg.identity(2 * g.n)


@PROPERTY_SETTINGS
@given(words)
def test_so_matrix_preserves_split_form(g):
    m = g.so_matrix()
    j = split_form(g.n)
    assert linalg.matmul(linalg.matmul(linalg.transpose(m), j), m) == j


@PROPERTY_SETTINGS
@given(words, st.integers(min_value=0, max_value=10**6))
def test_operator_columns_match_word(g, seed):
    x = random_spin(g.n, make_rng(f"prop:{seed}"))
    assert sr.LinearOperator.of_group_element(g).apply(x) == g.apply(x)
