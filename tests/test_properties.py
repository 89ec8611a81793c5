"""Property tests at levels n <= 5.  Group words: the inverse word undoes
the spin action and the orthogonal image, the image preserves the split form,
and the operator built from a word's columns agrees with the word.  Kernel
identities: the Clifford product is associative, star is an
antihomomorphism, and pi_last undoes tau_last.  The pairing beta has the
Gram symmetry pattern on parity-pure vectors, and the vector pairing equals
its summed formula.  Exact elimination: rref agrees with the dense Fraction
oracle and the nullspace is the kernel.
Cone membership: the witness of certify_membership is the stored pulled-back
quadric's value at the point.  Derandomized, so every run draws the same
cases."""

from fractions import Fraction
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinalg import clifford_core as cc  # noqa: E402
from spinalg import grassmann_cone as gc  # noqa: E402
from spinalg import ideal_engine as ie  # noqa: E402
from spinalg import linalg  # noqa: E402
from spinalg import spin_rep as sr  # noqa: E402
from spinalg import transfer_maps as tm  # noqa: E402

from conftest import make_rng, oracle_rref, random_spin, split_form  # noqa: E402

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


small_fractions = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
)
levels = st.integers(min_value=2, max_value=5)


def clifford_elements(n):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    return st.dictionaries(st.tuples(masks, masks), small_fractions, max_size=4).map(
        lambda terms: cc.CliffordElement(n, terms)
    )


@PROPERTY_SETTINGS
@given(levels.flatmap(lambda n: st.tuples(*[clifford_elements(n)] * 3)))
def test_clifford_product_is_associative(xyz):
    x, y, z = xyz
    assert cc.mul(cc.mul(x, y), z) == cc.mul(x, cc.mul(y, z))


@PROPERTY_SETTINGS
@given(levels.flatmap(lambda n: st.tuples(*[clifford_elements(n)] * 2)))
def test_star_is_an_antihomomorphism(xy):
    x, y = xy
    assert cc.star(cc.mul(x, y)) == cc.mul(cc.star(y), cc.star(x))


@PROPERTY_SETTINGS
@given(
    levels.flatmap(
        lambda n: st.dictionaries(
            st.integers(min_value=0, max_value=(1 << n) - 1), small_fractions
        ).map(lambda terms: sr.SpinVector(n, terms))
    )
)
def test_pi_last_undoes_tau_last(x):
    assert tm.pi_last(tm.tau_last(x)) == x


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["even", "odd"]),
    st.sampled_from(["even", "odd"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_beta_gram_symmetry_pattern(n, parity_x, parity_y, seed):
    # beta(y, x) = eps beta(x, y) with eps = +1 iff n = 0, 1 mod 4; beta pairs
    # equal parities at even n and opposite parities at odd n
    rng = make_rng(f"gram:{seed}")
    x = random_spin(n, rng, parity_x)
    y = random_spin(n, rng, parity_y)
    eps = 1 if n % 4 in (0, 1) else -1
    assert tm.beta(y, x) == eps * tm.beta(x, y)
    if (parity_x == parity_y) == (n % 2 == 1):
        assert tm.beta(x, y) == 0


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    coords = st.lists(
        st.one_of(st.just(Fraction(0)), small_fractions), min_size=2 * n, max_size=2 * n
    )
    return cc.VectorInV.from_coords(n, draw(coords)), cc.VectorInV.from_coords(n, draw(coords))


@PROPERTY_SETTINGS
@given(vector_pairs())
def test_pairing_matches_summed_form(pair):
    v, w = pair
    summed = sum((a * b for a, b in zip(v.e, w.f)), Fraction(0)) + sum(
        (a * b for a, b in zip(v.f, w.e)), Fraction(0)
    )
    assert cc.pairing(v, w) == summed
    assert cc.pairing(v, w) == cc.pairing(w, v)


@st.composite
def rational_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=7))
    cols = draw(st.integers(min_value=0, max_value=7))
    entry = st.one_of(st.just(Fraction(0)), small_fractions)
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@PROPERTY_SETTINGS
@given(rational_matrices())
def test_rref_matches_oracle_and_nullspace_is_kernel(a):
    assert linalg.rref(a) == oracle_rref(a)
    for v in linalg.nullspace(a):
        assert linalg.matvec(a, v) == [0] * len(a)


@lru_cache(maxsize=None)
def pullback_family(n):
    return ie.orbit_pullback_family(n, "prop", 8)


@st.composite
def cone_queries(draw):
    """An even point at a level n = 4..6 (sparse with small fractional
    coordinates, or an orbit point times a small fraction) and a rotation k
    of that level's family."""
    n = draw(st.integers(min_value=4, max_value=6))
    if draw(st.booleans()):
        masks = st.sampled_from(ie.component_variables(n, "even"))
        x = sr.SpinVector(n, draw(st.dictionaries(masks, small_fractions, min_size=1, max_size=6)))
    else:
        seed = draw(st.integers(min_value=0, max_value=10**6))
        length = draw(st.integers(min_value=1, max_value=8))
        x = gc.sample_cone_point(n, seed, length=length).scale(draw(small_fractions))
    return x, draw(st.integers(min_value=0, max_value=7))


@PROPERTY_SETTINGS
@given(cone_queries())
def test_witness_value_is_the_stored_quadric_at_x(query):
    x, k = query
    members = pullback_family(x.n).members
    family = ie.PullbackFamily(x.n, "prop", members[k:] + members[:k])
    verdict = ie.certify_membership(x, family)
    values = [ie.eval_poly(m.quadric, x) for m in family.members]
    if verdict.passes:
        assert not any(values)
    else:
        assert verdict.witness_value == values[verdict.witness_index] != 0
        assert not any(values[: verdict.witness_index])
