"""Property tests at levels n <= 5.  Group words: the inverse word undoes
the spin action and the orthogonal image, the image preserves the split form,
and the operator built from a word's columns agrees with the word.  Kernel
identities: the Clifford product is associative, star is an
antihomomorphism, and pi_last undoes tau_last.  The pairing beta has the
Gram symmetry pattern on parity-pure vectors, and the vector pairing equals
its summed formula.  Exact elimination: rref agrees with the dense Fraction
oracle and the nullspace is the kernel.
Cone membership: the witness of certify_membership is the stored pulled-back
quadric's value at the point.  The sparse element base: every element type's
arithmetic, equality, hash, coefficients and terms agree with Fraction-map
oracles, every result is in lowest terms, and copies and pickles are equal.
Derandomized, so every run draws the same cases."""

import copy
import pickle
from fractions import Fraction
from functools import lru_cache
from math import gcd

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

from conftest import (  # noqa: E402
    element_of_terms,
    make_rng,
    oracle_rref,
    oracle_sparse_scale,
    oracle_sparse_sum,
    random_spin,
    split_form,
)

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
        masks = st.sampled_from(ie.component_variables(n))
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


ELEMENT_KINDS = ("clifford", "spin", "exterior", "so", "polynomial")


def element_keys(kind, n):
    """The keys of an element of this kind at level n (a polynomial's are the
    monomials of degree 1 and 2 in the level-n variables)."""
    if kind == "clifford":
        masks = st.integers(min_value=0, max_value=(1 << n) - 1)
        return st.tuples(masks, masks)
    if kind == "spin":
        return st.integers(min_value=0, max_value=(1 << n) - 1)
    if kind == "exterior":
        return st.integers(min_value=0, max_value=(1 << 2 * n) - 1)
    if kind == "so":
        return st.sampled_from([1 << p | 1 << q for p in range(2 * n) for q in range(p + 1, 2 * n)])
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    return st.lists(masks, min_size=1, max_size=2).map(lambda ms: tuple(sorted(ms)))


wide_fractions = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=12)
)


@st.composite
def element_pairs(draw):
    """(kind, n, a, b): two Fraction maps on the keys of one element kind at a
    level n = 1..4, zeros included; b reuses some of a's keys, so that sums
    and differences cancel in part or in full."""
    kind = draw(st.sampled_from(ELEMENT_KINDS))
    n = draw(st.integers(min_value=2 if kind == "so" else 1, max_value=4))
    a = draw(st.dictionaries(element_keys(kind, n), wide_fractions, max_size=6))
    b = draw(st.dictionaries(element_keys(kind, n), wide_fractions, max_size=4))
    for key in draw(st.lists(st.sampled_from(sorted(a)), max_size=3)) if a else ():
        b[key] = draw(st.sampled_from([-a[key], a[key], 2 * a[key]]))
    return kind, n, a, b


def assert_lowest_terms(x):
    """x stores nonzero int numerators over a positive denominator in lowest
    terms, and its terms are num / den."""
    assert type(x.den) is int and x.den > 0 and gcd(x.den, *x.num.values()) == 1
    assert all(type(c) is int and c for c in x.num.values())
    assert x.terms == {key: Fraction(c, x.den) for key, c in x.num.items()}


def assert_matches(kind, n, x, terms):
    """x is the element of the Fraction map terms (zeros dropped): equal and
    hash-equal to the public constructor's element, with the same terms and
    coefficients, and in lowest terms."""
    assert_lowest_terms(x)
    expect = element_of_terms(kind, n, terms)
    assert x == expect and hash(x) == hash(expect)
    assert x.terms == {key: c for key, c in terms.items() if c}
    for key, c in terms.items():
        assert x.coefficient(key) == c
        if not c:
            assert x.coefficient(key) is cc._ZERO
    assert x.is_zero() == (not any(terms.values()))


@PROPERTY_SETTINGS
@given(element_pairs(), wide_fractions)
def test_element_arithmetic_matches_fraction_oracles(case, c):
    kind, n, a, b = case
    x, y = element_of_terms(kind, n, a), element_of_terms(kind, n, b)
    assert_matches(kind, n, x, a)  # zero values included: a missing key reads the shared zero
    a = {key: v for key, v in a.items() if v}
    b = {key: v for key, v in b.items() if v}
    for sign, z in ((1, x + y), (-1, x - y)):
        terms = oracle_sparse_sum(a, b, sign)
        assert_matches(kind, n, z, {key: terms.get(key, Fraction(0)) for key in {*a, *b}})
    assert_matches(kind, n, -x, oracle_sparse_scale(a, -1))
    for k in (c, -c, 0, Fraction(0), -3):
        assert_matches(kind, n, x.scale(k), oracle_sparse_scale(a, k))
    assert (x == y) == (a == b) and (x - x) == type(x).zero(n) == element_of_terms(kind, n, {})
    assert (x - x).is_zero() and (x - x).den == 1


@PROPERTY_SETTINGS
@given(element_pairs(), st.integers(min_value=2, max_value=30))
def test_ints_reduces_a_negative_denominator_and_a_common_factor(case, k):
    kind, n, a, _ = case
    x = element_of_terms(kind, n, a)
    y = type(x)._ints(x.n, {key: -k * c for key, c in x.num.items()}, -k * x.den)
    assert_lowest_terms(y)
    assert y == x and hash(y) == hash(x) and y.num == x.num and y.den == x.den


@PROPERTY_SETTINGS
@given(element_pairs())
def test_copies_and_pickles_equal_the_element(case):
    kind, n, a, _ = case
    x = element_of_terms(kind, n, a)
    for read_terms in (False, True):
        if read_terms:  # the caches, once built, travel with the copies
            x.terms
            if kind == "so":
                sr.rho_so(x, sr.SpinVector.basis(n, 0))
            if kind == "polynomial":
                x._variable_parities()
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
            assert y.terms == x.terms and str(y) == str(x)
            assert_lowest_terms(y)
