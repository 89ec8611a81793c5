"""Results built without re-validation against the validating constructors.

The arithmetic of the element types and the letter kernel's products build
their results through SparseElement._trusted and VectorInV._trusted, which
check nothing.  Each such result is compared at levels 1..6 with a reference
computed coefficient by coefficient and passed through the public
constructor, which checks every key and coefficient: equal, with equal hashes,
every coefficient a nonzero Fraction, and (for vectors) every zero coordinate
the shared zero.  The kernel's results are also compared with
oracle_apply_words, the kernel as first written."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import spin_rep as sr

from conftest import (
    make_rng,
    oracle_apply_words,
    oracle_group_apply,
    random_clifford,
    random_exterior,
    random_spin,
    random_word,
)

LEVELS = range(1, 7)


def assert_canonical(x):
    """x is what its validating constructor makes of its own terms."""
    rebuilt = type(x)(x.n, dict(x.terms))
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert all(type(c) is Fraction and c for c in x.terms.values())


def assert_same(x, reference):
    assert_canonical(x)
    assert x == reference and hash(x) == hash(reference)


def unpack(n, terms):
    low = (1 << n) - 1
    return cc.CliffordElement(n, {(m & low, m >> n): c for m, c in terms.items()})


def operands(n, rng):
    """Pairs (x, y) of each element type at level n, some sharing keys so that
    sums and differences cancel in part or in full."""
    makers = [
        lambda: random_clifford(n, rng),
        lambda: random_spin(n, rng).scale(Fraction(1, rng.randint(1, 4))),
        lambda: random_exterior(n, rng, den=rng.randint(1, 3)),
    ]
    out = []
    for make in makers:
        x, y = make(), make()
        partial = type(x)(n, {k: -c for k, c in list(x.terms.items())[::2]})
        out += [(x, y), (x, x), (x, partial), (x, x.zero(n))]
    return out


def coefficientwise(x, y, op):
    keys = set(x.terms) | set(y.terms)
    return type(x)(x.n, {k: op(x.coefficient(k), y.coefficient(k)) for k in keys})


@pytest.mark.parametrize("n", LEVELS)
def test_element_arithmetic(n):
    rng = make_rng(f"trusted-arith:{n}")
    for x, y in operands(n, rng):
        assert_same(x + y, coefficientwise(x, y, lambda a, b: a + b))
        assert_same(x - y, coefficientwise(x, y, lambda a, b: a - b))
        assert_same(-x, type(x)(n, {k: -c for k, c in x.terms.items()}))
        for c in (0, Fraction(0), 3, Fraction(-2, 7)):
            assert_same(x.scale(c), type(x)(n, {k: c * v for k, v in x.terms.items()}))
        assert (x - x).terms == {} and (x + -x).terms == {}


@pytest.mark.parametrize("n", LEVELS)
def test_clifford_products_match_the_oracle_kernel(n):
    rng = make_rng(f"trusted-mul:{n}")

    def words(a, letter, reverse=False):
        out = []
        for mono, c in a.terms.items():
            letters = [letter(s, n) for s in cc.monomial_word(mono)]
            out.append((c, letters[::-1] if reverse else letters))
        return out

    for _ in range(6):
        a, b = random_clifford(n, rng), random_clifford(n, rng, nterms=2)
        packed = {em | fm << n: c for (em, fm), c in b.terms.items()}
        assert_same(cc.mul(a, b), unpack(n, oracle_apply_words(words(a, cc._clifford_letter), packed)))
        assert_same(
            cc.star(a),
            unpack(n, oracle_apply_words(words(a, cc._clifford_letter, True), {0: Fraction(1)})),
        )
        word = random_word(n, rng, rng.randint(0, 5))
        letters = [cc._clifford_letter(s, n) for s in word]
        assert_same(cc.normal_form(word, n), unpack(n, oracle_apply_words([(1, letters)], {0: 1})))
        omega = random_exterior(n, rng, den=2)
        assert_same(
            cc.act_on_exterior(a, omega),
            cc.ExteriorVector(n, oracle_apply_words(words(a, cc._exterior_letter), omega.terms)),
        )


@pytest.mark.parametrize("n", LEVELS)
def test_spin_actions_match_the_oracle_kernel(n):
    rng = make_rng(f"trusted-spin:{n}")
    forms = [sr.SoElement(n, ef={(n, n): Fraction(1, 3)})]
    forms += [sr.SoElement.basis_ef(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    forms += [sr.SoElement(n, ee={(1, n): Fraction(3, 2)}, ff={(1, n): -1})] if n > 1 else []
    for x in forms:
        omega = random_spin(n, rng).scale(Fraction(2, 3))
        expect = sr.SpinVector(n, oracle_apply_words(sr._so_words(x), omega.terms))
        assert_same(sr.rho_so(x, omega), expect)
    for _ in range(4):
        omega = random_spin(n, rng)
        e = [Fraction(rng.randint(-2, 2), 3) for _ in range(n)]
        v = cc.VectorInV(n, e, [0] * (n - 1) + [Fraction(1, 2)])
        letter = tuple(cc._wedge(i, c) for i, c in enumerate(v.e) if c)
        letter += tuple(cc._contract(j, 2 * c) for j, c in enumerate(v.f) if c)
        expect = sr.SpinVector(n, oracle_apply_words([(1, [letter])], omega.terms))
        assert_same(sr.vector_action(v, omega), expect)
        if n > 1:
            g = sr.random_group_element(n, rng.randrange(100))
            assert_same(g.apply(omega), oracle_group_apply(g, omega))


def assert_vector(v, coords):
    """v is canonical and has these coordinates."""
    rebuilt = cc.VectorInV(v.n, v.e, v.f)
    assert v == rebuilt and hash(v) == hash(rebuilt)
    assert v.coords() == coords
    assert all(type(c) is Fraction for c in v.coords())
    assert all(c is cc._ZERO for c in v.coords() if c == 0)


def vectors(n, rng):
    """Zero-holding vectors (a basis vector, zeros given as int and Fraction)
    and dense ones."""
    def dense():
        coords = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for _ in range(2 * n)]
        return cc.VectorInV.from_coords(n, coords)

    holey = cc.VectorInV(n, [0] * (n - 1) + [2], [Fraction(0)] * (n - 1) + [Fraction(-1, 3)])
    return [cc.VectorInV.basis(n, -n), holey, dense(), dense()]


@pytest.mark.parametrize("n", LEVELS)
def test_vector_arithmetic(n):
    rng = make_rng(f"trusted-vector:{n}")
    vs = vectors(n, rng)
    for v in vs:
        assert_vector(v, v.coords())
        for w in vs + [v.scale(-1)]:
            assert_vector(v + w, [a + b for a, b in zip(v.coords(), w.coords())])
            assert_vector(v - w, [a - b for a, b in zip(v.coords(), w.coords())])
            expect = sum((a * b for a, b in zip(v.coords(), w.f + w.e)), Fraction(0))
            value = cc.pairing(v, w)
            assert value == expect and type(value) is Fraction
        for c in (0, Fraction(0), 5, Fraction(-3, 4)):
            assert_vector(v.scale(c), [c * a for a in v.coords()])
        keys = [(1 << i, 0) for i in range(n)] + [(0, 1 << j) for j in range(n)]
        assert_same(v.as_clifford(), cc.CliffordElement(n, dict(zip(keys, v.coords()))))
