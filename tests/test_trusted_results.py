"""Results built without re-validation against the validating constructors.

The arithmetic of the element types and the letter kernel's products build
their results through SparseElement._ints and VectorInV._trusted, which
check nothing; pulled-back polynomials and the results of polynomial
arithmetic are built by Polynomial._ints, and random, inverted and
multiplied group words by GroupElement._trusted.  Each such result is compared at levels 1..6 with a reference
computed coefficient by coefficient and passed through the public
constructor, which checks every key and coefficient: equal, with equal hashes,
every coefficient a nonzero Fraction, and (for vectors) every zero coordinate
the shared zero.  The kernel's results are also compared with
oracle_apply_words, the kernel as first written.

Every letter that reaches the kernel has int factors: a letter made with
Fraction factors is scaled to ints where it is built.  The last test checks
every source of letters and every call of the kernel in the package."""

import ast
import pathlib
import sys
from fractions import Fraction

import pytest

from spinalg import cartan as ca
from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import spin_rep as sr
from spinalg import suites
from spinalg.errors import LevelMismatchError

from conftest import (
    make_rng,
    oracle_apply_words,
    oracle_group_apply,
    oracle_induced_map,
    oracle_letter,
    oracle_pullback_rows,
    oracle_random_group_element,
    oracle_wedge,
    random_clifford,
    random_exterior,
    random_isotropic,
    random_spin,
    random_word,
    word_rows,
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
        assert_same(
            cc.star_mul(a, b), unpack(n, oracle_apply_words(words(a, cc._clifford_letter, True), packed))
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


def coordinate_lists(n, rng):
    """Coordinate lists over the 2n symbol bits: ints, Fractions with mixed
    denominators, one basis vector, and zero."""
    ints = [rng.randint(-2, 2) for _ in range(2 * n)]
    fracs = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5)) for _ in range(2 * n)]
    unit = [0] * (2 * n)
    unit[rng.randrange(2 * n)] = 1
    return [ints, fracs, unit, [0] * (2 * n)]


def exterior_operands(n, rng):
    """ExteriorVectors at level n with int and Fraction coefficients, the
    unit and zero."""
    return [
        random_exterior(n, rng, nterms=6),
        random_exterior(n, rng, nterms=6, den=rng.randint(2, 5)),
        cc.ExteriorVector.unit(n),
        cc.ExteriorVector.zero(n),
    ]


@pytest.mark.parametrize("n", LEVELS)
def test_exterior_letters_match_the_oracle_kernel(n):
    rng = make_rng(f"trusted-exterior:{n}")
    for omega in exterior_operands(n, rng):
        for bit in range(2 * n):
            sym = bit + 1 if bit < n else n - bit - 1
            expect = oracle_apply_words([(1, [((1 << bit, 0, 1),)])], omega.terms)
            assert_same(omega.outer_symbol(sym), cc.ExteriorVector(n, expect))
        for coords in coordinate_lists(n, rng):
            v = cc.VectorInV.from_coords(n, coords)
            expect = oracle_apply_words([(1, [oracle_letter(v.f + v.e, contract=True)])], omega.terms)
            assert_same(omega.inner_vector(v), cc.ExteriorVector(n, expect))
            expect = oracle_apply_words([(1, [oracle_letter(coords)])], omega.terms)
            assert_same(cc._wedge_front(omega, coords), cc.ExteriorVector(n, expect))
    # a symbol already present, and a contraction that finds no partner
    e1 = cc.ExteriorVector(n, {1: Fraction(3, 2)})
    assert_same(e1.outer_symbol(1), cc.ExteriorVector.zero(n))
    assert_same(e1.inner_vector(cc.VectorInV.basis(n, 1)), cc.ExteriorVector.zero(n))
    assert_same(cc.ExteriorVector.unit(n).inner_vector(cc.VectorInV.basis(n, -n)), cc.ExteriorVector.zero(n))


@pytest.mark.parametrize("n", LEVELS)
def test_wedges_and_induced_maps_match_the_oracle(n):
    rng = make_rng(f"trusted-wedge:{n}")
    vectors = [cc.VectorInV.from_coords(n, c) for c in coordinate_lists(n, rng)]
    assert_same(cc.wedge_of_vectors(n, []), cc.ExteriorVector.unit(n))
    for k in range(1, n + 2):
        vecs = [rng.choice(vectors[:3]) for _ in range(k)]
        assert_same(cc.wedge_of_vectors(n, vecs), cc.ExteriorVector(n, oracle_wedge(vecs)))
        vecs[rng.randrange(k)] = vectors[3]
        assert_same(cc.wedge_of_vectors(n, vecs), cc.ExteriorVector.zero(n))
    for den in (1, 3):
        # int columns, Fraction columns, and columns with a zero one among them
        ints = [[rng.randint(-1, 1) for _ in range(2 * n)] for _ in range(2 * n)]
        fracs = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2 * n)] for _ in range(2 * n)]
        holey = [list(col) for col in fracs]
        holey[rng.randrange(2 * n)] = [0] * (2 * n)
        for cols in (ints, fracs, holey):
            images = [cc.VectorInV.from_coords(n, col) for col in cols]
            for omega in exterior_operands(n, rng)[:: 2 if n > 4 else 1]:
                if den > 1:
                    omega = omega.scale(Fraction(1, den))
                assert_same(cc.induced_map(omega, cols), oracle_induced_map(omega, images))


@pytest.mark.parametrize("n", range(2, 7))
def test_mult_mh_matches_the_oracle(n):
    """mult_mh of a level n-1 form wedges its partner on the left through
    _wedge_front: the coordinate partner f_n, and a partner with Fraction
    coordinates through a hyperbolic basis."""
    rng = make_rng(f"trusted-mult-mh:{n}")
    coordinate = [cc.VectorInV.basis(n, i) for i in range(1, n)]
    coordinate += [cc.VectorInV.basis(n, -j) for j in range(1, n)]
    e = random_isotropic(n, rng)
    h = gc.hyperbolic_basis_through(e).new_f[-1]
    basis = gc.hyperbolic_basis_through(e, h)
    general = list(basis.new_e[:-1]) + list(basis.new_f[:-1])
    for omega in exterior_operands(n - 1, rng):
        f_n = cc.VectorInV.basis(n, -n)
        assert_same(ca.mult_mh(omega, f_n), oracle_induced_map(omega, coordinate, front=[f_n]))
        assert_same(ca.mult_mh(omega, h, e), oracle_induced_map(omega, general, front=[h]))


def assert_same_polynomial(p, reference):
    """p equals the reference and what the validating constructor makes of
    p's own terms: sorted monomials of masks in range, nonzero Fractions."""
    rebuilt = ie.Polynomial(p.is_limit, p.level, dict(p.terms))
    assert p == rebuilt == reference
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert p._variable_parities() == rebuilt._variable_parities()


@pytest.mark.parametrize("n", range(4, 7))
def test_pullbacks_match_the_validating_constructor(n):
    """_pullback_rows along the family maps and along random rows, and
    pullback along a Fraction map, at degrees 0..3."""
    rng = make_rng(f"trusted-pullback:{n}")
    targets = ie.component_variables(4)
    for member in ie.orbit_pullback_family(n, f"trusted:{n}", 6).members:
        rows, den = word_rows(member.g, targets)
        rows = dict(zip(targets, rows))
        assert_same_polynomial(member.quadric, oracle_pullback_rows(ie.i4_quadric(), rows, den, n))
    for degree in range(4):
        p = ie.Polynomial(False, 4, {tuple(rng.choice(targets) for _ in range(degree)): Fraction(rng.randint(1, 5), 3)})
        rows = {t: {s: rng.randint(-2, 2) for s in range(1 << n) if rng.random() < 0.3} for t in targets}
        rows = {t: {s: a for s, a in row.items() if a} for t, row in rows.items()}
        assert_same_polynomial(ie._pullback_rows(p, rows, 5, n), oracle_pullback_rows(p, rows, 5, n))
    g = sr.random_group_element(n, "trusted", 5)
    lm = sr.LinearOperator.of_contraction(n, 4).compose(sr.LinearOperator.of_group_element(g))
    rows = {}  # target mask -> {source mask: Fraction}, read through apply
    for s in range(1 << n):
        for t, c in lm.apply(sr.SpinVector.basis(n, s)).terms.items():
            rows.setdefault(t, {})[s] = c
    assert_same_polynomial(ie.pullback(ie.i4_quadric(), lm), oracle_pullback_rows(ie.i4_quadric(), rows, 1, n))


def random_polynomial(rng, is_limit, level, masks):
    """A polynomial of degree <= 3 with up to five terms over masks."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(rng.choice(masks) for _ in range(rng.randint(0, 3)))
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ie.Polynomial(is_limit, level, terms)


def summed(is_limit, level, pairs):
    """The validating constructor on the (monomial, coefficient) pairs, each
    monomial sorted and repeated ones added up first."""
    acc = {}
    for mono, c in pairs:
        key = tuple(sorted(mono))
        acc[key] = acc.get(key, 0) + c
    return ie.Polynomial(is_limit, level, acc)


@pytest.mark.parametrize("level", [-1, 4, 5, 6])
def test_polynomial_arithmetic_matches_the_validating_constructor(level):
    """Sums, differences, negation, scaling, products and partial derivatives
    build their results with Polynomial._trusted: each equals the result made
    term by term through the validating constructor (level -1 is the limit)."""
    is_limit = level < 0
    rng = make_rng(f"trusted-polynomial:{level}")
    masks = list(range(1 << 6)) if is_limit else list(range(1 << level))
    for _ in range(25):
        p = random_polynomial(rng, is_limit, level, masks)
        part = ie.Polynomial(is_limit, level, {m: -c for m, c in list(p.terms.items())[::2]})
        for q in (random_polynomial(rng, is_limit, level, masks), p, part, p.scale(-1)):
            both = [*p.terms.items(), *q.terms.items()]
            assert_same_polynomial(p + q, summed(is_limit, level, both))
            assert_same_polynomial(p - q, summed(is_limit, level, [*p.terms.items(), *q.scale(-1).terms.items()]))
            products = [(m1 + m2, c1 * c2) for m1, c1 in p.terms.items() for m2, c2 in q.terms.items()]
            assert_same_polynomial(p * q, summed(is_limit, level, products))
        assert_same_polynomial(-p, summed(is_limit, level, [(m, -c) for m, c in p.terms.items()]))
        for c in (0, 3, Fraction(-2, 7)):
            assert_same_polynomial(p.scale(c), summed(is_limit, level, [(m, c * v) for m, v in p.terms.items()]))
            assert_same_polynomial(p * c, p.scale(c))
        for mask in {m for mono in p.terms for m in mono}:
            v = ie.SpinVariable(is_limit, level, mask)
            reference = [(mono[: mono.index(mask)] + mono[mono.index(mask) + 1 :], mono.count(mask) * c)
                         for mono, c in p.terms.items() if mask in mono]
            assert_same_polynomial(p.partial(v), summed(is_limit, level, reference))
        assert (p - p).terms == {} and (p + -p).terms == {}


def test_polynomial_arithmetic_still_checks_levels():
    """The unchecked results keep _check_level in front of them: operands and
    variables of another level raise LevelMismatchError."""
    p = ie.Polynomial(False, 5, {(3, 5): 1})
    for other in (ie.Polynomial(False, 4, {(3, 5): 1}), ie.Polynomial(True, -1, {(3, 5): 1})):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(LevelMismatchError):
                op(p, other)
            with pytest.raises(LevelMismatchError):
                op(other, p)
        with pytest.raises(LevelMismatchError):
            p.partial(ie.SpinVariable(other.is_limit, other.level, 3))


def assert_same_word(g, reference):
    assert (g.n, g.word) == (reference.n, reference.word)
    assert type(g.word) is tuple and all(type(t) is Fraction for *_root, t in g.word)
    assert g._so is None


@pytest.mark.parametrize("n", range(2, 7))
def test_group_words_match_the_validating_constructor(n):
    """random_group_element, inverse and products build their words with
    GroupElement._trusted; each equals GroupElement(n, word) on the same word."""
    for length in range(1, 11):
        g = sr.random_group_element(n, f"trusted:{length}", length)
        assert_same_word(g, oracle_random_group_element(n, f"trusted:{length}", length))
        h = sr.GroupElement(n, [(k, i, j, Fraction(1, length)) for k, i, j, _t in g.word[:3]])
        assert_same_word(g.inverse(), sr.GroupElement(n, [(k, i, j, -t) for k, i, j, t in reversed(g.word)]))
        assert_same_word(g * h, sr.GroupElement(n, list(g.word) + list(h.word)))
        assert_same_word(h * sr.GroupElement.identity(n), h)
    identity = sr.GroupElement.identity(n)
    assert_same_word(identity.inverse(), identity)


def int_factors(letters) -> bool:
    return all(type(f) is int for letter in letters for _, _, f in letter)


def kernel_call_sites() -> set:
    """The names of the functions in the package that call _apply_words."""
    sites = set()
    for path in pathlib.Path(cc.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "attr", getattr(node.func, "id", None))
                        if name == "_apply_words":
                            sites.add(fn.name)
    return sites


@pytest.mark.parametrize("n", LEVELS)
def test_every_letter_has_int_factors(n, monkeypatch):
    rng = make_rng(f"int-letters:{n}")
    for letter in (cc._clifford_letter, cc._exterior_letter):
        assert int_factors(cc._letter_table(letter, n))
    assert int_factors([sr._o(i) for i in range(1, n + 1)] + [sr._iota(j) for j in range(1, n + 1)])
    forms = [sr.SoElement(n, ef={(1, n): Fraction(2, 3), (n, n): Fraction(-1, 5)})]
    if n > 1:
        forms.append(sr.SoElement(n, ee={(1, n): Fraction(3, 2)}, ff={(1, 2): Fraction(-7, 4)}))
    for x in forms:
        assert all(int_factors(letters) for _, letters in sr._so_words(x))
    coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(2 * n)]
    letter, scale = cc._vector_letter(coords)
    assert int_factors([letter]) and type(scale) is int
    assert letter == tuple((b, need, scale * f) for b, need, f in oracle_letter(coords))

    # every call of the kernel, from every call site, gets int letters
    kernel, callers = cc._apply_words, set()

    def recording(words, terms):
        words = list(words)
        assert all(int_factors(letters) for _, letters in words)
        callers.add(sys._getframe(1).f_code.co_name)
        return kernel(words, terms)

    monkeypatch.setattr(cc, "_apply_words", recording)
    a, b = random_clifford(n, rng), random_clifford(n, rng)
    cc.mul(a, b)
    cc.star(a)
    cc.normal_form(random_word(n, rng, 4), n)
    omega = random_exterior(n, rng, den=3)
    v = cc.VectorInV.from_coords(n, coords)
    cc.act_on_exterior(a, omega)
    omega.outer_symbol(-n)
    omega.inner_vector(v)
    cc.wedge_of_vectors(n, [v, v.scale(Fraction(1, 7))])
    cc._wedge_front(omega, coords)
    cc.induced_map(omega, [[Fraction(i - j, 3) for j in range(2 * n)] for i in range(2 * n)])
    x = random_spin(n, rng)
    for form in forms:
        cc.so_to_clifford(form)
        sr.rho_so(form, x)
    sr.rho_standard(sr.SoElement.basis_ef(n, 1, n), x)
    assert sr.gl_twist_residual(forms[0]).is_zero()
    assert suites._check_bracket_compat(n, 7, 1) is None
    sr.vector_action(v, x)
    gc.omega_of(gc.annihilator(gc.sample_cone_point(n, "int-letters")) if n > 1 else gc.coordinate_subspace(1, 1))
    assert suites._check_quarter_embedding(n, 7, 4) is None
    assert callers == kernel_call_sites()
