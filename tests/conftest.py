"""Shared helpers and independent oracles for the test suite."""

import random
from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import spin_rep as sr
from spinalg.errors import NotIsotropicError, SpinalgError, StructureError


def make_rng(tag: str) -> random.Random:
    return random.Random(f"tests:{tag}")


def random_vector(n, rng, bound=3):
    return cc.VectorInV(
        n,
        [Fraction(rng.randint(-bound, bound)) for _ in range(n)],
        [Fraction(rng.randint(-bound, bound)) for _ in range(n)],
    )


def random_spin(n, rng, parity=None, bound=3):
    terms = {}
    for m in range(1 << n):
        if parity == "even" and bin(m).count("1") % 2:
            continue
        if parity == "odd" and bin(m).count("1") % 2 == 0:
            continue
        terms[m] = Fraction(rng.randint(-bound, bound))
    return sr.SpinVector(n, terms)


def cone_query_points(n, tag):
    """Seeded even points at level n of the kinds a cone query sees: orbit
    points (words of 1..6 letters, two of them scaled by -3/4), a sum of two
    orbit points, dense integer points, dense points with non-unit
    denominators, a dense point on the masks that the contraction to level
    4 kills (n > 4), and off_cone_sample points."""
    rng = make_rng(f"{tag}:{n}")
    points = [gc.sample_cone_point(n, f"{tag}:orbit:{t}", length=1 + t) for t in range(6)]
    points += [p.scale(Fraction(-3, 4)) for p in points[2:4]]
    points.append(points[0] + points[5])
    points += [random_spin(n, rng, "even", bound=9) for _ in range(3)]
    masks = ie.component_variables(n, "even")
    points += [
        sr.SpinVector(n, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in masks})
        for _ in range(3)
    ]
    if n > 4:
        points.append(sr.SpinVector(n, {m: Fraction(rng.randint(1, 9)) for m in masks if m >> 4}))
    points += [ie.off_cone_sample(n, f"{tag}:{t}") for t in range(2)]
    return points


def random_clifford(n, rng, nterms=4, bound=2):
    terms = {}
    for _ in range(nterms):
        em = rng.randrange(1 << n)
        fm = rng.randrange(1 << n)
        terms[(em, fm)] = Fraction(rng.randint(-bound, bound))
    return cc.CliffordElement(n, terms)


def random_word(n, rng, length):
    syms = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    return [rng.choice(syms) for _ in range(length)]


# -- independent oracles -----------------------------------------------------


def _sort_key(sym):
    """Normal order of basis symbols: e_1 < ... < e_n < f_1 < ... < f_n."""
    return (0, sym) if sym > 0 else (1, -sym)


def oracle_normal_form(word, n, rng=None):
    """Rewrite oracle independent of the production scan order: reduces the
    rightmost disorder (or a random one when an rng is given)."""
    acc = {}
    stack = [(tuple(cc.parse_symbol(s) for s in word), Fraction(1))]
    while stack:
        w, coef = stack.pop()
        positions = [
            i
            for i in range(len(w) - 1)
            if _sort_key(w[i]) >= _sort_key(w[i + 1])
        ]
        if not positions:
            emask = fmask = 0
            for s in w:
                if s > 0:
                    emask |= 1 << (s - 1)
                else:
                    fmask |= 1 << (-s - 1)
            key = (emask, fmask)
            acc[key] = acc.get(key, Fraction(0)) + coef
            continue
        pos = positions[-1] if rng is None else rng.choice(positions)
        a, b = w[pos], w[pos + 1]
        if a == b:
            continue
        stack.append((w[:pos] + (b, a) + w[pos + 2 :], -coef))
        p = cc.symbol_pairing(a, b)
        if p:
            stack.append((w[:pos] + w[pos + 2 :], 2 * p * coef))
    return cc.CliffordElement(n, {k: v for k, v in acc.items() if v})


def pfaffian(a):
    """Recursive Pfaffian of a skew matrix over Fractions (expansion along
    the first row); independent of everything in the package."""
    m = len(a)
    if m == 0:
        return Fraction(1)
    if m % 2:
        return Fraction(0)
    if m == 2:
        return a[0][1]
    total = Fraction(0)
    for j in range(1, m):
        if a[0][j] == 0:
            continue
        rows = [r for r in range(1, m) if r != j]
        sub = [[a[r][c] for c in rows] for r in rows]
        sign = -1 if (j - 1) % 2 else 1
        total += sign * a[0][j] * pfaffian(sub)
    return total


def dense_matmul(a, b):
    """Schoolbook product over every entry pair, zero factors included."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][c] for k in range(inner)), Fraction(0)) for c in range(cols)]
        for row in a
    ]


def oracle_rref(a):
    """Dense Gauss-Jordan over Fractions: (rref rows, pivot columns).  The
    original reference routine; entries are made Fractions first, so plain
    integers give the same result."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def oracle_det(a):
    """Determinant by dense Gaussian elimination over Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def oracle_so_matrix(g):
    """The orthogonal image of a group word as the dense product of the
    matrices I + t M_X, first factor on the left."""
    size = 2 * g.n
    m = [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]
    for kind, i, j, t in g.word:
        rv = sr.root_so_element(g.n, kind, i, j).matrix()
        step = [[Fraction(int(r == c)) + t * rv[r][c] for c in range(size)] for r in range(size)]
        m = dense_matmul(m, step)
    return m


def split_form(n):
    """Gram matrix of the split form on V: (e_i|f_i) = 1."""
    j = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        j[i][n + i] = Fraction(1)
        j[n + i][i] = Fraction(1)
    return j


def oracle_annihilator(x):
    """The annihilator as first written: the 2n columns vector_action(b, x)
    for the basis vectors b of V, a dense Fraction matrix over the masks they
    reach, its kernel (one vector per free column, free coordinate 1), the
    Gram audit through VectorInV pairings, and the kernel's rref rows; every
    reduction by oracle_rref."""
    if x.is_zero():
        raise SpinalgError("annihilator of the zero vector is all of V")
    n = x.n
    syms = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
    cols = [sr.vector_action(cc.VectorInV.basis(n, s), x) for s in syms]
    masks = sorted(set().union(*[set(c.terms) for c in cols]) or {0})
    r, pivots = oracle_rref([[col.coefficient(m) for col in cols] for m in masks])
    kernel = []
    for free in range(2 * n):
        if free in pivots:
            continue
        v = [Fraction(0)] * (2 * n)
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][free]
        kernel.append(v)
    if not kernel:
        return gc.IsotropicSubspace(n, ())
    vecs = [cc.VectorInV.from_coords(n, v) for v in kernel]
    for i, v in enumerate(vecs):
        for j in range(i, len(vecs)):
            g = cc.pairing(v, vecs[j])
            if g != 0:
                raise NotIsotropicError(f"Gram entry (row {i + 1}, row {j + 1}) = {g} != 0")
    reduced, kernel_pivots = oracle_rref(kernel)
    if len(kernel_pivots) != len(kernel):
        raise SpinalgError("rows are rank deficient")
    if len(kernel) > n:
        raise StructureError("annihilator dimension exceeds n")
    return gc.IsotropicSubspace(n, tuple(tuple(row) for row in reduced[: len(kernel)]))


def oracle_level_maps(family):
    """Each member's full Fraction map: the contraction to level 4 after the
    operator of the member's group word, on all 2^n basis columns."""
    pi_map = sr.LinearOperator.of_contraction(family.n, 4)
    return [pi_map.compose(sr.LinearOperator.of_group_element(m.g)) for m in family.members]


def oracle_certify(x, family, level_maps):
    """certify_membership as first written: the level-4 quadric evaluated
    by eval_poly at each member's Fraction image of x, first nonzero value
    the witness."""
    base = ie.i4_quadric()
    for idx, (member, lm) in enumerate(zip(family.members, level_maps)):
        y = lm.apply(x)
        val = ie.eval_poly(base, y) if not y.is_zero() else Fraction(0)
        if val != 0:
            return ie.MembershipVerdict(False, idx, tuple(member.g.serialize()), val)
    return ie.MembershipVerdict(True, None, None, None)


def oracle_gram_rows(n):
    """The Gram rows as first written: star(e_S f) acts on every e_T f
    through the spin action (4^n Clifford actions), and the empty-wedge
    coefficient of the image is the pairing value."""
    rows = []
    for s_mask in range(1 << n):
        w = cc.star(sr.to_left_ideal(sr.SpinVector.basis(n, s_mask)))
        row = []
        for t_mask in range(1 << n):
            img = sr.clifford_action_on_spin(w, sr.SpinVector.basis(n, t_mask))
            row.append(img.coefficient(0))
        rows.append(tuple(row))
    return tuple(rows)


def oracle_nu2(x):
    """nu2 as first written: star(a) and then x f act on the exterior unit
    (two act_on_exterior calls), a the wedge part of x; the degree-n
    component of the image."""
    n = x.n
    a = cc.CliffordElement(n, {(m, 0): c for m, c in x.terms.items()})
    seed = cc.act_on_exterior(cc.star(a), cc.ExteriorVector.unit(n))
    full = cc.act_on_exterior(sr.to_left_ideal(x), seed)
    return full.degree_component(n)


@pytest.fixture
def rng(request):
    return make_rng(request.node.name)
