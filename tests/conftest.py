"""Shared helpers and independent oracles for the test suite."""

import random
from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import spin_rep as sr


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


@pytest.fixture
def rng(request):
    return make_rng(request.node.name)
