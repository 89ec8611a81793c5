"""Exact linear algebra against independent references: linalg.matmul and
matvec skip zero factors and must agree with the schoolbook product on every
shape; the fraction-free elimination core behind rref, rank, nullspace, solve,
solve_matrix, inverse, det and sparse_rank must agree with the dense Fraction
Gauss-Jordan oracle on every shape."""

from fractions import Fraction

import pytest

from spinalg import linalg

from conftest import dense_matmul, make_rng, oracle_det, oracle_rref


def random_sparse(rng, rows, cols, density=0.3):
    return [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def assert_all_fractions(m):
    assert all(type(x) is Fraction for row in m for x in row)


def test_matmul_matches_dense_product():
    rng = make_rng("matmul")
    for _ in range(40):
        r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a = random_sparse(rng, r, k)
        b = random_sparse(rng, k, c)
        # zero rows of a and zero columns of b
        a[rng.randrange(r)] = [Fraction(0)] * k
        zero_col = rng.randrange(c)
        for row in b:
            row[zero_col] = Fraction(0)
        out = linalg.matmul(a, b)
        assert out == dense_matmul(a, b)
        assert_all_fractions(out)


def test_matmul_all_zero_and_integer_entries():
    a = [[0, 0], [0, 0], [0, 0]]
    b = [[1, 2, 3], [4, 5, 6]]
    out = linalg.matmul(a, b)
    assert out == [[0, 0, 0]] * 3
    assert_all_fractions(out)
    out = linalg.matmul([[1, 2]], b)
    assert out == [[9, 12, 15]]
    assert_all_fractions(out)


def test_matmul_empty_shapes():
    assert linalg.matmul([[Fraction(1)], [Fraction(2)]], []) == [[], []]
    assert linalg.matmul([], [[Fraction(1)]]) == []
    assert linalg.matmul([[]], [[]]) == [[]]
    assert linalg.matmul([[], []], []) == [[], []]


def test_matvec_matches_dense_product():
    rng = make_rng("matvec")
    for _ in range(40):
        r, k = rng.randint(1, 7), rng.randint(1, 7)
        a = random_sparse(rng, r, k)
        v = random_sparse(rng, 1, k, density=0.5)[0]
        out = linalg.matvec(a, v)
        assert out == [row[0] for row in dense_matmul(a, [[x] for x in v])]
        assert all(type(x) is Fraction for x in out)
    assert linalg.matvec([[Fraction(1), Fraction(2)]], [Fraction(0), Fraction(0)]) == [0]
    assert type(linalg.matvec([[0, 0]], [1, 2])[0]) is Fraction
    assert linalg.matvec([], []) == []


# -- the elimination core against the dense Fraction oracle ---------------------


def rank_deficient(rng, rows, cols, rank):
    """A product of random rows x rank and rank x cols factors."""
    return dense_matmul(random_sparse(rng, rows, rank, 0.7), random_sparse(rng, rank, cols, 0.7))


def elimination_cases():
    rng = make_rng("elimination")
    big = 10**30
    cases = {
        "empty": [],
        "rows-no-cols": [[], [], []],
        "one-zero": [[Fraction(0)]],
        "all-zero": [[Fraction(0)] * 5 for _ in range(4)],
        "int-entries": [[2, 4, 0, 6], [1, 0, 3, 0], [3, 4, 3, 6]],
        "large": [
            [Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(6)]
            for _ in range(5)
        ],
        "workload-32x12": rank_deficient(rng, 32, 12, 6),
        "workload-16x10": rank_deficient(rng, 16, 10, 5),
        "workload-108x36": rank_deficient(rng, 108, 36, 20),
    }
    for t in range(6):
        cases[f"tall-{t}"] = random_sparse(rng, rng.randint(6, 12), rng.randint(1, 5))
        cases[f"wide-{t}"] = random_sparse(rng, rng.randint(1, 5), rng.randint(6, 12))
        cases[f"square-{t}"] = random_sparse(rng, 6, 6, 0.5)
        r, c = rng.randint(3, 9), rng.randint(3, 9)
        cases[f"deficient-{t}"] = rank_deficient(rng, r, c, rng.randint(1, min(r, c) - 1))
    return cases


CASES = elimination_cases()
SQUARE = {k: v for k, v in CASES.items() if all(len(row) == len(v) for row in v)}


def width(a):
    return len(a[0]) if a else 0


def oracle_nullspace(a):
    r, pivots = oracle_rref(a)
    basis = []
    for free in range(width(a)):
        if free not in pivots:
            v = [Fraction(int(k == free)) for k in range(width(a))]
            for i, p in enumerate(pivots):
                v[p] = -r[i][free]
            basis.append(v)
    return basis


def oracle_solve_matrix(a, b):
    """Column by column through the oracle rref; None if any is inconsistent."""
    cols = width(a)
    xt = []
    for j in range(width(b)):
        r, pivots = oracle_rref([list(row) + [rhs[j]] for row, rhs in zip(a, b)])
        if cols in pivots:
            return None
        x = [Fraction(0)] * cols
        for i, p in enumerate(pivots):
            x[p] = r[i][cols]
        xt.append(x)
    return [list(row) for row in zip(*xt)] if xt else [[] for _ in range(cols)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_rref_matches_oracle(name):
    a = CASES[name]
    out, pivots = linalg.rref(a)
    assert (out, pivots) == oracle_rref(a)
    assert_all_fractions(out)
    assert len(out) == len(a)
    assert linalg.rank(a) == len(pivots)
    assert linalg.row_space(a) == out[: len(pivots)]
    rows = [{k: x for k, x in enumerate(row) if x} for row in a]
    assert linalg.sparse_rank(rows) == len(pivots)


@pytest.mark.parametrize("name", sorted(CASES))
def test_nullspace_matches_oracle(name):
    a = CASES[name]
    kernel = linalg.nullspace(a)
    assert kernel == oracle_nullspace(a)
    assert_all_fractions(kernel)
    for v in kernel:
        assert linalg.matvec(a, v) == [0] * len(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_matches_oracle(name):
    a = CASES[name]
    rng = make_rng(f"solve:{name}")
    x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(width(a))]
    consistent = linalg.matvec(a, x0)
    # random: inconsistent for most tall and rank-deficient cases
    off = [Fraction(rng.randint(-5, 5)) for _ in a]
    for b in (consistent, off):
        expected = oracle_solve_matrix(a, [[y] for y in b])
        x = linalg.solve(a, b)
        if expected is None:
            assert x is None
        else:
            assert x == [row[0] for row in expected]
            assert_all_fractions([x])
            assert linalg.matvec(a, x) == b
    b = [consistent, off, [Fraction(0)] * len(a)]
    b = [list(row) for row in zip(*b)]
    x = linalg.solve_matrix(a, b)
    assert x == oracle_solve_matrix(a, b)
    x = linalg.solve_matrix(a, [[y] for y in consistent])
    assert x is not None
    assert_all_fractions(x)


def test_solve_inconsistent_and_int_inputs():
    a = [[1, 2], [2, 4]]
    assert linalg.solve(a, [1, 3]) is None
    assert linalg.solve_matrix(a, [[1, 1], [2, 3]]) is None
    x = linalg.solve(a, [1, 2])
    assert x == [1, 0] and all(type(v) is Fraction for v in x)
    assert linalg.solve_matrix(a, [[], []]) == [[], []]


@pytest.mark.parametrize("name", sorted(SQUARE))
def test_det_and_inverse_match_oracle(name):
    a = SQUARE[name]
    d = linalg.det(a)
    assert d == oracle_det(a)
    assert type(d) is Fraction
    if oracle_det(a) == 0:
        if a:
            with pytest.raises(ValueError):
                linalg.inverse(a)
        return
    inv = linalg.inverse(a)
    n = len(a)
    r, _ = oracle_rref([list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)])
    assert inv == [row[n:] for row in r]
    assert_all_fractions(inv)
    assert linalg.matmul(a, inv) == linalg.identity(n)


def test_det_signs_and_scales():
    rng = make_rng("det")
    for _ in range(30):
        n = rng.randint(1, 7)
        a = random_sparse(rng, n, n, 0.6)
        for i in range(n):
            if rng.random() < 0.5:
                a[i][rng.randrange(n)] = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert linalg.det(a) == oracle_det(a)
        perm = list(range(n))
        rng.shuffle(perm)
        assert linalg.det([a[i] for i in perm]) == oracle_det([a[i] for i in perm])
    assert linalg.det([]) == 1
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert type(linalg.det([[2, 1], [1, 1]])) is Fraction
    with pytest.raises(ValueError):
        linalg.inverse([[1, 2], [2, 4]])
