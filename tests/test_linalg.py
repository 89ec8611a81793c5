"""Exact matrix products: linalg.matmul and matvec skip zero factors, and
must agree with the schoolbook product on every shape."""

from fractions import Fraction

from spinalg import linalg

from conftest import dense_matmul, make_rng


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
