"""Exact linear algebra against independent references: linalg.matmul and
matvec skip zero factors and must agree with the schoolbook product on every
shape; the fraction-free elimination core behind rref, rank, nullspace, solve,
solve_matrix, inverse, det and sparse_rank must agree with the dense Fraction
Gauss-Jordan oracle on every shape."""

from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr

from conftest import (
    dense_matmul,
    make_rng,
    oracle_det,
    oracle_integer_row,
    oracle_intersect_row_spaces,
    oracle_nullspace,
    oracle_rref,
)


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


def test_matmul_rejects_mismatched_inner_dimensions():
    # a 1 x 2 times a 1 x 2 used to give [[1, 2]], the first column only
    with pytest.raises(ValueError):
        linalg.matmul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        linalg.matmul([[1], [2, 3]], [[1], [2]])


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


# -- the column index on the module-iso-rank matrix ------------------------------


def module_iso_rows(n):
    """The sparse rows of the report's module-iso-rank check at level n: the
    image of the unit under each Clifford monomial e_S f_T, 4^n rows over
    4^n columns, about three entries a row."""
    return [
        {k: x for k, x in cc.act_on_exterior(cc.CliffordElement(n, {(em, fm): Fraction(1)}), cc.ExteriorVector.unit(n)).terms.items()}
        for em in range(1 << n)
        for fm in range(1 << n)
    ]


def dense(rows, cols):
    return [[row.get(k, Fraction(0)) for k in range(cols)] for row in rows]


def index_free_eliminate(rows, scales=None):
    """The elimination core as first written, without the column index: the
    candidates of each column by testing every waiting row, then a visit of
    every row.  The reference for the indexed core, which must take the same
    pivots and make the same integer rows and scales."""
    waiting = {i for i, row in enumerate(rows) if row}
    pivots = []
    for c in sorted(set().union(*rows)):
        candidates = [i for i in waiting if c in rows[i]]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        waiting.discard(p)
        pivots.append((c, p))
        pivot_row = rows[p]
        pv = pivot_row[c]
        for i, row in enumerate(rows):
            ric = row.get(c)
            if ric is None or i == p:
                continue
            g = gcd(pv, ric)
            a, b = pv // g, ric // g
            new = {k: a * v for k, v in row.items()}
            for k, v in pivot_row.items():
                x = new.get(k, 0) - b * v
                if x:
                    new[k] = x
                else:
                    del new[k]
            content = reduce(gcd, new.values()) if new else 1
            rows[i] = {k: v // content for k, v in new.items()}
            if scales is not None:
                scales[i] *= Fraction(a, content)
    return pivots


@pytest.mark.parametrize("n", [3, 4])
def test_module_iso_matrix_matches_oracle(n):
    a = dense(module_iso_rows(n), 4**n)
    out, pivots = linalg.rref(a)
    assert (out, pivots) == oracle_rref(a)
    assert pivots == list(range(4**n))
    assert linalg.det(a) == oracle_det(a)


@pytest.mark.parametrize("n", [5])
def test_module_iso_elimination_matches_the_index_free_core(n):
    # every step is the same integer step: the same pivots, rows and scales;
    # at n = 5 the dense oracles would take about 16 s
    sparse = module_iso_rows(n)
    runs = []
    for eliminate in (linalg._eliminate, index_free_eliminate):
        rows, scales = [], []
        for row in sparse:
            ints, den, content = linalg._integer_row(row.items())
            rows.append(ints)
            scales.append(Fraction(den, content))
        runs.append((eliminate(rows, scales), rows, scales))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 4**n
    assert linalg.sparse_rank(sparse) == 4**n


@pytest.mark.parametrize("name", sorted(CASES))
def test_elimination_matches_the_index_free_core(name):
    # the same pivots, primitive integer rows and scales on every shape
    runs = []
    for eliminate in (linalg._eliminate, index_free_eliminate):
        rows, scales = [], []
        for row in CASES[name]:
            ints, den, content = linalg._integer_row(enumerate(row))
            rows.append(ints)
            scales.append(Fraction(den, content))
        runs.append((eliminate(rows, scales), rows, scales))
    assert runs[0] == runs[1]
    assert all(reduce(gcd, row.values()) == 1 for row in runs[0][1] if row)


def test_det_of_each_sign_under_permuted_rows():
    # permuted rows change which row is the shortest candidate of a column,
    # so the pivot rows and the sign of the pivot permutation change
    rng = make_rng("det-module-iso")
    a = dense(module_iso_rows(3), 64)
    signs = set()
    for _ in range(6):
        perm = list(range(len(a)))
        rng.shuffle(perm)
        b = [a[i] for i in perm]
        d = linalg.det(b)
        assert d == oracle_det(b) and d in (1, -1)
        signs.add(d)
    assert signs == {1, -1}


def evaluation_matrix(points, degree):
    """The value of each degree-d monomial in the even coordinates at each
    point, one row a point: the matrix whose kernel vanishing_forms reads."""
    monos = ie.monomials_of_degree(ie.component_variables(points[0].n), degree)
    out = []
    for x in points:
        row = []
        for mono in monos:
            v = Fraction(1)
            for m in mono:
                v *= x.terms.get(m, 0)
            row.append(v)
        out.append(row)
    return out


def columns_by_count(a):
    """The columns of a, those held by the most rows first, ties by index:
    a column order that an elimination may take in place of index order."""
    return sorted(range(width(a)), key=lambda k: (-sum(1 for row in a if row[k]), k))


@pytest.mark.parametrize("stream", ["a", "b"])
def test_nullspace_of_the_discovery_matrices_matches_oracle(stream):
    # the two 108 x 36 matrices of the level-4 quadric's discovery, round 0
    a = evaluation_matrix(ie.cone_points(4, f"vf:i4-discovery:{stream}0", 108), 2)
    assert (len(a), width(a)) == (108, 36)
    kernel = linalg.nullspace(a)
    assert kernel == oracle_nullspace(a) and len(kernel) == 1


def test_nullspace_of_the_level_five_degree_two_matrix_matches_oracle():
    # the 408 x 136 matrix of degree2-span at n = 5, seed 7.  The oracle
    # reads its first 150 rows (all 408 would take about 4 s): their kernel
    # holds a's, and it has as many vectors as nullspace(a) finds in a's, so
    # the two kernels are one space with one canonical basis
    a = evaluation_matrix(ie.cone_points(5, "7:span", 408), 2)
    assert (len(a), width(a)) == (408, 136)
    kernel = linalg.nullspace(a)
    assert len(kernel) == 10
    for v in kernel:
        assert linalg.matvec(a, v) == [0] * len(a)
    assert kernel == oracle_nullspace(a[:150])


def test_nullspace_is_canonical_where_another_column_order_takes_other_pivots():
    # column 2 = column 0 + column 1 is held by the most rows, so eliminating
    # the columns in that order takes columns 2 and 1 as pivots where index
    # order takes 0 and 1; the basis is a's canonical one either way
    a = [[1, 0, 1], [0, 1, 1], [0, 1, 1]]
    order = columns_by_count(a)
    assert order == [2, 1, 0]
    _, permuted = oracle_rref([[row[k] for k in order] for row in a])
    assert {order[j] for j in permuted} != set(oracle_rref(a)[1])
    assert linalg.nullspace(a) == oracle_nullspace(a) == [[-1, -1, 1]]
    rng = make_rng("densest-first")
    for _ in range(20):
        b = rank_deficient(rng, rng.randint(3, 9), 8, rng.randint(1, 5))
        assert linalg.nullspace(b) == oracle_nullspace(b)


def test_nullspace_with_an_all_zero_column():
    # column 1 is held by no row: its unit vector is never updated and stays
    # in the kernel, and it comes last in the column order by count
    a = [[1, 0, 2, 3], [2, 0, 4, 5], [Fraction(1, 2), 0, 1, 0]]
    assert columns_by_count(a)[-1] == 1
    kernel = linalg.nullspace(a)
    assert kernel == oracle_nullspace(a) == [[0, 1, 0, 0], [-2, 0, 1, 0]]
    assert_all_fractions(kernel)


def stabilizer_line_matrix(n, sample):
    """The matrix of suites._check_sh_dimension at seed 7: for each vector v
    of a random maximal isotropic H, the 2^n rows of v's action on S."""
    h = gc.random_maximal_isotropic(n, f"7:sh:{sample}")
    rows = []
    for v in h.vectors():
        cols = [sr.vector_action(v, sr.SpinVector.basis(n, m)) for m in range(1 << n)]
        rows += [[col.coefficient(mask) for col in cols] for mask in range(1 << n)]
    return rows


@pytest.mark.parametrize("n", [4, 5, 6])
def test_nullspace_of_the_stabilizer_line_matrices_matches_oracle(n):
    # S_H is one line: the pure spinor of H spans the common kernel
    a = stabilizer_line_matrix(n, 0)
    assert (len(a), width(a)) == (n << n, 1 << n)
    kernel = linalg.nullspace(a)
    assert kernel == oracle_nullspace(a) and len(kernel) == 1
    assert_all_fractions(kernel)


def test_intersect_row_spaces_matches_oracle():
    rng = make_rng("intersect")
    for _ in range(30):
        c = rng.randint(1, 7)
        a = rank_deficient(rng, rng.randint(1, 6), c, rng.randint(1, c))
        b = rank_deficient(rng, rng.randint(1, 6), c, rng.randint(1, c))
        if rng.random() < 0.5:
            b = b + a[: rng.randint(1, len(a))]
        assert linalg.intersect_row_spaces(a, b) == oracle_intersect_row_spaces(a, b)


NON_SQUARE =([[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1], [1, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


@pytest.mark.parametrize("a", NON_SQUARE)
def test_det_rejects_non_square(a):
    # det([[1, 2, 3], [4, 5, 6]]) used to give -3
    with pytest.raises(ValueError):
        linalg.det(a)


@pytest.mark.parametrize("a", NON_SQUARE)
def test_inverse_rejects_non_square(a):
    # inverse([[1, 0], [0, 1], [1, 1]]) used to give a 3 x 2 matrix
    with pytest.raises(ValueError):
        linalg.inverse(a)


I2 = [[1, 0], [0, 1]]

# each of these used to return an answer read off truncated or padded rows
BAD_SHAPES = {
    "rank-ragged": lambda: linalg.rank([[1, 0, 0], [0, 1]]),
    "rref-ragged": lambda: linalg.rref([[1, 0, 0], [0, 1]]),
    "transpose-ragged": lambda: linalg.transpose([[1, 2], [3]]),
    "nullspace-ragged": lambda: linalg.nullspace([[0, 1], [1, 0, 1]]),
    "row-space-ragged": lambda: linalg.row_space([[0, 1], [1, 0, 0]]),
    "solve-short-rhs": lambda: linalg.solve(I2, [1]),
    "solve-long-rhs": lambda: linalg.solve(I2, [1, 2, 3]),
    "solve-matrix-short-rhs": lambda: linalg.solve_matrix(I2, [[1]]),
    "solve-matrix-long-rhs": lambda: linalg.solve_matrix(I2, [[1], [2], [3]]),
    "matmul-ragged-right": lambda: linalg.matmul([[1, 1]], [[1, 2], [3]]),
    "matvec-short-vector": lambda: linalg.matvec([[1, 2], [3, 4]], [1]),
    "intersect-different-widths": lambda: linalg.intersect_row_spaces([[1, 0, 0]], [[1, 0]]),
}


@pytest.mark.parametrize("call", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
def test_bad_shapes_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_integer_row_matches_the_reduce_body():
    # the same row, dict order, lcm and content as the body folded by reduce,
    # one-entry rows included: their content is the value itself, sign and all
    rng = make_rng("integer-row")
    cases = [[], [(0, Fraction(0))], [(3, 0), (5, Fraction(0))]]
    cases += [[(k, v)] for k in (0, 7) for v in (1, -1, 6, -6, Fraction(-9, 4), Fraction(5, 3), 12)]
    for _ in range(200):
        cols = rng.sample(range(40), rng.randint(1, 12))
        if rng.random() < 0.5:
            cases.append([(k, Fraction(rng.randint(-30, 30), rng.randint(1, 12))) for k in cols])
        else:
            scale = rng.choice([1, 2, -3, 6])
            cases.append([(k, scale * rng.randint(-9, 9)) for k in cols])
            cases.append([(k, Fraction(scale * rng.randint(-9, 9))) for k in cols])
    for items in cases:
        got, want = linalg._integer_row(iter(items)), oracle_integer_row(iter(items))
        assert got == want and list(got[0].items()) == list(want[0].items())
        assert all(type(v) is int for v in got[0].values()) and type(got[1]) is int and type(got[2]) is int
