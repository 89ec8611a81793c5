"""Exact linear algebra over rationals.

Matrices are lists of row lists of Fractions.  Everything is exact: no
tolerances anywhere.  Row spaces are canonicalized through reduced row
echelon form so subspaces compare by equality of their rref rows.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows) -> Matrix:
    return [[frac(x) for x in row] for row in rows]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a b, summing only the products of nonzero factors."""
    cols = len(b[0]) if b else 0
    b_nonzero = [[(k, y) for k, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for x, nonzero in zip(row, b_nonzero):
            if x:
                for k, y in nonzero:
                    acc[k] += x * y
        out.append(acc)
    return out


def matvec(a: Matrix, v: Vector) -> Vector:
    """a v, summing only the products of nonzero factors."""
    nonzero = [(k, y) for k, y in enumerate(v) if y]
    return [sum((row[k] * y for k, y in nonzero if row[k]), Fraction(0)) for row in a]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
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


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def row_space(a: Matrix) -> Matrix:
    """Canonical basis (nonzero rref rows) of the row space."""
    r, pivots = rref(a)
    return [row for row in r[: len(pivots)]]


def nullspace(a: Matrix) -> Matrix:
    """Canonical kernel basis: one vector per free column, free coordinate 1."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis: Matrix = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][free]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b (free variables set to 0), or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [frac(b[i])] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b column by column; returns X or None if inconsistent."""
    cols_b = len(b[0]) if b else 0
    xt: Matrix = []
    bt = transpose(b)
    for col in bt:
        x = solve(a, col)
        if x is None:
            return None
        xt.append(x)
    return transpose(xt) if xt else [[] for _ in range(len(a[0]))]


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r[:n]]


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [row[:] for row in a]
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


def intersect_row_spaces(a: Matrix, b: Matrix) -> Matrix:
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    if not a or not b:
        return []
    ra = row_space(a)
    rb = row_space(b)
    if not ra or not rb:
        return []
    # kernel of [ra^T | -rb^T] gives coefficient pairs with equal combinations
    stacked = [list(x) + [-y for y in yrow] for x, yrow in zip(transpose(ra), transpose(rb))]
    combos = nullspace(stacked)
    vecs = []
    na = len(ra)
    for c in combos:
        v = [sum((c[i] * ra[i][j] for i in range(na)), Fraction(0)) for j in range(len(ra[0]))]
        vecs.append(v)
    return row_space(vecs) if vecs else []


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparsely represented matrix (list of {col: value} rows).

    Pivots on the shortest remaining row to limit fill-in; exact throughout.
    """
    work = [dict(r) for r in rows if r]
    rk = 0
    while work:
        work.sort(key=len)
        row = work.pop(0)
        rk += 1
        c = min(row)
        pv = row[c]
        rest = []
        for other in work:
            val = other.get(c)
            if val is not None:
                f = val / pv
                for cc, x in row.items():
                    nv = other.get(cc, Fraction(0)) - f * x
                    if nv:
                        other[cc] = nv
                    else:
                        other.pop(cc, None)
            if other:
                rest.append(other)
        work = rest
    return rk
