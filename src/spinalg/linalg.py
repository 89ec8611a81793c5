"""Exact linear algebra over rationals.

Matrices are lists of row lists of Fractions, all of one length: every
routine raises ValueError for rows of different lengths.  Everything is
exact: no tolerances anywhere.  Row spaces are canonicalized through reduced row
echelon form so subspaces compare by equality of their rref rows.

Every elimination runs through one fraction-free sparse step, `_update`.
Each row is scaled by the lcm of its denominators to a primitive integer row
``{col: int}``, and integer row operations take out the row gcd after each
step (the fraction-free method of Bareiss, Math. Comp. 22, 1968).  Nothing is
divided until a canonical row is written, one ``Fraction(v, pivot)`` per
entry.  Gauss–Jordan, `_eliminate`, runs it on a's rows: rank, row_space,
solve, solve_matrix, inverse, det and sparse_rank are built on it.  nullspace
runs it on kernel vectors instead, one update per row of a, and reads the
kernel back through `_eliminate`; intersect_row_spaces is built on both.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

Matrix = list[list[Fraction]]
Vector = list[Fraction]
IntRow = dict[int, int]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def _cols(a: Matrix) -> int:
    """The column count of a matrix; ValueError if its rows differ in length."""
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("rows differ in length")
    return cols


def transpose(a: Matrix) -> Matrix:
    """The transpose; ValueError if the rows of a differ in length."""
    _cols(a)
    return [list(col) for col in zip(*a)] if a else []


def _check_square(a: Matrix) -> None:
    if _cols(a) != len(a):
        raise ValueError("matrix is not square")


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a b, summing only the products of nonzero factors.

    ValueError unless the rows of b have one length and, when b has
    columns, every row of a has one entry per row of b; a product without columns is the empty row for each row of a,
    as a matrix without columns (written [] or [[], ...]) need not show its
    row count."""
    cols = _cols(b)
    if cols and any(len(row) != len(b) for row in a):
        raise ValueError("inner dimensions differ")
    return _product(a, b, Fraction(0))


def _product(a, b, zero):
    """a b with every sum started at zero (0 keeps int matrices on ints),
    summing only the products of nonzero factors; shapes are not checked."""
    b_nonzero = [[(k, y) for k, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * (len(b[0]) if b else 0)
        for x, nonzero in zip(row, b_nonzero):
            if x:
                for k, y in nonzero:
                    acc[k] += x * y
        out.append(acc)
    return out


def _int_matrix(a: Matrix) -> tuple[list[list[int]], int]:
    """(a scaled to integers by the lcm of its denominators, that lcm)."""
    den = reduce(lcm, (x.denominator for row in a for x in row), 1)
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def matvec(a: Matrix, v: Vector) -> Vector:
    """a v, summing only the products of nonzero factors; ValueError unless
    every row of a has one entry per entry of v.  Public as the Matrix type's
    matrix-vector product, which callers and the tests check solutions with."""
    if any(len(row) != len(v) for row in a):
        raise ValueError("matrix and vector dimensions differ")
    nonzero = [(k, y) for k, y in enumerate(v) if y]
    return [sum((row[k] * y for k, y in nonzero if row[k]), Fraction(0)) for row in a]


# -- the fraction-free elimination core ----------------------------------------


def _integer_row(items) -> tuple[IntRow, int, int]:
    """The primitive integer row of the (col, value) pairs `items`, with the
    lcm `den` of their denominators and the gcd `content` of the scaled
    numerators: integer row = (den / content) * values.  A one-entry row
    takes its value itself as content, sign included, so it becomes {k: 1};
    a longer row's content is positive.  Integer values (den 1) are not
    rescaled."""
    nonzero = [(k, x) for k, x in items if x]
    if not nonzero:
        return {}, 1, 1
    den = lcm(*[x.denominator for _, x in nonzero])
    if den == 1:
        row = {k: x.numerator for k, x in nonzero}
    else:
        row = {k: x.numerator * (den // x.denominator) for k, x in nonzero}
    vals = list(row.values())
    content = gcd(*vals) if len(vals) > 1 else vals[0]
    if content != 1:
        row = {k: v // content for k, v in row.items()}
    return row, den, content


def _update(rows, i: int, pivot_row: IntRow, pv: int, x: int, holding, scales) -> None:
    """The fraction-free step of both eliminations: rows[i] becomes
    (a rows[i] - b pivot_row) / g, with a / b = pv / x in lowest terms and g
    the gcd of the result, so the row stays primitive; scales[i] (if scales
    is not None) is multiplied by a / g.  holding[k], the set of indices
    whose rows have an entry in column k, gains or loses i as fill-in
    appears and cancels."""
    g = gcd(pv, x)
    a, b = pv // g, x // g
    row = rows[i]
    new = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    for k, v in pivot_row.items():
        y = new.get(k, 0) - b * v
        if y:
            if k not in new:
                holding[k].add(i)
            new[k] = y
        else:
            del new[k]
            holding[k].discard(i)
    content = reduce(gcd, new.values()) if new else 1
    if content != 1:
        new = {k: v // content for k, v in new.items()}
    rows[i] = new
    if scales is not None:
        scales[i] *= Fraction(a, content)


def _eliminate(rows: list[IntRow], scales: list[Fraction] | None = None) -> list[tuple[int, int]]:
    """Gauss–Jordan on primitive integer rows, in place; no division leaves
    the integers.

    Column by column, the shortest row that is not yet a pivot row and has an
    entry in column c becomes the pivot row r_p, with pivot pv = r_p[c]; ties
    go to the lowest row index.  Every other row r_i with an entry there
    becomes (pv r_i - r_i[c] r_p) / g by `_update`.  A column index (the set
    of rows with an entry in each column, kept as fill-in appears and
    cancels) finds the rows with an entry in c without visiting the others.
    Returns (column, row index) of each pivot in column order; afterwards
    each pivot row is zero in every other pivot column.  When `scales` is
    given, each step also multiplies scales[i] by the factor a / g it
    multiplied row i by, so the determinant of the rows over the product of
    the scales stays the same.
    """
    holding: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for k in row:
            holding.setdefault(k, set()).add(i)
    pivoted: set[int] = set()
    pivots: list[tuple[int, int]] = []
    for c in sorted(holding):
        candidates = holding[c] - pivoted
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        pivoted.add(p)
        pivots.append((c, p))
        pivot_row = rows[p]
        pv = pivot_row[c]
        for i in list(holding[c]):
            if i == p:
                continue
            _update(rows, i, pivot_row, pv, rows[i][c], holding, scales)
    return pivots


def _echelon(a: Matrix) -> tuple[list[IntRow], list[tuple[int, int]], int]:
    """The eliminated integer rows of a, their pivots and a's column count;
    ValueError for rows of different lengths."""
    cols = _cols(a)
    rows = [_integer_row(enumerate(row))[0] for row in a]
    return rows, _eliminate(rows), cols


def _pivot_rows(rows: list[IntRow], pivots: list[tuple[int, int]], cols: int) -> Matrix:
    """The nonzero rref rows of eliminated rows: each pivot row over its
    pivot, one Fraction per entry, in pivot column order."""
    zero = Fraction(0)
    out = []
    for c, i in pivots:
        pv = rows[i][c]
        dense = [zero] * cols
        for k, v in rows[i].items():
            dense[k] = Fraction(v, pv)
        out.append(dense)
    return out


def _kernel(rows: list[IntRow], pivots: list[tuple[int, int]], columns) -> list[tuple[IntRow, int]]:
    """Integer kernel basis of eliminated rows over the given columns (every
    column of the rows among them): for each free column f in order, (v, l)
    with v / l the kernel vector whose f coordinate is 1 and whose free
    coordinates are otherwise 0 (so v[f] = l > 0)."""
    pivot_cols = {c for c, _ in pivots}
    out = []
    for free in columns:
        if free in pivot_cols:
            continue
        hits = [(c, rows[i][free], rows[i][c]) for c, i in pivots if free in rows[i]]
        l = reduce(lcm, (pv for _, _, pv in hits), 1)
        v = {free: l}
        for c, a, pv in hits:
            v[c] = -a * (l // pv)
        out.append((v, l))
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    rows, pivots, cols = _echelon(a)
    out = _pivot_rows(rows, pivots, cols)
    out.extend([Fraction(0)] * cols for _ in range(len(a) - len(pivots)))
    return out, [c for c, _ in pivots]


def rank(a: Matrix) -> int:
    return len(_echelon(a)[1])


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparsely represented matrix (list of {col: value} rows)."""
    return len(_eliminate([_integer_row(row.items())[0] for row in rows]))


def det(a: Matrix) -> Fraction:
    """Determinant of a square matrix of Fractions or ints, by the same
    elimination: the product of the pivots, signed by the pivot permutation,
    over the row scales, as a Fraction; ValueError for a matrix that is not
    square."""
    _check_square(a)
    rows, scales = [], []
    for row in a:
        ints, den, content = _integer_row(enumerate(row))
        rows.append(ints)
        scales.append(Fraction(den, content))
    pivots = _eliminate(rows, scales)
    if len(pivots) < len(a):
        return Fraction(0)
    d = Fraction(1)
    for c, i in pivots:
        d *= rows[i][c]
    # the sign of the permutation column -> pivot row, by sorting it with swaps
    order = [i for _, i in pivots]
    for i in range(len(order)):
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], order[i]
            d = -d
    for s in scales:
        d /= s
    return d


def row_space(a: Matrix) -> Matrix:
    """Canonical basis (nonzero rref rows) of the row space."""
    rows, pivots, cols = _echelon(a)
    return _pivot_rows(rows, pivots, cols)


def nullspace(a: Matrix) -> Matrix:
    """Canonical kernel basis: one vector per free column of a's rref, free
    coordinate 1, the other free coordinates 0.

    The kernel is found by column updates (after Cohen 1993, §2.3):
    starting from the unit vectors, each nonzero primitive integer row r of
    a, shortest first, pairs d_j = r.v_j with the kernel vectors holding one
    of its columns.  If some d_j is nonzero, the shortest such v_p (ties to
    the lowest index) leaves the kernel and every other hit v_j becomes
    (d_p v_j - d_j v_p) / g by `_update`.  The vectors that are left span
    ker(a); they are read back by one elimination with their columns
    reversed, whose pivots are a's free columns: the last columns a kernel
    vector can end in."""
    cols = _cols(a)
    rows = sorted(filter(None, (_integer_row(enumerate(row))[0] for row in a)), key=len)
    kernel = {j: {j: 1} for j in range(cols)}
    holding = {j: {j} for j in range(cols)}
    for row in rows:
        d: dict[int, int] = {}
        for k, x in row.items():
            for j in holding[k]:
                d[j] = d.get(j, 0) + x * kernel[j][k]
        hits = [j for j, s in d.items() if s]
        if not hits:
            continue
        p = min(hits, key=lambda j: (len(kernel[j]), j))
        v_p = kernel.pop(p)
        for k in v_p:
            holding[k].discard(p)
        for j in hits:
            if j != p:
                _update(kernel, j, v_p, d[p], d[j], holding, None)
    back = [{cols - 1 - k: x for k, x in v.items()} for v in kernel.values()]
    basis: Matrix = []
    for c, i in reversed(_eliminate(back)):
        dense = [Fraction(0)] * cols
        for k, x in back[i].items():
            dense[cols - 1 - k] = Fraction(x, back[i][c])
        basis.append(dense)
    return basis


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a X = b (free variables set to 0), or None if
    some column is inconsistent; [a | b] is reduced once.  ValueError unless
    a and b are rectangular with one row of b per row of a."""
    cols, cols_b = _cols(a), _cols(b)
    if len(a) != len(b):
        raise ValueError(f"{len(b)} right-hand rows for {len(a)} equations")
    rows, pivots, _ = _echelon([list(row_a) + list(row_b) for row_a, row_b in zip(a, b)])
    if pivots and pivots[-1][0] >= cols:
        return None
    x = [[Fraction(0)] * cols_b for _ in range(cols)]
    for c, i in pivots:
        x[c] = [Fraction(rows[i].get(cols + j, 0), rows[i][c]) for j in range(cols_b)]
    return x


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b (free variables set to 0), or None."""
    x = solve_matrix(a, [[y] for y in b])
    return None if x is None else [row[0] for row in x]


def inverse(a: Matrix) -> Matrix:
    """The inverse of a square matrix; ValueError if a is not square or is
    singular."""
    _check_square(a)
    n = len(a)
    eye = identity(n)
    r, pivots = rref([a[i][:] + eye[i] for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r[:n]]


def intersect_row_spaces(a: Matrix, b: Matrix) -> Matrix:
    """Canonical basis of rowspace(a) ∩ rowspace(b); ValueError if the rows
    of a and b differ in length."""
    if not a or not b:
        return []
    if _cols(a) != _cols(b):
        raise ValueError("rows of a and b differ in length")
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
