"""Shared helpers and independent oracles for the test suite."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from spinalg import cartan as ca
from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import suites
from spinalg import transfer_maps as tm
from spinalg.errors import IndexRangeError, NotIsotropicError, SpinalgError, StructureError


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
    masks = ie.component_variables(n)
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
    """Gauss-Jordan over Fractions: (rref rows, pivot columns), with the pivots
    and rows of the original dense reference routine; entries are made
    Fractions first, so plain integers give the same result.  Each input is reduced once per test run
    (the elimination tests share their large cases); every call gets its own
    copy of the answer."""
    m, pivots = _oracle_rref(tuple(map(tuple, a)))
    return [list(row) for row in m], list(pivots)


@functools.lru_cache(maxsize=None)
def _oracle_rref(a):
    """Gauss-Jordan over Fractions on sparse rows {column: value}, zeros left
    out, so a pivot step touches only the rows and entries that it changes;
    the pivot of column c is the first remaining row with an entry there, as
    in the dense routine first written.  The rows are returned dense."""
    cols = len(a[0]) if a else 0
    m = [{c: Fraction(x) for c, x in enumerate(row) if x} for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = {k: x / pv for k, x in m[r].items()}
        for i, row in enumerate(m):
            if i != r and c in row:
                f = row[c]
                for k, y in m[r].items():
                    x = row.get(k, 0) - f * y
                    if x:
                        row[k] = x
                    else:
                        del row[k]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[row.get(k, Fraction(0)) for k in range(cols)] for row in m], pivots


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


def oracle_pure_subspace(x):
    """annihilator as written before the pure verdict kept its rows: the
    split and residuals of grassmann_cone, the residuals' kernel by
    linalg._eliminate and _kernel even when there are no residuals, each
    kernel vector lifted through the pivots, then the Gram audit, the rank
    audit and the rref rows in one routine."""
    n = x.n
    pivots, l, others = gc._split_action(x)
    residuals = [r for r in (gc._residual(row, pivots, l) for row in others) if r]
    lift = {}
    for c, (q, rest) in pivots.items():
        for k, y in rest.items():
            lift.setdefault(k, {})[c] = -q * y
    rows, scales = [], []
    free = [k for k in range(2 * n) if k not in pivots]
    for w, s in linalg._kernel(residuals, linalg._eliminate(residuals), free):
        v = {k: l * y for k, y in w.items()}
        for k, y in w.items():
            for c, z in lift.get(k, {}).items():
                v[c] = v.get(c, 0) + z * y
        rows.append({k: y for k, y in v.items() if y})
        scales.append(l * s)
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            g = gc._row_pairing(a, rows[j], n)
            if g:
                raise NotIsotropicError(
                    f"Gram entry (row {i + 1}, row {j + 1}) = {Fraction(g) / (scales[i] * scales[j])} != 0"
                )
    pivots = linalg._eliminate(rows)
    if len(pivots) != len(rows):
        raise SpinalgError(f"rows are rank deficient: rank {len(pivots)} < {len(rows)}")
    return gc.IsotropicSubspace._trusted(n, tuple(map(tuple, linalg._pivot_rows(rows, pivots, 2 * n))))


def oracle_residual_purity(x):
    """grassmann_cone.is_pure as written before the chart sets: every action
    row that x reaches reduced against the n pivot rows (_residual), the
    first nonzero residual a "not pure" verdict."""
    if x.is_zero():
        return gc.PurityResult("zero")
    pivots, l, others = gc._split_action(x)
    if any(gc._residual(row, pivots, l) for row in others):
        return gc.PurityResult("not_pure")
    return gc.PurityResult("pure", _rows=tuple(gc._split_kernel(pivots, l, [], x.n)))


def oracle_integer_row(items):
    """linalg._integer_row as first written: lcm and gcd folded by reduce
    over generators, every value rescaled."""
    nonzero = [(k, x) for k, x in items if x]
    if not nonzero:
        return {}, 1, 1
    den = functools.reduce(math.lcm, (x.denominator for _, x in nonzero))
    row = {k: x.numerator * (den // x.denominator) for k, x in nonzero}
    content = functools.reduce(math.gcd, row.values())
    if content != 1:
        row = {k: v // content for k, v in row.items()}
    return row, den, content


def oracle_group_apply(g, x):
    """GroupElement.apply step by step on Fractions, without the root
    tables: each letter (t, X), last first, sends x to x + t rho_so(X, x)."""
    for kind, i, j, t in reversed(g.word):
        x = x + sr.rho_so(sr.root_so_element(g.n, kind, i, j), x).scale(t)
    return x


class OracleOperator:
    """LinearOperator as first written, on Fraction column dicts: cols maps a
    source mask to its image, {target mask: Fraction}, zero entries and zero
    columns left out.  It equals another OracleOperator of the same levels
    and columns; read_operator gives a LinearOperator's columns through its
    apply, so the two are compared without the new constructor."""

    def __init__(self, source_n, target_n, cols):
        self.source_n, self.target_n = source_n, target_n
        cols = {m: {r: Fraction(c) for r, c in col.items() if c} for m, col in cols.items()}
        self.cols = {m: col for m, col in cols.items() if col}

    def apply(self, x):
        assert x.n == self.source_n
        out = {}
        for m, c in x.terms.items():
            for r, v in self.cols.get(m, {}).items():
                out[r] = out.get(r, Fraction(0)) + c * v
        return sr.SpinVector(self.target_n, out)

    def compose(self, inner):
        assert inner.target_n == self.source_n
        cols = {m: self.apply(sr.SpinVector(self.source_n, col)).terms for m, col in inner.cols.items()}
        return OracleOperator(inner.source_n, self.target_n, cols)

    def combine(self, other, sign=1):
        """self + sign * other, column by column."""
        assert (self.source_n, self.target_n) == (other.source_n, other.target_n)
        keys = set(self.cols) | set(other.cols)
        cols = {m: oracle_sparse_sum(self.cols.get(m, {}), other.cols.get(m, {}), sign) for m in keys}
        return OracleOperator(self.source_n, self.target_n, cols)

    def scale(self, c):
        return OracleOperator(self.source_n, self.target_n, {m: oracle_sparse_scale(col, c) for m, col in self.cols.items()})

    def is_zero(self):
        return not self.cols

    def determinant(self):
        assert self.source_n == self.target_n
        size = 1 << self.source_n
        return oracle_det([[self.cols.get(m, {}).get(r, 0) for m in range(size)] for r in range(size)])

    def __eq__(self, other):
        return isinstance(other, OracleOperator) and vars(self) == vars(other)


def oracle_operator(n, fn):
    """The operator with column m fn(e_m), one call of fn per basis vector:
    how GroupElement.operator and gl_twist_residual first built theirs; the
    target level is that of the images."""
    images = {m: fn(sr.SpinVector.basis(n, m)) for m in range(1 << n)}
    return OracleOperator(n, images[0].n, {m: v.terms for m, v in images.items()})


def read_operator(op):
    """The OracleOperator of a LinearOperator's columns, read through apply."""
    return oracle_operator(op.source_n, op.apply)


def oracle_twist_residual(a):
    """gl_twist_residual as first written: rho(A) - rho~(A) + tr(A)/2 on
    each basis vector, by rho_so and rho_standard."""
    half_tr = a.trace_gl() / 2
    return oracle_operator(a.n, lambda v: sr.rho_so(a, v) - sr.rho_standard(a, v) + v.scale(half_tr))


def oracle_bracket_compat(n, seed, samples):
    """suites._check_bracket_compat as first written: both sides by rho_so on
    one basis vector at a time."""
    forms = suites._all_two_forms(n)
    rng = suites._rng(seed, "bracket", n)
    pairs = [(x, y) for x in forms for y in forms]
    if len(pairs) > samples * 20:
        pairs = rng.sample(pairs, samples * 20)
    basis = [sr.SpinVector.basis(n, m) for m in range(1 << n)]
    for x, y in pairs:
        z = sr.so_bracket(x, y)
        for b in basis:
            lhs = sr.rho_so(z, b)
            rhs = sr.rho_so(x, sr.rho_so(y, b)) - sr.rho_so(y, sr.rho_so(x, b))
            if lhs != rhs:
                return f"bracket mismatch for {x} , {y}"


def oracle_group_unipotent(n, seed, samples):
    """suites._check_group_unipotent with each operator built by
    GroupElement.apply on one basis vector at a time."""
    rng = suites._rng(seed, "grp", n)
    for kind, i, j in sr.all_root_vectors(n):
        t = Fraction(rng.randint(1, 3))
        g = sr.exp_nilpotent(n, kind, i, j, t)
        if not oracle_operator(n, (g * g.inverse()).apply) == oracle_operator(n, lambda x: x):
            return f"inverse failed for {kind}({i},{j})"
        if oracle_operator(n, g.apply).determinant() != 1:
            return f"determinant != 1 for {kind}({i},{j})"


def oracle_twist(n, seed, samples):
    """suites._check_twist on oracle_twist_residual."""
    rng = suites._rng(seed, "twist", n)
    for t in range(min(samples, 12)):
        ef = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ef[(i, j)] = Fraction(rng.randint(-2, 2))
        if not oracle_twist_residual(sr.SoElement(n, ef=ef)).is_zero():
            return f"twist residual nonzero at sample {t}"


def oracle_equivariance(n, seed, samples):
    """suites._check_equivariance as first written: GroupElement.apply,
    pi_last and tau_last on one basis vector at a time."""
    rng = suites._rng(seed, "equiv", n)
    for kind, i, j in sr.all_root_vectors(n - 1):
        t = Fraction(rng.choice([1, 2, -1]), rng.choice([1, 2]))
        g_low = sr.exp_nilpotent(n - 1, kind, i, j, t)
        g_high = sr.exp_nilpotent(n, kind, i, j, t)
        for m in range(1 << n):
            x = sr.SpinVector.basis(n, m)
            if tm.pi_last(g_high.apply(x)) != g_low.apply(tm.pi_last(x)):
                return f"pi equivariance failed for {kind}({i},{j})"
        for m in range(1 << (n - 1)):
            x = sr.SpinVector.basis(n - 1, m)
            if tm.tau_last(g_low.apply(x)) != g_high.apply(tm.tau_last(x)):
                return f"tau equivariance failed for {kind}({i},{j})"


def random_two_form_blocks(n, rng, nterms=4):
    """Seeded two-form blocks {"ee": ..., "ff": ..., "ef": ...}, each a map
    (i, j) -> nonzero Fraction, as SoElement's keyword constructor takes them:
    up to nterms pairs per block, i < j in ee and ff, the diagonal of ef
    always filled."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def coef():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    blocks = {kind: {p: coef() for p in rng.sample(pairs, min(nterms, len(pairs)))} for kind in ("ee", "ff")}
    blocks["ef"] = {(i, i): coef() for i in range(1, n + 1)}
    blocks["ef"].update({(rng.randint(1, n), rng.randint(1, n)): coef() for _ in range(nterms)})
    return blocks


def _block_pairs(blocks):
    """The basis two-forms u^v of the blocks as (u, v, c), u and v signed symbols."""
    out = [(i, j, c) for (i, j), c in blocks.get("ee", {}).items()]
    out += [(-i, -j, c) for (i, j), c in blocks.get("ff", {}).items()]
    return out + [(i, -j, c) for (i, j), c in blocks.get("ef", {}).items()]


def oracle_two_form_matrix(n, blocks):
    """SoElement.matrix as first written, on the blocks: for each u^v and each
    basis column w, (v|w) u - (u|w) v by the symbol pairing."""
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]

    def row(sym):
        return sym - 1 if sym > 0 else n - sym - 1

    for u, v, c in _block_pairs(blocks):
        for col in range(2 * n):
            w = col + 1 if col < n else -(col - n + 1)
            m[row(u)][col] += c * cc.symbol_pairing(v, w)
            m[row(v)][col] -= c * cc.symbol_pairing(u, w)
    return m


def oracle_so_words(blocks):
    """spin_rep._so_words as first written, block by block: e_i^e_j acts as
    (1/2) o(e_i) o(e_j), f_i^f_j as 2 iota(f_i) iota(f_j) and e_i^f_j as
    (1/2) (o(e_i) iota(f_j) - iota(f_j) o(e_i))."""
    words = [(c / 2, [sr._o(i), sr._o(j)]) for (i, j), c in blocks.get("ee", {}).items()]
    words += [(2 * c, [sr._iota(i), sr._iota(j)]) for (i, j), c in blocks.get("ff", {}).items()]
    for (i, j), c in blocks.get("ef", {}).items():
        words += [(c / 2, [sr._o(i), sr._iota(j)]), (-c / 2, [sr._iota(j), sr._o(i)])]
    return words


def oracle_so_from_clifford(z):
    """so_from_clifford as first written, without its round-trip check: the
    blocks read off the degree-2 monomials of z by their e- and f-degrees,
    twice their coefficients; StructureError for any other nonzero degree."""
    blocks = {"ee": {}, "ff": {}, "ef": {}}
    for (em, fm), c in z.terms.items():
        ke, kf = em.bit_count(), fm.bit_count()
        if (ke, kf) == (2, 0):
            blocks["ee"][tuple(cc._mask_indices(em))] = 2 * c
        elif (ke, kf) == (0, 2):
            blocks["ff"][tuple(cc._mask_indices(fm))] = 2 * c
        elif (ke, kf) == (1, 1):
            blocks["ef"][cc._mask_indices(em)[0], cc._mask_indices(fm)[0]] = 2 * c
        elif (ke, kf) != (0, 0):
            raise StructureError(f"monomial {cc.monomial_str((em, fm))} has degree > 2")
    return blocks


@functools.lru_cache(maxsize=None)
def oracle_root_table(n, kind, i, j):
    """The root table built on Fractions, as first written: rho(X) applied
    to each {m: 1}, read as basis mask -> (image mask, 2c).  StructureError
    unless every image is one mask, every 2c is in {+-1, +-2, +-4} and no two
    masks share an image, the shape spin_rep._root_table writes in closed form."""
    words = sr._so_words(sr.root_so_element(n, kind, i, j))
    table = {}
    for m in range(1 << n):
        image = oracle_apply_words(words, {m: Fraction(1)})
        if len(image) > 1:
            raise StructureError(f"root {kind}({i},{j}) sends mask {m} to {len(image)} masks")
        if image:
            ((img, c),) = image.items()
            if (2 * c).denominator != 1 or abs(2 * c) not in (1, 2, 4):
                raise StructureError(f"root {kind}({i},{j}) scales mask {m} by {c}")
            table[m] = (img, int(2 * c))
    if len({img for img, _ in table.values()}) != len(table):
        raise StructureError(f"root {kind}({i},{j}) sends two masks to one")
    return table


def word_rows(g, targets):
    """The rows of g for the target masks on integers, sparse: rows[k][s] / den
    is the coefficient of targets[k] in g e_s, zeros left out and s
    increasing, with den the common denominator of all the rows (the gcd of
    den and every entry is 1).  The unit covectors move through the transposed
    steps, first letter first, in one dict, row k's keys tagged k << n, as
    orbit_pullback_family moves them into its dense rows."""
    n = g.n
    v, den = sr._word_steps(g, {k << n | t: 1 for k, t in enumerate(targets)}, True, (1 << n) - 1)
    common = functools.reduce(math.gcd, v.values(), den)
    cols = sr._columns(n, {key: c // common for key, c in v.items()})
    return [cols.get(k, {}) for k in range(len(targets))], den // common


def oracle_word_rows(g, targets):
    """word_rows as first written: each transposed step scans the whole
    Fraction-built table for the images the covector holds."""
    rows = [{t: 1} for t in targets]
    den = 1
    for kind, i, j, t in g.word:
        if not t:
            continue
        table = oracle_root_table(g.n, kind, i, j)
        p, s = t.numerator, 2 * t.denominator
        stepped = []
        for row in rows:
            out = {m: s * c for m, c in row.items()}
            for src, (img, c2) in table.items():
                if img in row:
                    out[src] = out.get(src, 0) + p * c2 * row[img]
            stepped.append({m: c for m, c in out.items() if c})
        rows = stepped
        den *= 2 * t.denominator
    common = functools.reduce(math.gcd, (c for row in rows for c in row.values()), den)
    return [{m: c // common for m, c in row.items()} for row in rows], den // common


def oracle_random_group_element(n, seed, length):
    """random_group_element as first written: the roots rebuilt and every
    parameter made on each call, the word validated by GroupElement."""
    roots = sr.all_root_vectors(n)
    rng = random.Random(f"spingroup:{n}:{seed}:{length}")
    word = []
    for _ in range(length):
        kind, i, j = rng.choice(roots)
        t = rng.choice((-2, -1, 1, 2))
        word.append((kind, i, j, Fraction(t)))
    return sr.GroupElement(n, word)


def oracle_pullback_rows(p, rows, den, source_n):
    """_pullback_rows as first written: the products keyed by the ordered
    picks, merged into sorted monomials in a second pass and validated by
    the Polynomial constructor."""
    coefs, den_p, content = linalg._integer_row(p.terms.items())
    out = {}
    for mono, c in coefs.items():
        picks = {(): c}
        for m in mono:
            row = rows.get(m, {}).items()
            picks = {key + (s,): v * a for key, v in picks.items() for s, a in row}
        for key, v in picks.items():
            cc._accumulate(out, key, v)
    merged = {}
    for key, v in out.items():
        cc._accumulate(merged, tuple(sorted(key)), v)
    return ie.Polynomial(
        False,
        source_n,
        {mono: Fraction(v * content, den_p * den ** len(mono)) for mono, v in merged.items()},
    )


def oracle_vanishing_forms(points, degree):
    """vanishing_forms as first written, on the Fraction evaluation matrix
    of the points themselves, with the kernel read off oracle_rref: one
    vector per free column, free coordinate 1."""
    n = points[0].n
    monos = ie.monomials_of_degree(ie.component_variables(n), degree)
    matrix = [[ie._monomial_value(mono, x.terms, Fraction(1)) for mono in monos] for x in points]
    reduced, pivots = oracle_rref(matrix)
    forms = []
    for free in range(len(monos)):
        if free in pivots:
            continue
        coeffs = [Fraction(0)] * len(monos)
        coeffs[free] = Fraction(1)
        for r, c in enumerate(pivots):
            coeffs[c] = -reduced[r][free]
        forms.append(ie.Polynomial(False, n, {monos[k]: c for k, c in enumerate(coeffs) if c}))
    return forms


def oracle_level_maps(family):
    """Each member's full Fraction map: the contraction to level 4 after the
    member's group word (by oracle_group_apply), on all 2^n basis columns."""
    n = family.n
    pi_map = oracle_operator(n, lambda x: tm.pi_tower(x, 4))
    words = [oracle_operator(n, lambda x, g=m.g: oracle_group_apply(g, x)) for m in family.members]
    return [pi_map.compose(w) for w in words]


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


def oracle_beta_direct(x, y):
    """transfer_maps.beta_direct as first written: (x f)* made in normal
    order, then one Clifford product with y f, read at f."""
    x._check_level(y)
    prod = cc.mul(cc.star(sr.to_left_ideal(x)), sr.to_left_ideal(y))
    return prod.coefficient((0, (1 << x.n) - 1))


def oracle_check_gram(n, seed, samples):
    """suites._check_gram as first written: the symmetry or skewness test and
    then the parity test on every entry of the Gram matrix, in row order."""
    g = tm.beta_gram(n)
    size = 1 << n
    if linalg.rank([list(r) for r in g]) != size:
        return "gram matrix is singular"
    sym = n % 4 in (0, 1)
    for a in range(size):
        for b in range(size):
            if sym and g[a][b] != g[b][a]:
                return f"not symmetric at ({a},{b})"
            if not sym and g[a][b] != -g[b][a]:
                return f"not skew at ({a},{b})"
    for a in range(size):
        for b in range(size):
            pa, pb = bin(a).count("1") % 2, bin(b).count("1") % 2
            cross_zero = (pa == pb) if n % 2 == 1 else (pa != pb)
            if cross_zero and g[a][b] != 0:
                return f"parity block structure violated at ({a},{b})"
    ev = [m for m in range(size) if bin(m).count("1") % 2 == 0]
    od = [m for m in range(size) if bin(m).count("1") % 2 == 1]
    if n % 2 == 0:
        blocks = [[[g[a][b] for b in ev] for a in ev], [[g[a][b] for b in od] for a in od]]
    else:
        blocks = [[[g[a][b] for b in od] for a in ev]]
    for blk in blocks:
        if linalg.rank(blk) != len(blk):
            return "a parity block pairing is degenerate"


def oracle_nu2(x):
    """nu2 as first written: star(a) and then x f act on the exterior unit
    (two act_on_exterior calls), a the wedge part of x; the degree-n
    component of the image."""
    n = x.n
    a = cc.CliffordElement(n, {(m, 0): c for m, c in x.terms.items()})
    seed = cc.act_on_exterior(cc.star(a), cc.ExteriorVector.unit(n))
    full = cc.act_on_exterior(sr.to_left_ideal(x), seed)
    return full.degree_component(n)


def _oracle_accumulate(acc, key, value):
    old = acc.get(key)
    if old is None:
        acc[key] = value
    else:
        value += old
        if value:
            acc[key] = value
        else:
            del acc[key]


def oracle_apply_words(words, terms):
    """The letter kernel as first written, on the coefficients as given:
    every move multiplies and adds them directly (Fractions stay Fractions,
    ints stay ints), no common denominator."""
    out = {}
    for coef, letters in words:
        cur = terms
        for letter in reversed(letters):
            nxt = {}
            for m, c in cur.items():
                for b, need, factor in letter:
                    if m & b != need:
                        continue
                    v = c if factor == 1 else factor * c
                    _oracle_accumulate(nxt, m ^ b, -v if (m & (b - 1)).bit_count() & 1 else v)
            cur = nxt
            if not cur:
                break
        for m, c in cur.items():
            _oracle_accumulate(out, m, c if coef == 1 else coef * c)
    return out


def oracle_quarter_embedding(n, seed, samples):
    """suites._check_quarter_embedding as first written, on Fractions and
    the element types: x = (uv - vu)/4 by normal_form, [x, w] by mul, and
    (v|w) u - (u|w) v by VectorInV arithmetic and pairing."""
    syms = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    elements = {s: cc.CliffordElement.from_symbol(n, s) for s in syms}
    vectors = {s: cc.VectorInV.basis(n, s) for s in syms}
    for u in syms:
        uv = vectors[u]
        for v in syms:
            if u == v:
                continue
            vv = vectors[v]
            x = cc.normal_form([u, v], n) - cc.normal_form([v, u], n)
            x = x.scale(Fraction(1, 4))
            for w in syms:
                wc = elements[w]
                lhs = cc.mul(x, wc) - cc.mul(wc, x)
                wv = vectors[w]
                rhs = (
                    uv.scale(cc.pairing(vv, wv)) - vv.scale(cc.pairing(uv, wv))
                ).as_clifford()
                if lhs != rhs:
                    return f"bracket failed at ({u},{v},{w})"


def oracle_half_pair(n, s, t):
    """B_n(S, T) as first written: the exterior letters of the word e_S f
    (f_1..f_n in full) applied by oracle_apply_words to (-1)^(k(k-1)/2) e_T,
    k = |T|, and the degree-n part kept."""
    k = t.bit_count()
    word = [cc._exterior_letter(sym, n) for sym in cc.monomial_word((s, (1 << n) - 1))]
    image = oracle_apply_words([(1, word)], {t: -1 if k * (k - 1) // 2 & 1 else 1})
    return {m: c for m, c in image.items() if m.bit_count() == n}


def oracle_half_pair_walk(n, s, t):
    """B_n(S, T) as the per-index walk written before the closed-form sign:
    for each half D1 of S ^ T, the letters f_n .. f_1 and then e_i for i in
    S, descending, each contract their partner or wedge their symbol, with
    the kernel's sign rule applied move by move."""
    k = t.bit_count()
    both = s & t
    d = s ^ t
    scale = (-1 if k * (k - 1) // 2 & 1 else 1) << both.bit_count()
    half, odd = divmod(d.bit_count(), 2)
    out = {}
    if odd:
        return out
    f_moves = range(n - 1, -1, -1)
    e_moves = [j for j in f_moves if s >> j & 1]
    for d1 in itertools.combinations([1 << j for j in range(n) if d >> j & 1], half):
        d1 = sum(d1)
        contract_e = t & ~d1
        contract_f = s & ~(t | d1)
        m, sign = t, scale
        for j in f_moves:
            b = 1 << j if contract_e >> j & 1 else 1 << (n + j)
            if (m & (b - 1)).bit_count() & 1:
                sign = -sign
            m ^= b
        for j in e_moves:
            b = 1 << (n + j) if contract_f >> j & 1 else 1 << j
            if (m & (b - 1)).bit_count() & 1:
                sign = -sign
            m ^= b
        out[m] = sign
    return out


def oracle_contract_top(omega):
    """contract_ce at the coordinate pair as first written: the kernel's
    contraction by e_n (inner_vector), the masks holding e_n killed, one
    holding f_n rejected, and the rest remasked to level n-1."""
    n = omega.n
    contracted = omega.inner_vector(cc.VectorInV.basis(n, n))
    out = {}
    for mask, c in contracted.terms.items():
        if mask >> (n - 1) & 1:
            continue
        if mask >> (2 * n - 1) & 1:
            raise StructureError("contraction image leaked the partner symbol")
        e_part, f_part = mask & ((1 << n) - 1), mask >> n
        out[e_part | f_part << (n - 1)] = c
    return cc.ExteriorVector(n - 1, out)


def oracle_contract_ce(omega, e, h=None):
    """contract_ce away from the coordinate pair as first written: the
    kernel's contraction by e (inner_vector), moved to the hyperbolic basis
    through (e, h) by change_basis, the inverse of its rows, then reduced by
    _quotient_top."""
    n = omega.n
    moved = omega.inner_vector(e).change_basis(gc.hyperbolic_basis_through(e, h).rows())
    return cc.ExteriorVector(n - 1, ca._quotient_top(moved.terms, n))


def oracle_mult_top(omega):
    """mult_mh by f_n as first written: the masks of level n-1 remasked to
    level n, then f_n wedged on the left by the kernel (_wedge_front)."""
    n = omega.n + 1
    low = (1 << omega.n) - 1
    lifted = cc.ExteriorVector(
        n, {m & low | (m >> (n - 1)) << n: c for m, c in omega.terms.items()}
    )
    return cc._wedge_front(lifted, cc.VectorInV.basis(n, -n).coords())


def _oracle_parity(x):
    parity = x.parity()
    if parity == "mixed":
        raise SpinalgError("diagram residuals need parity-pure input")
    return parity


def oracle_diagram_pi_residual(x):
    """diagram_pi_residual as first written, on Fractions: nu2 of pi(x) and
    of x as ExteriorVectors, the contraction by oracle_contract_top, and
    the difference of the two sides; the sign read from cartan at call
    time."""
    parity = _oracle_parity(x)
    sign = ca._parity_sign(x.n, parity)
    return ca.nu2(tm.pi_last(x)) - oracle_contract_top(ca.nu2(x)).scale(sign)


def oracle_diagram_tau_residual(x):
    """diagram_tau_residual as first written, on Fractions: nu2 of tau(x)
    less the sign times f_n ^ nu2(x), the product by oracle_mult_top."""
    parity = _oracle_parity(x)
    sign = ca._parity_sign(x.n + 1, parity)
    return ca.nu2(tm.tau_last(x)) - oracle_mult_top(ca.nu2(x)).scale(sign)


def oracle_letter(coords, contract=False):
    """The letter that wedges (or contracts) each coordinate's bit, with the
    coordinates as given for factors, Fractions included: src scales such
    letters to ints where it builds them."""
    return tuple((1 << b, (1 << b) * contract, c) for b, c in enumerate(coords) if c)


def oracle_wedge(vectors):
    """v_1 ^ ... ^ v_k as terms: one oracle_letter per vector, applied by
    oracle_apply_words to the empty wedge."""
    letters = [oracle_letter(v.coords()) for v in vectors]
    return oracle_apply_words([(1, letters)], {0: Fraction(1)})


def oracle_induced_map(omega, images, front=()):
    """The induced map on the exterior algebra as first written: for each
    monomial, the wedge of the front vectors and the images of its set bits
    (oracle_wedge), scaled and added to the whole sum, one term at a time."""
    n = images[0].n
    out = {}
    for mask, c in omega.terms.items():
        vectors = [images[b] for b in range(2 * omega.n) if mask >> b & 1]
        for m, v in oracle_wedge(list(front) + vectors).items():
            _oracle_accumulate(out, m, c * v)
    return cc.ExteriorVector(n, out)


def oracle_gamma_windowed(finite_terms, limit_terms, window):
    """gamma_windowed as first written: the sign of e_S ^ e_(complement) is
    read off a walk of oracle_apply_words that wedges the window bits of S,
    one letter each, into e_(complement)."""
    full = (1 << window) - 1
    total = Fraction(0)
    for s_mask, a in finite_terms.items():
        b = limit_terms.get(s_mask)
        if not b:
            continue
        letters = [((1 << p, 0, 1),) for p in range(window) if s_mask >> p & 1]
        total += oracle_apply_words([(1, letters)], {full & ~s_mask: 1})[full] * a * b
    return total


def oracle_verify_intertwining(n0, u, m_second, masks_n0):
    """cartan._verify_intertwining as first written, on Fractions: for each
    so(2 n0) basis element x, the dense conjugation M x M^-1 read back by
    SoElement.from_matrix, and u rho(x) == rho(M x M^-1) u compared on the
    even blocks, built column by column by rho_so."""
    m_inv = linalg.inverse(m_second)
    idx = {m: i for i, m in enumerate(masks_n0)}

    def even_block(x):
        cols = []
        for mask in masks_n0:
            v = sr.rho_so(x, sr.SpinVector.basis(n0, mask))
            col = [Fraction(0)] * len(masks_n0)
            for m, c in v.terms.items():
                col[idx[m]] = c
            cols.append(col)
        return linalg.transpose(cols)

    basis = []
    for i in range(1, n0 + 1):
        for j in range(i + 1, n0 + 1):
            basis.append(sr.SoElement.basis_ee(n0, i, j))
            basis.append(sr.SoElement.basis_ff(n0, i, j))
    for i in range(1, n0 + 1):
        for j in range(1, n0 + 1):
            basis.append(sr.SoElement.basis_ef(n0, i, j))
    for x in basis:
        ad = linalg.matmul(linalg.matmul(m_second, x.matrix()), m_inv)
        y = sr.SoElement.from_matrix(n0, ad)
        if linalg.matmul(u, even_block(x)) != linalg.matmul(even_block(y), u):
            raise StructureError("bottom factor fails the conjugation audit")


def oracle_second_factor_matrix(q, n, n0, mg, g_prime, etilde_n, constraints):
    """cartan._second_factor_matrix as first written: one linalg.solve per
    column, the right-hand side g'^-1 applied to the basis vector."""
    d_rows = linalg.nullspace(constraints) if constraints else linalg.identity(2 * q)
    mgp_inv = g_prime.inverse().so_matrix()
    cols = []
    for bit in range(2 * n0):
        w_n = [Fraction(0)] * (2 * n)
        w_n[bit if bit < n0 else n + (bit - n0)] = Fraction(1)
        x = linalg.matvec(mgp_inv, w_n)
        rows = []
        for k in range(2 * n):
            qk = k if k < n else q + (k - n)
            rows.append([r[qk] for r in d_rows] + [-r[k] for r in etilde_n])
        sol = linalg.solve(rows, x)
        if sol is None:
            raise StructureError("quotient transport has no solution")
        d = [sum((sol[a] * r[k] for a, r in enumerate(d_rows)), Fraction(0)) for k in range(2 * q)]
        y = linalg.matvec(mg, d)
        if any(y[q + i] != 0 for i in range(n0, q)):
            raise StructureError("transported vector left the top-block perp")
        cols.append([y[i] for i in range(n0)] + [y[q + i] for i in range(n0)])
    return linalg.transpose(cols)


def oracle_exterior_audit(q, n, n0, mg, g_prime, m_second, seed=0):
    """cartan._exterior_audit as first written: the same seeded samples,
    raised to level q by mult_mh with f_(n+1) .. f_q and lowered to level
    n0 by contract_ce at (e_q, f_q) .. (e_(n0+1), f_(n0+1)), one public call
    per level, on ExteriorVectors."""

    def lower(omega):
        while omega.n > n0:
            k = omega.n
            omega = ca.contract_ce(omega, cc.VectorInV.basis(k, k), cc.VectorInV.basis(k, -k))
        return omega

    rng = random.Random(f"extaudit:{q}:{n}:{n0}:{seed}")
    samples = [cc.ExteriorVector(n, {(1 << n) - 1: Fraction(1)})]
    for _ in range(3):
        vecs = [
            cc.VectorInV.from_coords(n, [Fraction(rng.randint(-2, 2)) for _ in range(2 * n)])
            for _ in range(n)
        ]
        samples.append(cc.wedge_of_vectors(n, vecs))
    ratio = None
    for omega in samples:
        lifted = omega
        while lifted.n < q:
            lifted = ca.mult_mh(lifted, cc.VectorInV.basis(lifted.n + 1, -(lifted.n + 1)))
        lhs = lower(cc.induced_map(lifted, linalg.transpose(mg)))
        mid = lower(cc.induced_map(omega, linalg.transpose(g_prime.so_matrix())))
        rhs = cc.induced_map(mid, linalg.transpose(m_second))
        if lhs.is_zero() and rhs.is_zero():
            continue
        if lhs.is_zero() or rhs.is_zero():
            raise StructureError("exterior audit: one side vanished")
        if not cc._proportional(lhs.terms, rhs.terms):
            raise StructureError("exterior audit: sides are not proportional")
        k = next(iter(lhs.terms))
        r = lhs.terms[k] / rhs.terms[k]
        if ratio is None:
            ratio = r
        elif ratio != r:
            raise StructureError("exterior audit: ratio is not constant")
    if ratio is None:
        raise StructureError("exterior audit: all samples vanished")
    return ratio


def _oracle_functional(w):
    return list(w.f) + list(w.e)


def _oracle_complete_e_rows(n, fprime, known):
    """The missing e'_i of a hyperbolic basis, one linalg.solve each: the
    canonical solution of the pairing constraints, then an f'_i multiple
    fixes isotropy."""
    built = dict(known)
    for i in range(1, n + 1):
        if i in built:
            continue
        rows = [_oracle_functional(f) for f in fprime]
        rhs = [Fraction(int(i == j)) for j in range(1, n + 1)]
        for ev in built.values():
            rows.append(_oracle_functional(ev))
            rhs.append(Fraction(0))
        sol = linalg.solve(rows, rhs)
        if sol is None:
            raise StructureError("hyperbolic completion has no solution")
        v = cc.VectorInV.from_coords(n, sol)
        built[i] = v - fprime[i - 1].scale(cc.quadratic_value(v) / 2)
    return [built[i] for i in range(1, n + 1)]


def oracle_adapted_basis(h):
    """grassmann_cone.adapted_basis as first written, on Fractions: H∩F by
    linalg.intersect_row_spaces, f'-rows and the complement of H∩F in H
    chosen greedily by linalg.rank, the pairing fixed by linalg.inverse,
    then verify() and both adaptation invariants."""
    n = h.n
    if h.dim != n:
        raise SpinalgError(f"subspace is not maximal: dim {h.dim} != {n}")
    f_rows = [cc.VectorInV.basis(n, -j).coords() for j in range(1, n + 1)]
    hf = linalg.intersect_row_spaces([list(r) for r in h.rows], f_rows)
    k = len(hf)
    fprime_coords = [list(r) for r in hf]
    for j in range(1, n + 1):
        if len(fprime_coords) == n:
            break
        cand = cc.VectorInV.basis(n, -j).coords()
        if linalg.rank(fprime_coords + [cand]) > len(fprime_coords):
            fprime_coords.append(cand)
    d = linalg.det([row[n:] for row in fprime_coords])
    if d == 0:
        raise StructureError("f'-rows do not span F")
    fprime_coords[-1] = [x / d for x in fprime_coords[-1]]
    fprime = [cc.VectorInV.from_coords(n, r) for r in fprime_coords]
    w_rows = []
    for r in h.rows:
        if linalg.rank([list(x) for x in hf] + w_rows + [list(r)]) > k + len(w_rows):
            w_rows.append(list(r))
    if len(w_rows) != n - k:
        raise StructureError("failed to split H over H∩F")
    w_vecs = [cc.VectorInV.from_coords(n, r) for r in w_rows]
    e_top = []
    if n > k:
        pinv = linalg.inverse([[cc.pairing(w, fprime[k + b]) for b in range(n - k)] for w in w_vecs])
        for a in range(n - k):
            coords = [
                sum((pinv[a][b] * w_vecs[b].coords()[c] for b in range(n - k)), Fraction(0))
                for c in range(2 * n)
            ]
            e_top.append(cc.VectorInV.from_coords(n, coords))
    new_e = _oracle_complete_e_rows(n, fprime, {k + 1 + a: e_top[a] for a in range(n - k)})
    basis = gc.AdaptedBasis(n=n, new_e=tuple(new_e), new_f=tuple(fprime), k=k)
    basis.verify()
    if linalg.row_space([v.coords() for v in fprime[:k]]) != [list(r) for r in hf]:
        raise StructureError("f'_1..f'_k do not span H∩F")
    span_h = [v.coords() for v in new_e[k:]] + [v.coords() for v in fprime[:k]]
    if linalg.row_space(span_h) != [list(r) for r in h.rows]:
        raise StructureError("adapted rows do not span H")
    return basis


def multiply_vectors(n, vectors):
    """The Clifford product of the vectors, left to right."""
    out = cc.CliffordElement.unit(n)
    for v in vectors:
        out = cc.mul(out, v.as_clifford())
        if out.is_zero():
            break
    return out


def oracle_omega_of(h, basis=None):
    """grassmann_cone.omega_of as first written: the Clifford product
    e'_{k+1}..e'_n f'_1..f'_n of the oracle's adapted basis (or of `basis`,
    when given), read in the wedge model."""
    basis = basis or oracle_adapted_basis(h)
    prod = multiply_vectors(h.n, list(basis.new_e[basis.k :]) + list(basis.new_f))
    omega = sr.from_left_ideal(prod)
    if omega.is_zero():
        raise StructureError("omega_H vanished; adapted basis is broken")
    return omega


def oracle_pluecker(h, basis=None):
    """grassmann_cone.pluecker as first written: the wedge of the adapted
    rows e'_{k+1}..e'_n, f'_1..f'_k of the oracle's basis (or of `basis`)."""
    basis = basis or oracle_adapted_basis(h)
    return cc.wedge_of_vectors(h.n, list(basis.new_e[basis.k :]) + list(basis.new_f[: basis.k]))


def oracle_hyperbolic_basis_through(e, h=None):
    """grassmann_cone.hyperbolic_basis_through as first written: f'_n as
    there, f'_1..f'_(n-1) picked greedily by linalg.rank from the
    f_j - (e|f_j) f'_n, lowest index first, and the E-side read off
    linalg.inverse of the f'-block, then corrected against e."""
    n = e.n
    cc.require_isotropic(e, "contraction vector")
    if all(c == 0 for c in e.e):
        raise IndexRangeError("vector lies in F; contraction is not defined there")
    if h is None:
        j0 = next(i for i, c in enumerate(e.e) if c != 0)
        f_last = cc.VectorInV.basis(n, -(j0 + 1)).scale(1 / e.e[j0])
    else:
        if any(c != 0 for c in h.e):
            raise IndexRangeError("hyperbolic partner must lie in F")
        if cc.pairing(e, h) != 1:
            raise NotIsotropicError("(e|h) must equal 1")
        f_last = h
    rest, rest_coords = [], []
    for j in range(1, n + 1):
        if len(rest) == n - 1:
            break
        cand = cc.VectorInV.basis(n, -j) - f_last.scale(cc.pairing(e, cc.VectorInV.basis(n, -j)))
        if linalg.rank(rest_coords + [cand.coords()]) > len(rest):
            rest.append(cand)
            rest_coords.append(cand.coords())
    fprime = rest + [f_last]
    ginv = linalg.inverse([list(v.f) for v in fprime])
    new_e = []
    for i in range(n - 1):
        etil = cc.VectorInV(n, [ginv[j][i] for j in range(n)], [0] * n)
        new_e.append(etil - f_last.scale(cc.pairing(etil, e)))
    new_e.append(e)
    basis = gc.HyperbolicBasis(n=n, new_e=tuple(new_e), new_f=tuple(fprime))
    basis.verify()
    return basis


def oracle_primed_solver(n, e_coords):
    """transfer_maps._primed_contraction_solver as first written, on the
    oracle's hyperbolic basis: the elements e'_I f'_1..f'_(n-1), the pivot
    rows of the rref of their coefficient matrix's transpose, the inverse of
    that square, and a solve by linalg.matvec audited by reconstructing y on
    every monomial.  Returns (basis, solve, elements)."""
    basis = oracle_hyperbolic_basis_through(cc.VectorInV.from_coords(n, list(e_coords)))
    f_block = multiply_vectors(n, basis.new_f[: n - 1])
    elements = []
    for mask in range(1 << n):
        prod = cc.CliffordElement.unit(n)
        for v in (basis.new_e[i] for i in range(n) if mask >> i & 1):
            prod = cc.mul(prod, v.as_clifford())
        elements.append(cc.mul(prod, f_block))
    monos = sorted(set().union(*[set(el.terms) for el in elements]))
    a = [[el.coefficient(m) for el in elements] for m in monos]
    _, pivots = linalg.rref(linalg.transpose(a))
    if len(pivots) != 1 << n:
        raise StructureError("primed ideal basis is not independent")
    square_inv = linalg.inverse([a[r] for r in pivots])
    pivot_monos = [monos[r] for r in pivots]

    def solve(y):
        z = linalg.matvec(square_inv, [y.coefficient(m) for m in pivot_monos])
        recon = {}
        for c, el in zip(z, elements):
            for m, v in el.terms.items():
                recon[m] = recon.get(m, Fraction(0)) + c * v
        if {m: v for m, v in recon.items() if v} != y.terms:
            raise StructureError("contraction image left the primed ideal")
        return z

    return basis, solve, elements


def oracle_pi_general(x, e):
    """transfer_maps.pi_general as first written, on oracle_primed_solver:
    ex + (-1)^(n-1) xe halved on the even part, sign (-1)^n on the odd part,
    solved in the primed basis, the masks without n kept."""
    n = x.n
    _, solve, _ = oracle_primed_solver(n, tuple(e.coords()))
    ev, od = x.parity_split()
    ec = e.as_clifford()
    y = cc.CliffordElement.zero(n)
    for part, sg in ((ev, Fraction((-1) ** (n - 1), 2)), (od, Fraction((-1) ** n, 2))):
        if not part.is_zero():
            xc = sr.to_left_ideal(part)
            y = y + cc.mul(ec, xc).scale(sg) + cc.mul(xc, ec).scale(Fraction(1, 2))
    if y.is_zero():
        return sr.SpinVector.zero(n - 1)
    z = solve(y)
    top = 1 << (n - 1)
    return sr.SpinVector(n - 1, {m: z[m] for m in range(1 << n) if z[m] and not m & top})


def quotient_model_basis(e):
    """The deterministic hyperbolic basis that pi_general's primed solver
    keeps for e."""
    basis, _ = tm._primed_contraction_solver(e.n, tuple(e.coords()))
    return basis


def oracle_vector_in_quotient(v, e):
    """transfer_maps.vector_in_quotient as first written: v's coordinates in
    the quotient model basis by one 2n x 2n linalg.solve on the transposed
    basis rows."""
    n = v.n
    rows = linalg.transpose([w.coords() for w in quotient_model_basis(e).rows()])
    sol = linalg.solve(rows, v.coords())
    if sol is None:
        raise StructureError("basis does not span")
    if sol[2 * n - 1] != 0:
        raise IndexRangeError("vector is not orthogonal to e")
    return cc.VectorInV.from_coords(n - 1, [sol[i] for i in range(n - 1)] + [sol[n + i] for i in range(n - 1)])


def oracle_so_matrix_replay(g):
    """GroupElement.so_matrix as first written: each basis column of V moved
    by the word's steps on Fractions, last step first, in place."""
    n, size = g.n, 2 * g.n
    cols = []
    for c in range(size):
        a = [Fraction(int(r == c)) for r in range(size)]
        for kind, i, j, t in reversed(g.word):
            if kind == "ee":
                a[i - 1] += t * a[n + j - 1]
                a[j - 1] -= t * a[n + i - 1]
            elif kind == "ff":
                a[n + i - 1] += t * a[j - 1]
                a[n + j - 1] -= t * a[i - 1]
            else:
                a[i - 1] += t * a[j - 1]
                a[n + j - 1] -= t * a[n + i - 1]
        cols.append(a)
    return [list(row) for row in zip(*cols)]


def random_exterior(n, rng, nterms=4, den=1):
    """A few seeded monomials over the 2n symbol bits, coefficients in
    [-2, 2] over den."""
    return cc.ExteriorVector(
        n,
        {rng.randrange(1 << (2 * n)): Fraction(rng.randint(-2, 2), den) for _ in range(nterms)},
    )


def random_isotropic(n, rng):
    """A seeded isotropic vector with e_1-coordinate 1 (so that
    hyperbolic_basis_through accepts it) and fractional f-coordinates."""
    e = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(n - 1)]
    f = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    f[0] = -sum((a * b for a, b in zip(e[1:], f[1:])), Fraction(0))
    return cc.VectorInV(n, e, f)


def random_permuted_isotropic(n, rng):
    """random_isotropic with its coordinates permuted, so the first index of
    its E-part varies."""
    perm = rng.sample(range(n), n)
    base = random_isotropic(n, rng)
    return cc.VectorInV(n, [base.e[p] for p in perm], [base.f[p] for p in perm])


def random_partner(e, rng):
    """A seeded h in F with (e|h) = 1, of random support."""
    while True:
        h = cc.VectorInV(e.n, [0] * e.n, [Fraction(rng.randint(-2, 2)) for _ in range(e.n)])
        if cc.pairing(e, h):
            return h.scale(1 / cc.pairing(e, h))


@pytest.fixture
def rng(request):
    return make_rng(request.node.name)


def oracle_sparse_sum(a, b, sign=1):
    """a + sign * b on key -> Fraction maps, a zero sum dropped: the element
    arithmetic as first written, on Fraction terms."""
    out = dict(a)
    for key, c in b.items():
        v = out.get(key, Fraction(0)) + sign * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def oracle_sparse_scale(a, c):
    """c * a on a key -> Fraction map, the empty map for c = 0."""
    c = Fraction(c)
    return {key: c * v for key, v in a.items()} if c else {}


def element_of_terms(kind, n, terms):
    """The element of the given kind ("clifford", "spin", "exterior", "so" or
    "polynomial") with these Fraction terms, through its public constructor;
    a two-form's mask keys go to its blocks, a polynomial is at level n."""
    if kind == "clifford":
        return cc.CliffordElement(n, terms)
    if kind == "spin":
        return sr.SpinVector(n, terms)
    if kind == "exterior":
        return cc.ExteriorVector(n, terms)
    if kind == "polynomial":
        return ie.Polynomial(False, n, terms)
    blocks = {"ee": {}, "ff": {}, "ef": {}}
    for key, c in terms.items():
        p, p2 = (key & -key).bit_length() - 1, key.bit_length() - 1
        if p2 < n:
            blocks["ee"][(p + 1, p2 + 1)] = c
        elif p >= n:
            blocks["ff"][(p - n + 1, p2 - n + 1)] = c
        else:
            blocks["ef"][(p + 1, p2 - n + 1)] = c
    return sr.SoElement(n, **blocks)
