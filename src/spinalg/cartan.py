"""The quadratic map from the spin space to the middle exterior power,
exterior contraction/multiplication, the essentially-commuting diagrams
relating the two, sampled injectivity, and the level-lowering factorization
of contracted group actions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import lcm

from . import clifford_core as cc
from . import grassmann_cone as gc
from . import linalg
from . import spin_rep as sr
from . import transfer_maps as tm
from .errors import (
    GenericityError,
    IndexRangeError,
    LevelMismatchError,
    NotIsotropicError,
    SpinalgError,
    StructureError,
)


def _parity_sign(n: int, parity: str) -> int:
    """Rescaling sign of the contraction diagram: (-1)^(n-1) on the even
    part, (-1)^n on the odd part.  Kept as a seam so a corrupted build can
    be simulated in tests."""
    return (-1) ** (n - 1) if parity == "even" else (-1) ** n


def _half_pair(n: int, s: int, t: int) -> dict[int, int]:
    """B_n(S, T): the degree-n part of e_S f acting, in the module of the
    whole exterior algebra, on star(e_T) 1 = (-1)^(k(k-1)/2) e_T, k = |T|,
    in closed form.

    The word e_S f acts letter by letter, f_n first, then f_(n-1), ...,
    f_1, then e_i for i in S in descending order; each letter wedges its
    symbol or contracts its partner.  The letters f_j and e_j touch only
    the pair (e_j, f_j), so each index j is settled on its own:

      j not in S u T   f_j wedges f_j: f_j;
      j in S n T       e_j, by two paths (f_j contracts e_j and e_j wedges
                       it back, or f_j wedges f_j and e_j contracts it)
                       of equal sign: a factor 2;
      j in D = S ^ T   e_j f_j or 1.

    Every index outside D gives degree 1, so degree n takes e_j f_j at
    exactly half of D, and

      B_n(S, T) = sum over D1 in D, |D1| = |D|/2, of
                  +-2^|S n T| e_((S n T) u D1) f_(([n] \\ (S u T)) u D1),

    zero when |D| is odd.  The sign is that of one path, walked with the
    kernel's rule: a move on bit b in mask m gives (-1)^(set bits of m
    below b)."""
    k = t.bit_count()
    both = s & t
    d = s ^ t
    scale = (-1 if k * (k - 1) // 2 & 1 else 1) << both.bit_count()
    half, odd = divmod(d.bit_count(), 2)
    out: dict[int, int] = {}
    if odd:
        return out
    f_moves = range(n - 1, -1, -1)
    e_moves = [j for j in f_moves if s >> j & 1]
    for d1 in combinations([1 << j for j in range(n) if d >> j & 1], half):
        d1 = sum(d1)
        # f_j contracts e_j on T outside D1 (S n T takes this path), else
        # wedges f_j; e_j contracts f_j on S \ T outside D1, else wedges e_j
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


@lru_cache(maxsize=None)
def _nu2_pair(n: int, s: int, t: int) -> tuple:
    """P_n(S, T) for S <= T as (mask, int) pairs: B_n(S, T) + B_n(T, S) off
    the diagonal, B_n(S, S) on it.  Filled on first use, one pair at a time."""
    pair = _half_pair(n, s, t)
    if s != t:
        for m, c in _half_pair(n, t, s).items():
            cc._accumulate(pair, m, c)
    return tuple(pair.items())


def nu2(x: sr.SpinVector) -> cc.ExteriorVector:
    """Quadratic map to the middle exterior power: the degree-n component of
    (x a*) acting on 1, with a the wedge part of x, read off a bilinear table:

        nu2(x) = sum_(S <= T) x_S x_T P_n(S, T)   (see _nu2_pair).

    Its image of the pure spinors is cut out by Cartan's quadrics (Chevalley,
    The Algebraic Theory of Spinors, 1954, Ch. III).  B_n(S, T) is zero when
    |S ^ T| is odd (the degree-n part of an element of parity |S| + |T| + n),
    so those pairs are skipped.  The sum runs on integers over the common
    denominator of x.  Homogeneous of degree 2: nu2(t x) = t^2 nu2(x)."""
    n = x.n
    items = sorted(x.terms.items())
    den = reduce(lcm, (c.denominator for _, c in items), 1)
    ints = [(m, c.numerator * (den // c.denominator)) for m, c in items]
    acc: dict[int, int] = {}
    for i, (s, a) in enumerate(ints):
        for t, b in ints[i:]:
            if (s ^ t).bit_count() & 1:
                continue
            ab = a * b
            for m, c in _nu2_pair(n, s, t):
                acc[m] = acc.get(m, 0) + ab * c
    den *= den
    return cc.ExteriorVector(n, {m: Fraction(c, den) for m, c in acc.items() if c})


def _remask_exterior(omega: cc.ExteriorVector, target: int) -> cc.ExteriorVector:
    """The same e and f symbols at level target: the mask e | f << m of level
    m becomes e | f << target.  StructureError when a symbol above target is
    present."""
    m = omega.n
    out: dict[int, Fraction] = {}
    for mask, c in omega.terms.items():
        e_part = mask & ((1 << m) - 1)
        f_part = mask >> m
        if e_part >> target or f_part >> target:
            raise StructureError(f"symbols above level {target} present")
        out[e_part | (f_part << target)] = c
    return cc.ExteriorVector(target, out)


def contract_ce(
    omega: cc.ExteriorVector,
    e: cc.VectorInV,
    h: cc.VectorInV | None = None,
) -> cc.ExteriorVector:
    """Contraction with isotropic e followed by reduction modulo e.

    With a hyperbolic partner h (in the fixed F) the result is expressed in
    the deterministic model basis of the orthogonal complement of (e, h);
    for the coordinate pair e = e_n, h = f_n this is the identity relabeling.
    """
    n = omega.n
    cc.require_isotropic(e)
    contracted = omega.inner_vector(e)
    if e != cc.VectorInV.basis(n, n) or (h is not None and h != cc.VectorInV.basis(n, -n)):
        contracted = contracted.change_basis(gc.hyperbolic_basis_through(e, h).rows())
    top_e = 1 << (n - 1)
    top_f = 1 << (2 * n - 1)
    out: dict[int, Fraction] = {}
    for mask, c in contracted.terms.items():
        if mask & top_e:
            continue  # killed modulo e
        if mask & top_f:
            raise StructureError("contraction image leaked the partner symbol")
        out[mask] = c
    return _remask_exterior(cc.ExteriorVector(n, out), n - 1)


def mult_mh(
    omega: cc.ExteriorVector,
    h: cc.VectorInV,
    e: cc.VectorInV | None = None,
) -> cc.ExteriorVector:
    """Outer multiplication by the hyperbolic partner h.

    The source lives at level n-1 (the model of the quotient by (e, h)); for
    the coordinate pair the inclusion is index-preserving.  A non-coordinate
    h needs its e supplied so the model basis is determined.
    """
    n = omega.n + 1
    cc.require_isotropic(h, "multiplication vector")
    if h.n != n:
        raise LevelMismatchError("partner must live at the target level")
    lifted = _remask_exterior(omega, n)
    if e is not None:
        if cc.pairing(e, h) != 1:
            raise NotIsotropicError("(e|h) must equal 1")
        rows = gc.hyperbolic_basis_through(e, h).rows()
        lifted = cc.induced_map(lifted, [row.coords() for row in rows])
    elif h != cc.VectorInV.basis(n, -n):
        raise SpinalgError("non-coordinate partner needs its isotropic e")
    return cc._wedge_front(lifted, h.coords())


def diagram_pi_residual(x: sr.SpinVector) -> cc.ExteriorVector:
    """nu2(pi(x)) - sign * c_e(nu2(x)) at the top coordinate pair; zero for
    parity-pure x, with sign (-1)^(n-1) even and (-1)^n odd."""
    parity = x.parity()
    if parity == "mixed":
        raise SpinalgError("diagram residuals need parity-pure input")
    n = x.n
    sign = _parity_sign(n, parity)
    lhs = nu2(tm.pi_last(x))
    rhs = contract_ce(nu2(x), cc.VectorInV.basis(n, n), cc.VectorInV.basis(n, -n))
    return lhs - rhs.scale(sign)


def diagram_tau_residual(x: sr.SpinVector) -> cc.ExteriorVector:
    """nu2(tau(x)) - sign * f_n ^ nu2(x); zero for parity-pure x.

    The sign is (-1)^(n-1) on the even part and (-1)^n on the odd part with
    n the target level, the same convention as the contraction diagram; the
    odd part differs from the even one by exactly the stated minus sign.
    """
    parity = x.parity()
    if parity == "mixed":
        raise SpinalgError("diagram residuals need parity-pure input")
    n = x.n + 1
    sign = _parity_sign(n, parity)
    lhs = nu2(tm.tau_last(x))
    rhs = mult_mh(nu2(x), cc.VectorInV.basis(n, -n))
    return lhs - rhs.scale(sign)


def wedge_annihilator(omega: cc.ExteriorVector) -> list[list[Fraction]]:
    """Canonical basis of {v in V : v wedge omega = 0}."""
    if omega.is_zero():
        raise SpinalgError("annihilator of zero is everything")
    n = omega.n
    cols = []
    for bit in range(2 * n):
        sym = bit + 1 if bit < n else -(bit - n + 1)
        cols.append(omega.outer_symbol(sym))
    masks = sorted(set().union(*[set(c.terms) for c in cols]) or {0})
    m = [[col.terms.get(mask, Fraction(0)) for col in cols] for mask in masks]
    return linalg.nullspace(m)


def is_decomposable(omega: cc.ExteriorVector) -> bool:
    """True when a homogeneous degree-d element is a pure wedge."""
    degs = omega.degrees()
    if len(degs) != 1:
        return False
    (d,) = degs
    return len(wedge_annihilator(omega)) == d


@dataclass(frozen=True)
class InjectivityVerdict:
    ok: bool
    reason: str


def injectivity_witness(x: sr.SpinVector, y: sr.SpinVector) -> InjectivityVerdict:
    """Checks the morphism property (nonzero image) and projective
    injectivity (proportional images force proportional inputs)."""
    x._check_level(y)
    if x.is_zero() or y.is_zero():
        raise SpinalgError("injectivity check needs nonzero vectors")
    ix = nu2(x)
    iy = nu2(y)
    if ix.is_zero() or iy.is_zero():
        return InjectivityVerdict(False, "image vanished on a nonzero vector")
    if cc._proportional(ix.terms, iy.terms) and not cc._proportional(x.terms, y.terms):
        return InjectivityVerdict(
            False, "non-proportional vectors with proportional images"
        )
    return InjectivityVerdict(True, "")


# -- exterior-side helpers for the factorization audit ------------------------


def contract_top_e_block(omega: cc.ExteriorVector, target: int) -> cc.ExteriorVector:
    """c_{e_{target+1}} o ... o c_{e_n} in coordinates, landing at level target."""
    cur = omega
    while cur.n > target:
        cur = contract_ce(cur, cc.VectorInV.basis(cur.n, cur.n), cc.VectorInV.basis(cur.n, -cur.n))
    return cur


def mult_top_f_block(omega: cc.ExteriorVector, target: int) -> cc.ExteriorVector:
    """m_{f_target} o ... o m_{f_{n+1}} in coordinates, raising the level."""
    cur = omega
    while cur.n < target:
        cur = mult_mh(cur, cc.VectorInV.basis(cur.n + 1, -(cur.n + 1)))
    return cur


# -- the level-lowering factorization -----------------------------------------


@dataclass(frozen=True)
class LowerFactorization:
    """Certified factorization pi o g o tau = scalar * (g'' o pi o g')."""

    q: int
    n: int
    n0: int
    g_prime: sr.GroupElement
    g_second_so: tuple  # 2 n0 x 2 n0 matrix rows
    g_second_even: tuple  # matrix over the even-mask basis of level n0
    scalar: Fraction
    even_masks_n: tuple
    even_masks_n0: tuple
    det_second: Fraction
    exterior_ratio: Fraction | None


def _even_masks(n: int) -> list[int]:
    return [m for m in range(1 << n) if bin(m).count("1") % 2 == 0]


def _pairing_matrix(n: int) -> list[list[Fraction]]:
    m = linalg.zeros(2 * n, 2 * n)
    for i in range(n):
        m[i][n + i] = Fraction(1)
        m[n + i][i] = Fraction(1)
    return m


def _next_seed(seed: int | str) -> int | None:
    """Resample hint: the next integer seed (a string seed has none)."""
    return seed + 1 if isinstance(seed, int) else None


def lower_factorization(
    q: int,
    n: int,
    n0: int,
    g: sr.GroupElement,
    seed: int | str = 0,
    exterior_audit: bool = False,
) -> LowerFactorization:
    """Factor the contracted action of g through levels n and n0.

    Follows the constructive proof: E'' is the preimage of the top
    coordinate block, its projected trace in the middle level is moved onto
    the coordinate block by an explicit word g', and the residual factor at
    the bottom level is recovered exactly by solving the operator identity
    on the full even basis.  Genericity failures raise GenericityError with
    a resample hint; they are never silently passed.
    """
    if not q >= n >= n0:
        raise IndexRangeError("need q >= n >= n0")
    if n0 < 4:
        raise IndexRangeError("bottom level below 4 is unsupported")
    if g.n != q:
        raise LevelMismatchError(f"levels differ: {q} vs {g.n}")

    mg = g.so_matrix()
    mg_inv = g.inverse().so_matrix()
    # E'' = g^{-1} (span of top e-block); rows of E'' in level-q coords
    epp_rows = []
    for i in range(n0, q):
        col = [mg_inv[r][i] for r in range(2 * q)]
        epp_rows.append(col)
    # V_n + F has zero e-coords above n
    vnf_constraints = []
    for i in range(n, q):
        row = [Fraction(0)] * (2 * q)
        row[i] = Fraction(1)
        vnf_constraints.append(row)
    pair_rows = [
        list(w.f) + list(w.e)
        for w in (cc.VectorInV.from_coords(q, r) for r in epp_rows)
    ]
    # W1 = E'' ∩ (V_n ⊕ F): combinations of E''-rows with zero top e-coords
    w1 = []
    if epp_rows:
        if q > n:
            constraint_matrix = [[row[i] for i in range(n, q)] for row in epp_rows]
            kernel = linalg.nullspace(linalg.transpose(constraint_matrix))
        else:
            kernel = linalg.identity(len(epp_rows))
        for comb in kernel:
            vec = [
                sum((comb[a] * epp_rows[a][k] for a in range(len(epp_rows))), Fraction(0))
                for k in range(2 * q)
            ]
            w1.append(vec)
        w1 = linalg.row_space(w1) if w1 else []
    if len(w1) != n - n0:
        raise GenericityError(
            f"dim(E'' ∩ (V_n+F)) = {len(w1)} != n - n0 = {n - n0}",
            suggested_seed=_next_seed(seed),
        )
    # (E'')^perp ∩ F must be zero
    f_rows = []
    for j in range(n, q):
        row = [Fraction(0)] * (2 * q)
        row[q + j] = Fraction(1)
        f_rows.append(row)
    if f_rows and pair_rows:
        perp = linalg.nullspace(pair_rows)
        meet = linalg.intersect_row_spaces(perp, f_rows)
        if meet:
            raise GenericityError(
                "(E'')^perp meets the auxiliary F block", suggested_seed=_next_seed(seed)
            )
    # Etilde: project W1 to V_n along the auxiliary F block
    etilde_rows = []
    for row in w1:
        proj = row[:n] + [Fraction(0)] * (q - n) + row[q : q + n] + [Fraction(0)] * (q - n)
        etilde_rows.append(proj)
    etilde_rows = linalg.row_space(etilde_rows) if etilde_rows else []
    if len(etilde_rows) != n - n0:
        raise GenericityError(
            "projected trace lost dimension", suggested_seed=_next_seed(seed)
        )
    # restrict to level-n coordinates
    etilde_n = [row[:n] + row[q : q + n] for row in etilde_rows]
    if n > n0:
        etilde_sub = gc.check_isotropic(etilde_n, n)
        g_prime = gc.element_moving_to_coordinate_top(etilde_sub)
    else:
        g_prime = sr.GroupElement.identity(n)

    # spin-side operators on the even basis
    masks_n = _even_masks(n)
    masks_n0 = _even_masks(n0)
    idx_n0 = {m: i for i, m in enumerate(masks_n0)}

    def column_through(gE: sr.GroupElement, top: int, mask: int) -> list[Fraction]:
        v = sr.SpinVector.basis(n, mask)
        v = tm.tau_tower(v, top)
        v = gE.apply(v)
        v = tm.pi_tower(v, n0)
        col = [Fraction(0)] * len(masks_n0)
        for m, c in v.terms.items():
            col[idx_n0[m]] = c
        return col

    a_mat = linalg.transpose([column_through(g, q, m) for m in masks_n])
    b_mat = linalg.transpose([column_through(g_prime, n, m) for m in masks_n])
    ut = linalg.solve_matrix(linalg.transpose(b_mat), linalg.transpose(a_mat))
    if ut is None:
        raise GenericityError(
            "operator identity is inconsistent for this g", suggested_seed=_next_seed(seed)
        )
    u = linalg.transpose(ut)
    if linalg.matmul(u, b_mat) != a_mat:
        raise StructureError("solved factor does not reproduce the identity")

    # the proof's bottom factor as an orthogonal matrix
    m_second = _second_factor_matrix(q, n, n0, mg, g_prime, etilde_n, vnf_constraints + pair_rows)
    jn0 = _pairing_matrix(n0)
    if linalg.matmul(linalg.matmul(linalg.transpose(m_second), jn0), m_second) != jn0:
        raise StructureError("bottom factor does not preserve the form")
    det_second = linalg.det(m_second)
    _verify_intertwining(n0, u, m_second, masks_n0)

    scalar = next(
        (u[r][c] for r in range(len(u)) for c in range(len(u[0])) if u[r][c] != 0),
        Fraction(1),
    )
    g_second_even = [[x / scalar for x in row] for row in u]

    ext_ratio = None
    if exterior_audit:
        ext_ratio = _exterior_audit(q, n, n0, mg, g_prime, m_second, seed)

    return LowerFactorization(
        q=q,
        n=n,
        n0=n0,
        g_prime=g_prime,
        g_second_so=tuple(tuple(r) for r in m_second),
        g_second_even=tuple(tuple(r) for r in g_second_even),
        scalar=scalar,
        even_masks_n=tuple(masks_n),
        even_masks_n0=tuple(masks_n0),
        det_second=det_second,
        exterior_ratio=ext_ratio,
    )


def _second_factor_matrix(q, n, n0, mg, g_prime, etilde_n, constraints):
    """Assemble the bottom isometry column by column through the quotients;
    D, the nullspace of `constraints`, is (V_n ⊕ F) ∩ (E'')^perp."""
    d_rows = linalg.nullspace(constraints) if constraints else linalg.identity(2 * q)
    mgp_inv = g_prime.inverse().so_matrix()
    cols = []
    for bit in range(2 * n0):
        w_n = [Fraction(0)] * (2 * n)
        w_n[bit if bit < n0 else n + (bit - n0)] = Fraction(1)
        x = linalg.matvec(mgp_inv, w_n)
        # solve proj(d) - x in span(Etilde): unknowns lambda (over D), mu (over Etilde)
        nd = len(d_rows)
        ne = len(etilde_n)
        rows = []
        rhs = []
        for k in range(2 * n):
            qk = k if k < n else q + (k - n)  # level-q coordinate of the projection
            row = [d_rows[a][qk] for a in range(nd)]
            row += [-etilde_n[b][k] for b in range(ne)]
            rows.append(row)
            rhs.append(x[k])
        # the projection drops e- and f-coords in (n, q]; those of d are free:
        sol = linalg.solve(rows, rhs)
        if sol is None:
            raise StructureError("quotient transport has no solution")
        d = [
            sum((sol[a] * d_rows[a][k] for a in range(nd)), Fraction(0))
            for k in range(2 * q)
        ]
        y = linalg.matvec(mg, d)
        for i in range(n0, q):
            if y[q + i] != 0:
                raise StructureError("transported vector left the top-block perp")
        cols.append([y[i] for i in range(n0)] + [y[q + i] for i in range(n0)])
    return linalg.transpose(cols)


def _verify_intertwining(n0, u, m_second, masks_n0):
    """u must intertwine the spin action with conjugation by the bottom factor."""
    m_inv = linalg.inverse(m_second)
    idx = {m: i for i, m in enumerate(masks_n0)}

    def even_block(x: sr.SoElement):
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
        lhs = linalg.matmul(u, even_block(x))
        rhs = linalg.matmul(even_block(y), u)
        if lhs != rhs:
            raise StructureError("bottom factor fails the conjugation audit")


def _exterior_audit(q, n, n0, mg, g_prime, m_second, seed=0) -> Fraction:
    """Sampled check of the exterior-power identity; returns the ratio."""
    import random as _random

    mgp = g_prime.so_matrix()
    ratio = None
    rng = _random.Random(f"extaudit:{q}:{n}:{n0}:{seed}")
    samples = [cc.ExteriorVector(n, {((1 << n) - 1): Fraction(1)})]
    for _ in range(3):
        vecs = [
            cc.VectorInV.from_coords(
                n, [Fraction(rng.randint(-2, 2)) for _ in range(2 * n)]
            )
            for _ in range(n)
        ]
        samples.append(cc.wedge_of_vectors(n, vecs))
    for omega in samples:
        lifted = mult_top_f_block(omega, q)
        lhs = contract_top_e_block(cc.induced_map(lifted, linalg.transpose(mg)), n0)
        mid = contract_top_e_block(cc.induced_map(omega, linalg.transpose(mgp)), n0)
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


def sample_lower_factorization(
    q: int, n: int, n0: int, seed: int | str, exterior_audit: bool = False,
) -> tuple[LowerFactorization, sr.GroupElement, list[str]]:
    """Draw seeded words of length 8 until the genericity conditions hold,
    at most 20 of them.

    Returns the factorization, the element used, and the recorded failures.
    """
    failures: list[str] = []
    for t in range(20):
        g = sr.random_group_element(q, f"lower:{seed}:{t}", 8)
        try:
            res = lower_factorization(q, n, n0, g, seed=seed, exterior_audit=exterior_audit)
            return res, g, failures
        except GenericityError as exc:
            failures.append(str(exc))
    raise GenericityError(
        "no generic element found in 20 tries", suggested_seed=_next_seed(seed)
    )
