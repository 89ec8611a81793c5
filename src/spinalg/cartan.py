"""The quadratic map from the spin space to the middle exterior power,
exterior contraction/multiplication, the essentially-commuting diagrams
relating the two, sampled injectivity, and the level-lowering factorization
of contracted group actions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

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


@lru_cache(maxsize=None)
def _parity_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(PX, SX) over the subsets y of [n]: bit i of PX[y] (of SX[y]) is set
    when an odd number of the bits of y lie below (above) i."""
    subsets = range(1 << n)
    px = tuple(sum(1 << i for i in range(n) if (y & ~(-1 << i)).bit_count() & 1) for y in subsets)
    sx = tuple(sum(1 << i for i in range(n) if (y >> i + 1).bit_count() & 1) for y in subsets)
    return px, sx


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

    zero when |D| is odd.  The sign is that of one path under the kernel's
    rule, a move on bit b in mask m gives (-1)^(set bits of m below b).
    Summed over the path, those counts are popcounts against the parity
    masks of _parity_masks: with a = D1 n T, b = D1 n S, nT = [n] \\ T,
    st = S \\ T and both = S n T, the sign is (-1) to the power

      c0 + |a n MA| + |b n MB| + C(|a|, 2) + C(|b|, 2) + |a| (k + |st| - |b|),

      c0 = C(k, 2) + (n - k) k + |T n PX[T]| + |T n PX[nT]|
           + |both n PX[st]| + |st n PX[nT]|,
      MA = PX[T] ^ SX[T] ^ PX[nT] ^ SX[st] ^ SX[both],
      MB = SX[both] ^ PX[st] ^ PX[nT],

    where c0, MA and MB depend on (S, T) only.  The masks are symmetric in S
    and T, and so are the signs: B_n(S, T) = B_n(T, S), checked at every pair
    for n <= 7 by test_half_pair_closed_form_matches_letter_word."""
    d = s ^ t
    half, odd = divmod(d.bit_count(), 2)
    out: dict[int, int] = {}
    if odd:
        return out
    px, sx = _parity_masks(n)
    k = t.bit_count()
    nt = ((1 << n) - 1) ^ t
    both = s & t
    st = s & ~t
    ts = t & ~s
    free = (nt & ~s) << n
    c0 = (
        k * (k - 1) // 2 + (n - k) * k + (t & px[t]).bit_count() + (t & px[nt]).bit_count()
        + (both & px[st]).bit_count() + (st & px[nt]).bit_count()
    )
    ma = px[t] ^ sx[t] ^ px[nt] ^ sx[st] ^ sx[both]
    mb = sx[both] ^ px[st] ^ px[nt]
    c1 = k + st.bit_count()
    mag = 1 << both.bit_count()
    for d1 in combinations([1 << j for j in range(n) if d >> j & 1], half):
        d1 = sum(d1)
        a = d1 & ts
        b = d1 & st
        na, nb = a.bit_count(), b.bit_count()
        p = c0 + (a & ma).bit_count() + (b & mb).bit_count()
        p += na * (na - 1) // 2 + nb * (nb - 1) // 2 + na * (c1 - nb)
        out[both | d1 | free | d1 << n] = -mag if p & 1 else mag
    return out


@lru_cache(maxsize=None)
def _nu2_pair(n: int, s: int, t: int) -> tuple:
    """P_n(S, T) for S <= T as (mask, int) pairs: B_n(S, T) + B_n(T, S) =
    2 B_n(S, T) off the diagonal (B_n is symmetric, see _half_pair) and
    B_n(S, S) on it; filled on first use, one pair at a time."""
    scale = 1 if s == t else 2
    return tuple((m, scale * c) for m, c in _half_pair(n, s, t).items())


def _nu2_ints(x: sr.SpinVector) -> cc.ExteriorVector:
    """nu2(x) on x's numerators, over the square of x's denominator; see nu2."""
    ints = sorted(x.num.items())
    acc: dict[int, int] = {}
    for i, (s, a) in enumerate(ints):
        for t, b in ints[i:]:
            if (s ^ t).bit_count() & 1:
                continue
            ab = a * b
            for m, c in _nu2_pair(x.n, s, t):
                acc[m] = acc.get(m, 0) + ab * c
    return cc.ExteriorVector._ints(x.n, {m: c for m, c in acc.items() if c}, x.den * x.den)


def nu2(x: sr.SpinVector) -> cc.ExteriorVector:
    """Quadratic map to the middle exterior power: the degree-n component of
    (x a*) acting on 1, with a the wedge part of x, read off a bilinear table:

        nu2(x) = sum_(S <= T) x_S x_T P_n(S, T)   (see _nu2_pair).

    Its image of the pure spinors is cut out by Cartan's quadrics (Chevalley,
    The Algebraic Theory of Spinors, 1954, Ch. III).  B_n(S, T) is symmetric
    in S and T (see _half_pair), so P_n(S, T) = 2 B_n(S, T) off the diagonal;
    it is zero when |S ^ T| is odd (the degree-n part of an element of parity
    |S| + |T| + n), so those pairs are skipped.  The sum runs on x's integer
    numerators, over the square of x's denominator (_nu2_ints).  Homogeneous
    of degree 2: nu2(t x) = t^2 nu2(x)."""
    return _nu2_ints(x)


def _contract_top(terms: dict, n: int) -> dict:
    """c_(e_n) modulo e_n on level-n masks, on int numerators:
    e_n removes f_n, the top bit, with the kernel's sign (-1)^(set bits
    below it), then _quotient_top."""
    top_f = 1 << (2 * n - 1)
    # the bits below f_n are all but f_n itself
    moved = {m ^ top_f: c if m.bit_count() & 1 else -c for m, c in terms.items() if m & top_f}
    return _quotient_top(moved, n)


def _quotient_top(terms: dict, n: int) -> dict:
    """Level-n masks modulo (e_n, f_n) at level n-1: masks holding e_n are
    killed, one holding f_n raises StructureError, and the rest are
    remasked."""
    top_e, top_f = 1 << (n - 1), 1 << (2 * n - 1)
    low = top_e - 1
    out = {}
    for mask, c in terms.items():
        if mask & top_e:
            continue  # killed modulo e
        if mask & top_f:
            raise StructureError("contraction image leaked the partner symbol")
        out[mask & low | (mask >> n) << (n - 1)] = c
    return out


def _wedge_top(terms: dict, n: int) -> dict:
    """m_(f_n) on level-(n-1) masks, on int numerators: each mask
    is remasked to level n and f_n, the top bit, is wedged on the left with
    the kernel's sign (-1)^(set bits below it)."""
    low = (1 << (n - 1)) - 1
    top_f = 1 << (2 * n - 1)
    return {
        mask & low | (mask >> (n - 1)) << n | top_f: -c if mask.bit_count() & 1 else c
        for mask, c in terms.items()
    }


def contract_ce(
    omega: cc.ExteriorVector,
    e: cc.VectorInV,
    h: cc.VectorInV | None = None,
) -> cc.ExteriorVector:
    """Contraction with isotropic e followed by reduction modulo e.

    With a hyperbolic partner h (in the fixed F) the result is expressed in
    the deterministic model basis of the orthogonal complement of (e, h), by
    one induced map on the basis's symbol coordinates, its pairings; for the
    coordinate pair e = e_n, h = f_n this is the identity relabeling, and
    the contraction is one bit move on each mask (_contract_top).
    """
    n = omega.n
    cc.require_isotropic(e)
    if e == cc.VectorInV.basis(n, n) and (h is None or h == cc.VectorInV.basis(n, -n)):
        return cc.ExteriorVector._ints(n - 1, _contract_top(omega.num, n), omega.den)
    contracted = cc.induced_map(omega.inner_vector(e), gc.hyperbolic_basis_through(e, h).symbol_coords())
    return cc.ExteriorVector._ints(n - 1, _quotient_top(contracted.num, n), contracted.den)


def mult_mh(
    omega: cc.ExteriorVector,
    h: cc.VectorInV,
    e: cc.VectorInV | None = None,
) -> cc.ExteriorVector:
    """Outer multiplication by the hyperbolic partner h.

    The source lives at level n-1 (the model of the quotient by (e, h)); for
    the coordinate pair the inclusion is index-preserving and the product is
    one bit move on each mask (_wedge_top).  A non-coordinate h needs its e
    supplied so the model basis is determined.
    """
    n = omega.n + 1
    cc.require_isotropic(h, "multiplication vector")
    if h.n != n:
        raise LevelMismatchError("partner must live at the target level")
    if e is None:
        if h != cc.VectorInV.basis(n, -n):
            raise SpinalgError("non-coordinate partner needs its isotropic e")
        return cc.ExteriorVector._ints(n, _wedge_top(omega.num, n), omega.den)
    if cc.pairing(e, h) != 1:
        raise NotIsotropicError("(e|h) must equal 1")
    low = (1 << omega.n) - 1
    lifted = cc.ExteriorVector._ints(n, {m & low | (m >> omega.n) << n: c for m, c in omega.num.items()}, omega.den)
    rows = gc.hyperbolic_basis_through(e, h).rows()
    lifted = cc.induced_map(lifted, [row.coords() for row in rows])
    return cc._wedge_front(lifted, h.coords())


def diagram_pi_residual(x: sr.SpinVector) -> cc.ExteriorVector:
    """nu2(pi(x)) - sign * c_e(nu2(x)) at the top coordinate pair; zero for
    parity-pure x, with sign (-1)^(n-1) even and (-1)^n odd.

    Runs on integers: both sides are _nu2_ints, c_e the one-bit move
    _contract_top on the numerators, and the residual one subtraction."""
    parity = x.parity()
    if parity == "mixed":
        raise SpinalgError("diagram residuals need parity-pure input")
    n = x.n
    sign = _parity_sign(n, parity)
    rhs = _nu2_ints(x)
    rhs = cc.ExteriorVector._ints(n - 1, _contract_top(rhs.num, n), sign * rhs.den)
    return _nu2_ints(tm.pi_last(x)) - rhs


def diagram_tau_residual(x: sr.SpinVector) -> cc.ExteriorVector:
    """nu2(tau(x)) - sign * f_n ^ nu2(x); zero for parity-pure x.

    The sign is (-1)^(n-1) on the even part and (-1)^n on the odd part with
    n the target level, the same convention as the contraction diagram; the
    odd part differs from the even one by exactly the stated minus sign.
    Runs on integers like diagram_pi_residual, with f_n ^ the one-bit move
    _wedge_top.
    """
    parity = x.parity()
    if parity == "mixed":
        raise SpinalgError("diagram residuals need parity-pure input")
    n = x.n + 1
    sign = _parity_sign(n, parity)
    rhs = _nu2_ints(x)
    rhs = cc.ExteriorVector._ints(n, _wedge_top(rhs.num, n), sign * rhs.den)
    return _nu2_ints(tm.tau_last(x)) - rhs


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
    if cc._proportional(ix.num, iy.num) and not cc._proportional(x.num, y.num):
        return InjectivityVerdict(
            False, "non-proportional vectors with proportional images"
        )
    return InjectivityVerdict(True, "")


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
    mg_inv = g.so_matrix_inverse()
    # E'' = g^{-1} (span of top e-block); rows of E'' in level-q coords
    epp_rows = [[mg_inv[r][i] for r in range(2 * q)] for i in range(n0, q)]
    # V_n + F has zero e-coords above n; the auxiliary F block is f_(n+1)..f_q
    eye = linalg.identity(2 * q)
    vnf_constraints = eye[n:q]
    f_rows = eye[q + n :]
    pair_rows = [r[q:] + r[:q] for r in epp_rows]  # v -> (v|r) for each row r
    # W1 = E'' ∩ (V_n ⊕ F): combinations of E''-rows with zero top e-coords
    w1 = []
    if epp_rows:
        if q > n:
            kernel = linalg.nullspace([[row[i] for row in epp_rows] for i in range(n, q)])
        else:
            kernel = linalg.identity(len(epp_rows))
        w1 = linalg.row_space(linalg.matmul(kernel, epp_rows)) if kernel else []
    if len(w1) != n - n0:
        raise GenericityError(
            f"dim(E'' ∩ (V_n+F)) = {len(w1)} != n - n0 = {n - n0}",
            suggested_seed=_next_seed(seed),
        )
    # (E'')^perp ∩ F must be zero
    if f_rows and pair_rows:
        perp = linalg.nullspace(pair_rows)
        meet = linalg.intersect_row_spaces(perp, f_rows)
        if meet:
            raise GenericityError(
                "(E'')^perp meets the auxiliary F block", suggested_seed=_next_seed(seed)
            )
    # Etilde: project W1 to V_n along the auxiliary F block
    pad = [Fraction(0)] * (q - n)
    etilde_rows = [row[:n] + pad + row[q : q + n] + pad for row in w1]
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
    m_inv = sr._form_adjoint(m_second)
    if linalg.matmul(m_inv, m_second) != linalg.identity(2 * n0):
        raise StructureError("bottom factor does not preserve the form")
    det_second = linalg.det(m_second)
    _verify_intertwining(n0, u, m_second, m_inv, masks_n0)

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
    D, the nullspace of `constraints`, is (V_n ⊕ F) ∩ (E'')^perp.  Column b
    solves proj(d) - g'^-1 e_b in span(Etilde): unknowns lambda (over D), mu
    (over Etilde); only the right-hand side changes with b, so one reduction
    serves every column."""
    d_rows = linalg.nullspace(constraints) if constraints else linalg.identity(2 * q)
    mgp_inv = g_prime.so_matrix_inverse()
    nd = len(d_rows)
    rows = []
    for k in range(2 * n):
        qk = k if k < n else q + (k - n)  # level-q coordinate of the projection;
        # the projection drops the e- and f-coords in (n, q], so those of d are free
        rows.append([row[qk] for row in d_rows] + [-row[k] for row in etilde_n])
    sources = [bit if bit < n0 else n + (bit - n0) for bit in range(2 * n0)]
    sol = linalg.solve_matrix(rows, [[mgp_inv[k][c] for c in sources] for k in range(2 * n)])
    if sol is None:
        raise StructureError("quotient transport has no solution")
    cols = []
    # the transported vectors mg d, one row per column
    for y in linalg.matmul(linalg.matmul(linalg.transpose(sol[:nd]), d_rows), linalg.transpose(mg)):
        if any(y[q + i] != 0 for i in range(n0, q)):
            raise StructureError("transported vector left the top-block perp")
        cols.append([y[i] for i in range(n0)] + [y[q + i] for i in range(n0)])
    return linalg.transpose(cols)


def _two_rho_basis(n0: int, masks: list[int]) -> list[tuple[int, int, list]]:
    """The so(2 n0) basis of the intertwining audit as (p, p2, moves): the
    two-form e^e' of the basis vectors e, e' of V at coordinates p and p2,
    and 2 rho(e^e') on the masks as (column, row, int factor) triples.  The
    roots read their spin_rep root tables; the Cartan element e_i^f_i acts
    on e_S by +1/2 when i is in S and by -1/2 otherwise."""
    idx = {m: k for k, m in enumerate(masks)}
    upper = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
    pairs = [p for i, j in upper for p in ((i, j, "ee"), (n0 + i, n0 + j, "ff"))]
    pairs += [(i, n0 + j, "ef") for i in range(n0) for j in range(n0)]
    out = []
    for p, p2, kind in pairs:
        i, j = p % n0, p2 % n0
        if p + n0 == p2:
            table = {m: (m, 1 if m >> i & 1 else -1) for m in masks}
        else:
            table = sr._root_table(n0, kind, i + 1, j + 1)[0]
        moves = [(col, idx[hit[0]], hit[1]) for col, m in enumerate(masks) if (hit := table.get(m))]
        out.append((p, p2, moves))
    return out


def _verify_intertwining(n0, u, m_second, m_inv, masks_n0):
    """u must intertwine the spin action with conjugation by the bottom
    factor M: u rho(x) = rho(M x M^-1) u for each x of the so(2 n0) basis.

    Runs on integers, with M = A / a, M^-1 = m_inv = B / b, s = a b and u = U / c.
    The basis element x = e^e' (see _two_rho_basis, coordinates p and p2)
    sends w to (e'|w) e - (e|w) e', so s M x M^-1 = A[:, p] B[p2*, :] -
    A[:, p2] B[p*, :], with r* the partner coordinate of r.  Its coefficient
    on the basis element at (p, p2) is its (p, p2*) entry, as
    SoElement.from_matrix reads it, and it must pass from_matrix's check:
    skew for the split form.  The audit compares U (2 rho(x)) s with
    (2 s rho(M x M^-1)) U."""
    a, den_a = linalg._int_matrix(m_second)
    b, den_b = linalg._int_matrix(m_inv)
    uu = linalg._int_matrix(u)[0]
    s = den_a * den_b
    size = 2 * n0
    star = [r + n0 if r < n0 else r - n0 for r in range(size)]
    basis = _two_rho_basis(n0, masks_n0)

    def dense(terms):
        """sum of coef * 2 rho(basis element) over (coef, moves) as an int matrix"""
        out = [[0] * len(masks_n0) for _ in masks_n0]
        for coef, moves in terms:
            if coef:
                for col, row, c2 in moves:
                    out[row][col] += coef * c2
        return out

    for p, p2, moves in basis:
        ad = [[r[p] * y - r[p2] * z for y, z in zip(b[star[p2]], b[star[p]])] for r in a]
        if any(ad[r][c] != -ad[star[c]][star[r]] for r in range(size) for c in range(size)):
            raise StructureError("matrix is not skew with respect to the split form")
        rho_y = dense((ad[i][star[j]], moves2) for i, j, moves2 in basis)
        if linalg._product(uu, dense([(s, moves)]), 0) != linalg._product(rho_y, uu, 0):
            raise StructureError("bottom factor fails the conjugation audit")


def _exterior_audit(q, n, n0, mg, g_prime, m_second, seed=0) -> Fraction:
    """Sampled check of the exterior-power identity; returns the ratio."""
    import random as _random

    mgp = g_prime.so_matrix()
    ratio = None
    rng = _random.Random(f"extaudit:{q}:{n}:{n0}:{seed}")
    samples = [cc.ExteriorVector(n, {((1 << n) - 1): Fraction(1)})]
    for _ in range(3):
        coords = [[Fraction(rng.randint(-2, 2)) for _ in range(2 * n)] for _ in range(n)]
        samples.append(cc.wedge_of_vectors(n, [cc.VectorInV.from_coords(n, c) for c in coords]))
    for omega in samples:
        # lhs = c_(e_(n0+1)) ... c_(e_q) g m_(f_q) ... m_(f_(n+1)) omega and
        # rhs = g'' c_(e_(n0+1)) ... c_(e_n) g' omega, each c and m a one-bit
        # move on the numerators (_contract_top, _wedge_top)
        lhs = omega.num
        for level in range(n + 1, q + 1):
            lhs = _wedge_top(lhs, level)
        moved = cc.induced_map(cc.ExteriorVector._ints(q, lhs, omega.den), linalg.transpose(mg))
        mid = cc.induced_map(omega, linalg.transpose(mgp))
        lhs, mid_num = moved.num, mid.num
        for level in range(q, n0, -1):
            lhs = _contract_top(lhs, level)
        for level in range(n, n0, -1):
            mid_num = _contract_top(mid_num, level)
        rhs = cc.induced_map(cc.ExteriorVector._ints(n0, mid_num, mid.den), linalg.transpose(m_second))
        if not lhs and rhs.is_zero():
            continue
        if not lhs or rhs.is_zero():
            raise StructureError("exterior audit: one side vanished")
        if not cc._proportional(lhs, rhs.num):
            raise StructureError("exterior audit: sides are not proportional")
        k = next(iter(lhs))
        r = Fraction(lhs[k] * rhs.den, rhs.num[k] * moved.den)
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
