"""Named verification suites over a range of levels.

A check takes (n, seed, samples) and returns a failure witness, a string
that says what went wrong, or None when it passes.  Each `_SUITES` row
declares the levels its check runs at: a domain, the levels the check is
defined at, and an optional cost limit, the highest level the report runs
it at.  `run_checks` reports the levels outside them as skipped with the
row's reason, without calling the check.  Everything is deterministic in
the configured seed."""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import cartan as ca
from . import clifford_core as cc
from . import grassmann_cone as gc
from . import ideal_engine as ie
from . import linalg
from . import spin_rep as sr
from . import transfer_maps as tm
from .errors import GenericityError, IndexRangeError, StructureError


@dataclass(frozen=True)
class CheckResult:
    suite: str
    n: int
    name: str
    anchor: str
    status: str  # pass | fail | skipped
    witness: str | None


@dataclass(frozen=True)
class Check:
    """One registry row: a check and the levels the report runs it at.

    ``domain`` is (low, high, reason): the levels the check is defined at,
    high None for no upper end, and why the report skips the others.
    ``cost`` is (highest, reason): the highest level the report runs the
    check at, below the top of its domain, and why."""

    name: str
    anchor: str
    fn: Callable[[int, object, int], str | None]
    domain: tuple[int, int | None, str] | None = None
    cost: tuple[int, str] | None = None

    def skip_reason(self, n: int) -> str | None:
        """Why the report skips level n, or None where it runs the check."""
        if self.domain is not None:
            low, high, reason = self.domain
            if n < low or (high is not None and n > high):
                return reason
        if self.cost is not None and n > self.cost[0]:
            return self.cost[1]
        return None


def _rng(seed, *tags) -> random.Random:
    return random.Random("check:" + ":".join(str(t) for t in (seed, *tags)))


def _random_spin(n: int, rng: random.Random, parity: str | None = None) -> sr.SpinVector:
    terms = {}
    for m in range(1 << n):
        if parity == "even" and bin(m).count("1") % 2:
            continue
        if parity == "odd" and bin(m).count("1") % 2 == 0:
            continue
        terms[m] = Fraction(rng.randint(-3, 3))
    return sr.SpinVector(n, terms)


def _random_vector(n: int, rng: random.Random) -> cc.VectorInV:
    return cc.VectorInV(
        n,
        [Fraction(rng.randint(-3, 3)) for _ in range(n)],
        [Fraction(rng.randint(-3, 3)) for _ in range(n)],
    )


# ---------------------------------------------------------------------------


def _check_clifford_relations(n, seed, samples):
    rng = _rng(seed, "cliffrel", n)
    for t in range(min(samples, 25)):
        v = _random_vector(n, rng)
        w = _random_vector(n, rng)
        vc, wc = v.as_clifford(), w.as_clifford()
        lhs = cc.mul(vc, wc) + cc.mul(wc, vc)
        rhs = cc.CliffordElement.unit(n).scale(2 * cc.pairing(v, w))
        if lhs != rhs:
            return f"anticommutator failed for sample {t}"
        sq = cc.mul(vc, vc)
        if sq != cc.CliffordElement.unit(n).scale(cc.quadratic_value(v)):
            return f"square failed for sample {t}"


def _check_module_iso(n, seed, samples):
    images = []  # as sparse rows: the map's rank is that of its transpose
    for em in range(1 << n):
        for fm in range(1 << n):
            a = cc.CliffordElement(n, {(em, fm): Fraction(1)})
            images.append(cc.act_on_exterior(a, cc.ExteriorVector.unit(n)).num)
    rank = linalg.sparse_rank(images)
    if rank != 4**n:
        return f"rank {rank} != {4 ** n}"


def _check_star(n, seed, samples):
    rng = _rng(seed, "star", n)
    for t in range(min(samples, 10)):
        x = _random_clifford(n, rng)
        y = _random_clifford(n, rng)
        if cc.star(cc.star(x)) != x:
            return f"involution failed at {t}"
        if cc.star(cc.mul(x, y)) != cc.mul(cc.star(y), cc.star(x)):
            return f"antihomomorphism failed at {t}"


def _random_clifford(n, rng) -> cc.CliffordElement:
    terms = {}
    for _ in range(4):
        em = rng.randrange(1 << n)
        fm = rng.randrange(1 << n)
        terms[(em, fm)] = Fraction(rng.randint(-2, 2))
    return cc.CliffordElement(n, terms)


def _check_quarter_embedding(n, seed, samples):
    """The quarter-commutator embedding u^v -> x = (uv - vu)/4 (Chevalley)
    respects the bracket: [x, w] = (v|w) u - (u|w) v for all basis vectors
    u != v and w.

    Runs on the letter kernel over packed masks em | fm << n, scaled by 4 so
    that every coefficient is an int: 4x = uv - vu from the unit, and
    4[x, w] = (4x) w - w (4x), the letters of 4x's monomials on the mask of w
    less w's letter on 4x, must equal 4((v|w) u - (u|w) v).  On basis
    symbols (a|b) is 1 exactly when a = -b."""
    syms = [*range(1, n + 1), *range(-1, -n - 1, -1)]
    table = cc._letter_table(cc._clifford_letter, n)
    for u in syms:
        bu = cc._bit(u, n)
        for v in syms:
            if u == v:
                continue
            bv = cc._bit(v, n)
            lu, lv = table[bu], table[bv]
            x4, _ = cc._apply_words([(1, [lu, lv]), (-1, [lv, lu])], {0: 1})
            words = [(c, [table[b] for b in range(2 * n) if m >> b & 1]) for m, c in x4.items()]
            for w in syms:
                bw = cc._bit(w, n)
                bracket, _ = cc._apply_words(words, {1 << bw: 1})
                for m, c in cc._apply_words([(-1, [table[bw]])], x4)[0].items():
                    cc._accumulate(bracket, m, c)
                if bracket != ({1 << bu: 4} if v == -w else {1 << bv: -4} if u == -w else {}):
                    return f"bracket failed at ({u},{v},{w})"


def _check_highest_weights(n, seed, samples):
    w0 = sr.SpinVector.omega0(n)
    w1 = sr.SpinVector.omega1(n)
    for i in range(1, n + 1):
        if sr.rho_so(sr.SoElement.basis_ef(n, i, i), w0) != w0.scale(Fraction(1, 2)):
            return f"e{i}^f{i} on the full wedge"
    if n < 2:
        return None  # the Chevalley elements need two indices
    for i in range(1, n):
        if not sr.rho_so(sr.SoElement.chevalley_h(n, i), w0).is_zero():
            return f"h{i} on the full wedge"
    if sr.rho_so(sr.SoElement.chevalley_h(n, n), w0) != w0:
        return "h_n on the full wedge"
    if sr.rho_so(sr.SoElement.chevalley_h(n, n - 1), w1) != w1:
        return "h_{n-1} on the short wedge"
    if not sr.rho_so(sr.SoElement.chevalley_h(n, n), w1).is_zero():
        return "h_n on the short wedge"
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not sr.rho_so(sr.SoElement.basis_ee(n, i, j), w0).is_zero():
                return f"e{i}^e{j} on the full wedge"
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and not sr.rho_so(sr.SoElement.basis_ef(n, i, j), w0).is_zero():
                return f"e{i}^f{j} on the full wedge"


def _all_two_forms(n):
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(sr.SoElement.basis_ee(n, i, j))
            out.append(sr.SoElement.basis_ff(n, i, j))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append(sr.SoElement.basis_ef(n, i, j))
    return out

def _check_bracket_compat(n, seed, samples):
    """rho([x, y]) = rho(x) rho(y) - rho(y) rho(x) on every basis vector for
    sampled pairs of basis two-forms, five kernel calls a pair on the tagged
    basis; both products are over s_x s_y, as a scale depends on the words alone."""
    forms = _all_two_forms(n)
    rng = _rng(seed, "bracket", n)
    pairs = [(x, y) for x in forms for y in forms]
    if len(pairs) > samples * 20:
        pairs = rng.sample(pairs, samples * 20)
    basis = sr._tagged_basis(n)
    for x, y in pairs:
        wx, wy = sr._so_words(x), sr._so_words(y)
        lhs, s = cc._apply_words(sr._so_words(sr.so_bracket(x, y)), basis)
        rhs, sx = cc._apply_words(wx, cc._apply_words(wy, basis)[0])
        yx, sy = cc._apply_words(wy, cc._apply_words(wx, basis)[0])
        for key, c in yx.items():
            cc._accumulate(rhs, key, -c)
        if {key: sx * sy * c for key, c in lhs.items()} != {key: s * c for key, c in rhs.items()}:
            return f"bracket mismatch for {x} , {y}"


def _check_twist(n, seed, samples):
    rng = _rng(seed, "twist", n)
    for t in range(min(samples, 12)):
        ef = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ef[(i, j)] = Fraction(rng.randint(-2, 2))
        a = sr.SoElement(n, ef=ef)
        if not sr.gl_twist_residual(a).is_zero():
            return f"twist residual nonzero at sample {t}"


def _check_group_unipotent(n, seed, samples):
    rng = _rng(seed, "grp", n)
    for kind, i, j in sr.all_root_vectors(n):
        t = Fraction(rng.randint(1, 3))
        g = sr.exp_nilpotent(n, kind, i, j, t)
        if not (g * g.inverse()).operator() == sr.LinearOperator.identity(n):
            return f"inverse failed for {kind}({i},{j})"
        if g.operator().determinant() != 1:
            return f"determinant != 1 for {kind}({i},{j})"


def _check_pi_tau(n, seed, samples):
    for m in range(1 << n):
        x = sr.SpinVector.basis(n, m)
        if tm.pi_last(tm.tau_last(x)) != x:
            return f"pi o tau != id at mask {m}"


def _check_equivariance(n, seed, samples):
    """pi(g x) = g pi(x) on each level-n basis x, then tau(g x) = g tau(x) on each
    level-(n - 1) one, g = exp(tX) for the roots X of level n - 1: one step per
    level over the tagged basis (keys image | m << level, each times the other
    step's factor), pi (drop masks with bit n) and tau (keep all) key filters.
    The tau half can never fail first: roots of level n - 1 never move bit n, so
    pi drops no image of a mask without bit n and tau compares the same entries.
    What the row checks is the level-n step against the level-(n - 1) one on
    the masks without bit n; a flipped coefficient on a mask with bit n is unseen."""
    rng = _rng(seed, "equiv", n)
    top = 1 << (n - 1)
    high_basis, low_basis = sr._tagged_basis(n), sr._tagged_basis(n - 1)
    for kind, i, j in sr.all_root_vectors(n - 1):
        t = Fraction(rng.choice([1, 2, -1]), rng.choice([1, 2]))
        high, k_high = sr._root_step(sr._root_table(n, kind, i, j), t, high_basis, False, 2 * top - 1)
        low, k_low = sr._root_step(sr._root_table(n - 1, kind, i, j), t, low_basis, False, top - 1)
        high, low = {key: c * k_low for key, c in high.items()}, {key: c * k_high for key, c in low.items()}
        if {key >> n << (n - 1) | key & (top - 1): c for key, c in high.items() if not key & top} != low:
            return f"pi equivariance failed for {kind}({i},{j})"
        up = {key >> (n - 1) << n | key & (top - 1): c for key, c in low.items()}
        if {key: c for key, c in high.items() if key >> n < top} != up:
            return f"tau equivariance failed for {kind}({i},{j})"


def _check_gram(n, seed, samples):
    g = tm.beta_gram(n)
    size = 1 << n
    if linalg.rank([list(r) for r in g]) != size:
        return "gram matrix is singular"
    # Each test fails at (a, b) exactly when it fails at (b, a), so the pairs
    # a <= b give the first witness in row order; a zero pair passes both.
    sym = n % 4 in (0, 1)
    parity = [bin(m).count("1") % 2 for m in range(size)]
    cross = None
    for a in range(size):
        row, pa = g[a], parity[a]
        for b in range(a, size):
            u, v = row[b], g[b][a]
            if not u and not v:
                continue
            if u != (v if sym else -v):
                return f"not {'symmetric' if sym else 'skew'} at ({a},{b})"
            if cross is None and u and (pa != parity[b]) == (n % 2 == 0):
                cross = f"parity block structure violated at ({a},{b})"
    if cross:
        return cross
    # block nondegeneracy
    ev = [m for m in range(size) if not parity[m]]
    od = [m for m in range(size) if parity[m]]
    if n % 2 == 0:
        blocks = [[[g[a][b] for b in ev] for a in ev], [[g[a][b] for b in od] for a in od]]
    else:
        blocks = [[[g[a][b] for b in od] for a in ev]]
    for blk in blocks:
        if linalg.rank(blk) != len(blk):
            return "a parity block pairing is degenerate"


def _check_psidual(n, seed, samples):
    rng = _rng(seed, "psidual", n)
    if n <= 4:
        for am in range(1 << (n - 1)):
            for xm in range(1 << n):
                r = tm.psidual_residual(
                    sr.SpinVector.basis(n - 1, am), sr.SpinVector.basis(n, xm)
                )
                if r != 0:
                    return f"residual {r} at basis pair ({am},{xm})"
    else:
        for t in range(min(samples, 40)):
            a = _random_spin(n - 1, rng)
            x = _random_spin(n, rng)
            r = tm.psidual_residual(a, x)
            if r != 0:
                return f"residual {r} at sample {t}"


def _check_beta_invariance(n, seed, samples):
    rng = _rng(seed, "betainv", n)
    for t in range(min(samples, 8)):
        g = sr.random_group_element(n, f"{seed}:binv:{t}", 5)
        x = _random_spin(n, rng)
        y = _random_spin(n, rng)
        if tm.beta(g.apply(x), g.apply(y)) != tm.beta(x, y):
            return f"invariance failed at sample {t}"
        if tm.beta(x, y) != tm.beta_direct(x, y):
            return f"gram route disagrees with product route at {t}"


def _check_annihilator_roundtrip(n, seed, samples):
    for emask in range(1 << n):
        h = gc.coordinate_subspace(n, emask)
        if gc.annihilator(gc.omega_of(h)) != h:
            return f"roundtrip failed for coordinate mask {emask}"
    for t in range(min(samples, 10)):
        h = gc.random_maximal_isotropic(n, f"{seed}:rt:{t}")
        if gc.annihilator(gc.omega_of(h)) != h:
            return f"roundtrip failed for random subspace {t}"


def _check_sh_dimension(n, seed, samples):
    for t in range(min(samples, 8)):
        h = gc.random_maximal_isotropic(n, f"{seed}:sh:{t}")
        rows = []
        for v in h.vectors():
            op_cols = [sr.vector_action(v, sr.SpinVector.basis(n, m)) for m in range(1 << n)]
            for mask in range(1 << n):
                rows.append([col.coefficient(mask) for col in op_cols])
        kern = linalg.nullspace(rows)
        if len(kern) != 1:
            return f"S_H dimension {len(kern)} != 1 at sample {t}"


def _check_purity_orbit(n, seed, samples):
    for t in range(min(samples, 15)):
        x = gc.sample_cone_point(n, f"{seed}:po:{t}")
        if gc.is_pure(x).kind != "pure":
            return f"orbit point not pure at sample {t}"


def _check_map_stability(n, seed, samples):
    for t in range(min(samples, 10)):
        x = gc.sample_cone_point(n, f"{seed}:ms:{t}")
        px = tm.pi_last(x)
        if not gc.is_pure(px).on_cone:
            return f"contraction left the cone at sample {t}"
        tx = tm.tau_last(x)
        if not gc.is_pure(tx).on_cone:
            return f"multiplication left the cone at sample {t}"
    # contraction at a general vector maps the pure spinor into S_{H_e}
    rng = _rng(seed, "pigen", n)
    for t in range(min(samples, 6)):
        h = gc.random_maximal_isotropic(n, f"{seed}:hs:{t}")
        omega = gc.omega_of(h)
        e = _random_isotropic_not_in_f(n, rng)
        img = tm.pi_general(omega, e)
        e_in_h = h.contains(e)
        if e_in_h != img.is_zero():
            return f"zero-iff-e-in-H failed at sample {t}"
        if not img.is_zero():
            # H ∩ e-perp: combinations of H-rows pairing to zero with e
            vs = h.vectors()
            kern = linalg.nullspace([[cc.pairing(v, e) for v in vs]])
            he_rows = []
            for comb in kern:
                w = cc.VectorInV.from_coords(
                    n,
                    [
                        sum((comb[a] * vs[a].coords()[k] for a in range(len(vs))), Fraction(0))
                        for k in range(2 * n)
                    ],
                )
                he_rows.append(tm.vector_in_quotient(w, e).coords())
            he = gc.check_isotropic(linalg.row_space(he_rows), n - 1)
            ann = gc.annihilator(img)
            if ann != he:
                return f"image annihilator differs from H_e at sample {t}"


ISOTROPIC_DRAWS = 100


def _random_isotropic_not_in_f(n, rng) -> cc.VectorInV:
    for _ in range(ISOTROPIC_DRAWS):
        v = gc.random_maximal_isotropic(n, f"iso:{rng.random()}").vectors()[0]
        if any(c != 0 for c in v.e):
            return v
    raise StructureError(f"no isotropic vector off F at level {n} in {ISOTROPIC_DRAWS} draws")


def _check_pluecker_scalar(n, seed, samples):
    for t in range(min(samples, 8)):
        h = gc.random_maximal_isotropic(n, f"{seed}:pl:{t}")
        k = sum(1 for r in h.rows if not any(r[:n]))  # rref rows spanning H∩F
        if ca.nu2(gc.omega_of(h)) != gc.pluecker(h).scale(Fraction(2) ** (n - k)):
            return f"scalar failed at sample {t}"


def _diagram_witness(n, rng, samples, residual):
    for t in range(min(samples, 10)):
        for parity in ("even", "odd"):
            x = _random_spin(n, rng, parity)
            if not x.is_zero() and not residual(x).is_zero():
                return f"{parity} residual nonzero at sample {t}"


def _check_contraction_diagram(n, seed, samples):
    return _diagram_witness(n, _rng(seed, "cdiag", n), samples, ca.diagram_pi_residual)


def _check_multiplication_diagram(n, seed, samples):
    return _diagram_witness(n, _rng(seed, "mdiag", n), samples, ca.diagram_tau_residual)


def _check_ce_mh(n, seed, samples):
    rng = _rng(seed, "cemh", n)
    e = cc.VectorInV.basis(n, n)
    h = cc.VectorInV.basis(n, -n)
    for t in range(min(samples, 10)):
        vecs = [_random_vector(n - 1, rng) for _ in range(n - 1)]
        omega = cc.wedge_of_vectors(n - 1, vecs)
        if omega.is_zero():
            continue
        back = ca.contract_ce(ca.mult_mh(omega, h), e, h)
        if back != omega:
            return f"c_e o m_h != id at sample {t}"


def _check_injectivity(n, seed, samples):
    for t in range(min(samples, 8)):
        x = gc.sample_cone_point(n, f"{seed}:ix:{t}")
        y = gc.sample_cone_point(n, f"{seed}:iy:{t}")
        v = ca.injectivity_witness(x, y)
        if not v.ok:
            return v.reason


def _check_cone_to_pluecker(n, seed, samples):
    for t in range(min(samples, 8)):
        x = gc.sample_cone_point(n, f"{seed}:cp:{t}")
        if not ca.is_decomposable(ca.nu2(x)):
            return f"image not a pure wedge at sample {t}"


def _check_i4(n, seed, samples):
    quad = ie.i4_quadric()
    if not cc._proportional(quad.num, ie.beta_norm_quadric(4).num):
        return "discovered quadric is not pairing-norm proportional"


def _family_size(n):
    """Members of the level-n pullback family of the theorem61 checks."""
    return 64 if n == 5 else 120


def _check_membership(n, seed, samples):
    fam = ie.orbit_pullback_family(n, f"{seed}:fam", _family_size(n))
    half = max(1, samples // 2)
    for t in range(half):
        x = gc.sample_cone_point(n, f"{seed}:mon:{t}", length=10)
        v = ie.certify_membership(x, fam)
        if not v.passes:
            return f"on-cone sample {t} rejected by member {v.witness_index}"
    for t in range(half):
        x = ie.off_cone_sample(n, f"{seed}:moff:{t}")
        v = ie.certify_membership(x, fam)
        if v.passes:
            return f"off-cone sample {t} passed every member"


def _check_degree2_span(n, seed, samples):
    variables = ie.component_variables(n)
    monos = ie.monomials_of_degree(variables, 2)
    pts = ie.cone_points(n, f"{seed}:span", 3 * len(monos))
    forms = ie.vanishing_forms(pts, 2)
    fam = ie.orbit_pullback_family(n, f"{seed}:fam", _family_size(n))

    # rows of numerators: scaling a row leaves every rank as it is
    fam_rows = [[m.quadric.num.get(mn, 0) for mn in monos] for m in fam.members]
    van_rows = [[f.num.get(mn, 0) for mn in monos] for f in forms]
    r1 = linalg.rank(fam_rows)
    r2 = linalg.rank(van_rows)
    r3 = linalg.rank(fam_rows + van_rows)
    if not (r1 == r2 == r3):
        return f"ranks family={r1} vanishing={r2} joint={r3}"


def _check_lowering(n, seed, samples):
    p = ie.i4_quadric().to_limit()
    tr = ie.degree_lowering_trace(p, 6)
    final = tr.final()
    main = (ie.Polynomial.variable(tr.top_var) * tr.q).scale(tr.scalar)
    if final != main + tr.remainder:
        return "decomposition mismatch"
    if tr.ell != 1:
        return f"expected one step, got {tr.ell}"


def _check_solving(n, seed, samples):
    p = ie.i4_quadric().to_limit()
    tr = ie.degree_lowering_trace(p, 6)
    sol = ie.produce_solving_element(tr, (1 << 6) - 1, 8)
    mult = ie.ideal_membership(sol.element, list(sol.generators))
    if mult is None:
        return "witness not in the recorded ideal"
    loc = ie.assemble_localized(tr, (1 << 8) - 1, 8)
    if any(v.filtration > 4 for v in loc.s.variables()):
        return "numerator carries a high-filtration variable"


def _check_lower_factorization(n, seed, samples):
    configs = [(5, 5, 4)] if n == 5 else [(6, 5, 4), (6, 6, 4)]
    for q, nn, n0 in configs:
        tries = min(max(samples // 20, 2), 10)
        for t in range(tries):
            try:
                ca.sample_lower_factorization(
                    q, nn, n0, seed=f"{seed}:{t}", exterior_audit=(t == 0 and q <= 5)
                )
            except GenericityError as exc:
                return f"no generic element for {(q, nn, n0)}: {exc}"


def _check_gl_homogeneity(n, seed, samples):
    p = ie.i4_quadric().to_limit()
    window = 6
    # a diagonal element on an index contained in every variable's index set
    d = ie.derivation_ef(5, 5, p, window)
    if d != p.scale(Fraction(p.degree(), 2)):
        return "diagonal action does not scale by degree/2"


def _check_duality_pairing(n, seed, samples):
    rng = _rng(seed, "gamma", n)
    for t in range(min(samples, 10)):
        fin = {
            rng.randrange(1 << n): Fraction(rng.randint(-2, 2)) for _ in range(3)
        }
        lim = {
            rng.randrange(1 << n): Fraction(rng.randint(-2, 2)) for _ in range(3)
        }
        a, b = rng.sample(range(1, n + 1), 2)
        tval = Fraction(rng.randint(-2, 2))
        before = ie.gamma_windowed(fin, lim, n)
        after = ie.gamma_windowed(
            ie.standard_gl_exp(a, b, tval, fin, n),
            ie.limit_standard_gl_exp(a, b, tval, lim, n),
            n,
        )
        if before != after:
            return f"pairing not invariant at sample {t}"


_SUITES: dict[str, list[Check]] = {
    "clifford": [
        Check("clifford-relations", "eq:cliff-rel-2", _check_clifford_relations),
        Check("module-iso-rank", "cliff-module-iso", _check_module_iso,
              cost=(4, "dense rank bounded to n <= 4")),
        Check("star-involution", "star-antiautomorphism", _check_star),
        Check("quarter-embedding-bracket", "so-embedding", _check_quarter_embedding),
    ],
    "spinrep": [
        Check("highest-weight-facts", "highest-weights", _check_highest_weights),
        Check("bracket-compatibility", "so-embedding", _check_bracket_compat,
              cost=(4, "full pair enumeration bounded to n <= 4")),
        Check("gl-twist", "re:Twist", _check_twist),
        Check("group-unipotent", "spin-group-generators", _check_group_unipotent,
              cost=(4, "operator determinants bounded to n <= 4")),
    ],
    "transfer": [
        Check("pi-tau-identity", "eq:pi&tau", _check_pi_tau),
        Check("equivariance", "prop:pihom", _check_equivariance,
              (2, None, "no generators below level 2"),
              (5, "generator enumeration bounded to n <= 5")),
        Check("gram-structure", "lem:procesi-pairing", _check_gram),
        Check("dual-contraction", "prop:PsiDual", _check_psidual),
        Check("beta-invariance", "lem:procesi-pairing", _check_beta_invariance,
              (2, None, "no group generators below level 2")),
    ],
    "cone": [
        Check("annihilator-roundtrip", "eq:S_H", _check_annihilator_roundtrip,
              (2, None, "subspace sampling needs level >= 2"),
              (5, "coordinate enumeration bounded to n <= 5")),
        Check("stabilizer-line", "eq:S_H", _check_sh_dimension,
              (2, None, "subspace sampling needs level >= 2"), (5, "bounded to n <= 5")),
        Check("orbit-purity", "prop:properties", _check_purity_orbit,
              (2, None, "orbit sampling needs level >= 2")),
        Check("map-stability", "prop:properties", _check_map_stability,
              (2, None, "needs level >= 2")),
    ],
    "cartan": [
        Check("pluecker-scalar", "ex:Cartan", _check_pluecker_scalar,
              (2, None, "subspace sampling needs level >= 2"), (5, "bounded to n <= 5")),
        Check("contraction-diagram", "prop:CartanContraction", _check_contraction_diagram),
        Check("multiplication-diagram", "prop:CartanContraction", _check_multiplication_diagram),
        Check("ce-mh-identity", "ce-mh-identity", _check_ce_mh),
        Check("injectivity-sampled", "lm:CartanInjective", _check_injectivity,
              (2, None, "orbit sampling needs level >= 2")),
        Check("cone-to-pluecker", "ex:Cartan", _check_cone_to_pluecker,
              (2, None, "orbit sampling needs level >= 2"), (5, "bounded to n <= 5")),
    ],
    "theorem61": [
        Check("i4-discovery", "cor:isotropic-cartan", _check_i4,
              (4, 4, "the quadric discovery runs at level 4")),
        Check("membership-agreement", "cor:isotropic-cartan", _check_membership,
              (5, 6, "membership certification runs at levels 5 and 6")),
        Check("degree2-span", "cor:isotropic-cartan", _check_degree2_span,
              (5, 5, "span comparison runs at level 5")),
    ],
    "lowering": [
        Check("lowering-decomposition", "thm:Main", _check_lowering,
              (6, 6, "the lowering demonstration runs once (n = 6)")),
        Check("solving-element", "lm:Z", _check_solving,
              (6, 6, "the solving-element demonstration runs once (n = 6)")),
        Check("lower-factorization", "lm:Lower", _check_lower_factorization,
              (5, 6, "factorization checks run at levels 5 and 6")),
        Check("gl-homogeneity", "lm:GLE", _check_gl_homogeneity,
              (6, 6, "runs once (n = 6)")),
        Check("duality-pairing", "lm:Duality", _check_duality_pairing,
              (2, None, "needs two gl indices"), (6, "windowed pairing bounded to n <= 6")),
    ],
}

KNOWN_ANCHORS = sorted({check.anchor for checks in _SUITES.values() for check in checks})


def suite_names() -> list[str]:
    return sorted(_SUITES) + ["all"]


def _crash_witness(exc: Exception) -> str:
    """exception: <type> in <innermost spinalg module.function>: <message>."""
    tb = exc.__traceback__  # starts at run_checks, so some frame matches
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("spinalg."):
            site = f"{module}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return f"exception: {type(exc).__name__} in {site}: {exc}"


def run_checks(suite: str, n_min: int, n_max: int, seed, samples: int, fail_fast: bool) -> list[CheckResult]:
    """Run the suite's checks at levels n_min..n_max; IndexRangeError unless
    1 <= n_min <= n_max <= DENSE_LEVEL_BOUND, the range the CLI accepts."""
    if not 1 <= n_min <= n_max <= tm.DENSE_LEVEL_BOUND:
        raise IndexRangeError(f"need 1 <= n-min <= n-max <= {tm.DENSE_LEVEL_BOUND}")
    names = sorted(_SUITES) if suite == "all" else [suite]
    results: list[CheckResult] = []
    for suite_name in names:
        for n in range(n_min, n_max + 1):
            for check in _SUITES[suite_name]:
                status, witness = "skipped", check.skip_reason(n)
                if witness is None:
                    try:
                        witness = check.fn(n, seed, samples)
                    except Exception as exc:  # a crash is a failure with a witness
                        witness = _crash_witness(exc)
                    status = "pass" if witness is None else "fail"
                results.append(
                    CheckResult(suite_name, n, check.name, check.anchor, status, witness)
                )
                if fail_fast and status == "fail":
                    return results
    return results
