"""Acceptance criteria: every explicitly computable identity checked in
exact rational arithmetic, zero tolerance.  One printed line per criterion."""

from fractions import Fraction

import pytest

from spinalg import cartan as ca
from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import transfer_maps as tm
from spinalg.errors import GenericityError

from conftest import make_rng, random_spin, random_vector


def report(k, text):
    print(f"ACCEPTANCE {k:2d}: PASS  {text}")


def test_criterion_01_clifford_axioms():
    for n in (1, 2, 3, 4):
        entries = {}
        mask_index = {}
        col = 0
        for em in range(1 << n):
            for fm in range(1 << n):
                img = cc.act_on_exterior(
                    cc.CliffordElement(n, {(em, fm): Fraction(1)}),
                    cc.ExteriorVector.unit(n),
                )
                for mask, val in img.terms.items():
                    r = mask_index.setdefault(mask, len(mask_index))
                    entries.setdefault(r, {})[col] = val
                col += 1
        assert linalg.sparse_rank(list(entries.values())) == 4**n
    rng = make_rng("acc1")
    n = 4
    checked = 0
    for t in range(50):  # generic vectors
        v = random_vector(n, rng)
        vc = v.as_clifford()
        assert cc.mul(vc, vc) == cc.CliffordElement.unit(n).scale(cc.quadratic_value(v))
        checked += 1
    for t in range(50):  # isotropic vectors from sampled maximal subspaces
        h = gc.random_maximal_isotropic(n, f"acc1:{t}")
        v = h.vectors()[t % n]
        assert cc.quadratic_value(v) == 0
        vc = v.as_clifford()
        assert cc.mul(vc, vc).is_zero()
        checked += 1
    assert checked == 100
    report(1, "module map bijective (rank 4^n, n <= 4); v*v = q(v) on 100 vectors")


def test_criterion_02_action_facts():
    for n in (2, 3, 4):
        w0 = sr.SpinVector.omega0(n)
        w1 = sr.SpinVector.omega1(n)
        for i in range(1, n + 1):
            assert sr.rho_so(sr.SoElement.basis_ef(n, i, i), w0) == w0.scale(
                Fraction(1, 2)
            )
        for i in range(1, n):
            assert sr.rho_so(sr.SoElement.chevalley_h(n, i), w0).is_zero()
        assert sr.rho_so(sr.SoElement.chevalley_h(n, n), w0) == w0
        assert sr.rho_so(sr.SoElement.chevalley_h(n, n - 1), w1) == w1
        assert sr.rho_so(sr.SoElement.chevalley_h(n, n), w1).is_zero()
        forms = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                forms.append(sr.SoElement.basis_ee(n, i, j))
                forms.append(sr.SoElement.basis_ff(n, i, j))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                forms.append(sr.SoElement.basis_ef(n, i, j))
        basis = [sr.SpinVector.basis(n, m) for m in range(1 << n)]
        for x in forms:
            for y in forms:
                z = sr.so_bracket(x, y)
                for b in basis:
                    assert sr.rho_so(z, b) == sr.rho_so(x, sr.rho_so(y, b)) - sr.rho_so(
                        y, sr.rho_so(x, b)
                    )
    report(2, "highest-weight action facts and bracket compatibility, n <= 4")


def test_criterion_03_twist():
    rng = make_rng("acc3")
    for n in (1, 2, 3, 4, 5):
        for _ in range(50):
            ef = {
                (i, j): Fraction(rng.randint(-3, 3))
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            }
            assert sr.gl_twist_residual(sr.SoElement(n, ef=ef)).is_zero()
    report(3, "gl twist residual vanishes for 50 random elements per level, n <= 5")


def test_criterion_04_pi_tau_and_equivariance():
    for n in range(1, 7):
        for m in range(1 << n):
            x = sr.SpinVector.basis(n, m)
            assert tm.pi_last(tm.tau_last(x)) == x
    for n in (2, 3, 4, 5):
        for kind, i, j in sr.all_root_vectors(n - 1):
            for t in (Fraction(1), Fraction(-3, 2)):
                g_low = sr.exp_nilpotent(n - 1, kind, i, j, t)
                g_high = sr.exp_nilpotent(n, kind, i, j, t)
                for m in range(1 << n):
                    x = sr.SpinVector.basis(n, m)
                    assert tm.pi_last(g_high.apply(x)) == g_low.apply(tm.pi_last(x))
                for m in range(1 << (n - 1)):
                    x = sr.SpinVector.basis(n - 1, m)
                    assert tm.tau_last(g_low.apply(x)) == g_high.apply(tm.tau_last(x))
    report(4, "pi o tau = id exhaustively (n <= 6); generator equivariance (n <= 5)")


def test_criterion_05_gram():
    for n in range(1, 7):
        g = tm.beta_gram(n)
        size = 1 << n
        assert linalg.rank([list(r) for r in g]) == size
        sym = n % 4 in (0, 1)
        for a in range(size):
            for b in range(size):
                assert g[a][b] == (g[b][a] if sym else -g[b][a])
                pa, pb = bin(a).count("1") % 2, bin(b).count("1") % 2
                cross_zero = (pa == pb) if n % 2 == 1 else (pa != pb)
                if cross_zero:
                    assert g[a][b] == 0
        ev = [m for m in range(size) if bin(m).count("1") % 2 == 0]
        od = [m for m in range(size) if bin(m).count("1") % 2 == 1]
        if n % 2 == 0:
            assert linalg.rank([[g[a][b] for b in ev] for a in ev]) == len(ev)
            assert linalg.rank([[g[a][b] for b in od] for a in od]) == len(od)
        else:
            assert linalg.rank([[g[a][b] for b in od] for a in ev]) == len(ev)
    report(5, "pairing Gram nondegenerate with the mod-4 symmetry pattern, n <= 6")


def test_criterion_06_duality_residual():
    for n in (2, 3, 4):
        for am in range(1 << (n - 1)):
            a = sr.SpinVector.basis(n - 1, am)
            for xm in range(1 << n):
                assert tm.psidual_residual(a, sr.SpinVector.basis(n, xm)) == 0
    rng = make_rng("acc6")
    for _ in range(100):
        a = random_spin(4, rng)
        x = random_spin(5, rng)
        assert tm.psidual_residual(a, x) == 0
    report(6, "dual-contraction residual zero on full bases (n = 2..4) and 100 dense pairs (n = 5)")


def test_criterion_07_stabilized_lines():
    def check(h):
        n = h.n
        omega = gc.omega_of(h)
        assert gc.annihilator(omega) == h
        rows = []
        for v in h.vectors():
            cols = [
                sr.vector_action(v, sr.SpinVector.basis(n, m)) for m in range(1 << n)
            ]
            for mask in range(1 << n):
                rows.append([col.coefficient(mask) for col in cols])
        assert len(linalg.nullspace(rows)) == 1

    for n in (1, 2, 3, 4, 5):
        for emask in range(1 << n):
            check(gc.coordinate_subspace(n, emask))
    count = 0
    for n in (2, 3, 4, 5):
        for t in range(25):
            check(gc.random_maximal_isotropic(n, f"acc7:{n}:{t}"))
            count += 1
    assert count == 100
    report(7, "S_H is a line and H recovers from it: all coordinate H (n <= 5) + 100 random")


def test_criterion_08_cartan_scalar():
    for n in (1, 2, 3, 4, 5):
        for emask in range(1 << n):
            h = gc.coordinate_subspace(n, emask)
            k = gc.adapted_basis(h).k
            assert ca.nu2(gc.omega_of(h)) == gc.pluecker(h).scale(Fraction(2) ** (n - k))
    count = 0
    for n in (2, 3, 4, 5):
        reps = 13 if n == 5 else 13 if n == 4 else 12
        for t in range(reps):
            h = gc.random_maximal_isotropic(n, f"acc8:{n}:{t}")
            k = gc.adapted_basis(h).k
            assert ca.nu2(gc.omega_of(h)) == gc.pluecker(h).scale(Fraction(2) ** (n - k))
            count += 1
    assert count == 50
    report(8, "image of omega_H is 2^(n-k) times the adapted wedge, exactly")


def test_criterion_09_diagrams():
    for n in (1, 2, 3):
        for m in range(1 << n):
            x = sr.SpinVector.basis(n, m)
            assert ca.diagram_pi_residual(x).is_zero()
            assert ca.diagram_tau_residual(x).is_zero()
    rng = make_rng("acc9")
    for n in (4, 5):
        for t in range(50):
            for parity in ("even", "odd"):
                x = random_spin(n, rng, parity)
                assert ca.diagram_pi_residual(x).is_zero()
                y = random_spin(n - 1, rng, parity)
                assert ca.diagram_tau_residual(y).is_zero()
    report(9, "both Cartan diagrams vanish with the (-1)^(n-1)/(-1)^n signs, dense n = 4,5")


def test_criterion_10_membership_certification():
    # level 5: family of 64, plus the exact degree-2 span comparison
    fam5 = ie.orbit_pullback_family(5, "acc10", 64)
    for t in range(100):
        x = gc.sample_cone_point(5, f"acc10:on:{t}", length=10)
        assert ie.certify_membership(x, fam5).passes
    for t in range(100):
        x = ie.off_cone_sample(5, f"acc10:off:{t}")
        assert not ie.certify_membership(x, fam5).passes

    variables = ie.component_variables(5)
    monos = ie.monomials_of_degree(variables, 2)
    idx = {m: i for i, m in enumerate(monos)}

    def rowof(p):
        row = [Fraction(0)] * len(monos)
        for mn, c in p.terms.items():
            row[idx[mn]] = c
        return row

    pts = ie.cone_points(5, "acc10:pts", 3 * len(monos))
    forms = ie.vanishing_forms(pts, 2)
    fam_rows = [rowof(m.quadric) for m in fam5.members]
    van_rows = [rowof(f) for f in forms]
    r_fam = linalg.rank(fam_rows)
    r_van = linalg.rank(van_rows)
    r_joint = linalg.rank(fam_rows + van_rows)
    assert r_fam == r_van == r_joint

    # level 6: a larger family, same double-oracle agreement
    fam6 = ie.orbit_pullback_family(6, "acc10", 120)
    for t in range(100):
        x = gc.sample_cone_point(6, f"acc10:on6:{t}", length=10)
        assert ie.certify_membership(x, fam6).passes
    for t in range(100):
        x = ie.off_cone_sample(6, f"acc10:off6:{t}")
        assert not ie.certify_membership(x, fam6).passes
    report(
        10,
        f"membership certificates agree with the purity oracle (0 disagreements in 400); "
        f"degree-2 span equality at level 5 (dim {r_van})",
    )


def test_criterion_11_quadric_discovery():
    forms, prov = ie.stable_vanishing_forms(4, 2, "acc11")
    assert len(forms) == 1
    quad = ie.i4_quadric()
    norm = ie.beta_norm_quadric(4)
    assert cc._proportional(quad.terms, norm.terms)
    rng = make_rng("acc11")
    ratio = None
    seen = 0
    for _ in range(20):
        x = random_spin(4, rng, "even")
        qv = ie.eval_poly(quad, x)
        bv = tm.beta(x, x)
        if qv == 0:
            assert bv == 0
            continue
        r = bv / qv
        if ratio is None:
            ratio = r
        assert r == ratio
        seen += 1
    assert seen >= 15
    report(11, "level-4 degree-2 slice is one quadric, pairing-norm proportional")


def test_criterion_12_lowering_machinery():
    rng = make_rng("acc12")
    vars_pool = [m for m in range(1 << 6) if bin(m).count("1") % 2 == 0]
    done = 0
    while done < 19:
        deg = rng.choice([2, 3])
        terms = {}
        for _ in range(rng.choice([3, 4])):
            mono = tuple(sorted(rng.choice(vars_pool) for _ in range(deg)))
            terms[mono] = Fraction(rng.randint(-3, 3))
        p = ie.Polynomial(True, -1, terms)
        if p.is_zero():
            continue
        k = max(v.filtration for v in p.variables())
        window = k + 2 if k + 2 >= 6 else 6
        if window % 2:
            window += 1
        if window > 8:
            continue
        tr = ie.degree_lowering_trace(p, window)
        main = (ie.Polynomial.variable(tr.top_var) * tr.q).scale(tr.scalar)
        assert tr.final() == main + tr.remainder
        assert all(v.filtration < window for v in tr.remainder.variables())
        done += 1
    # the embedded level-4 quadric at level 6: one step exactly
    p = ie.i4_quadric().to_limit()
    tr = ie.degree_lowering_trace(p, 6)
    assert tr.ell == 1
    main = (ie.Polynomial.variable(tr.top_var) * tr.q).scale(tr.scalar)
    assert tr.final() == main + tr.remainder
    # solving elements with the displayed shape and a symbolic membership audit
    for target in ((1 << 6) - 1, 0b1011111):
        sol = ie.produce_solving_element(tr, target, 8)
        shape = (
            ie.Polynomial.variable(sol.target) * ie.q_power(sol.q, sol.power)
        ).scale(sol.scalar)
        assert sol.element == shape + sol.remainder
        mult = ie.ideal_membership(sol.element, list(sol.generators))
        assert mult is not None
        recon = ie.Polynomial.zero_limit()
        for m_, g_ in zip(mult, sol.generators):
            recon = recon + m_ * g_
        assert recon == sol.element
    loc = ie.assemble_localized(tr, (1 << 8) - 1, 8)
    assert all(v.filtration <= 4 for v in loc.s.variables())
    report(12, "20 lowering traces decompose exactly; solving elements audited symbolically")


def test_criterion_13_lower_factorization():
    total_failures = 0
    for cfg in ((5, 5, 4), (6, 5, 4), (6, 6, 4)):
        q, n, n0 = cfg
        produced = 0
        attempts = 0
        seed_tag = 0
        while produced < 10:
            g = sr.random_group_element(q, f"acc13:{cfg}:{seed_tag}", 8)
            seed_tag += 1
            attempts += 1
            assert attempts < 200
            try:
                res = ca.lower_factorization(
                    q, n, n0, g, seed=seed_tag, exterior_audit=(produced == 0 and q <= 6)
                )
            except GenericityError as exc:
                total_failures += 1
                print(f"  resampled {cfg}: {exc}")
                continue
            assert res.det_second == 1
            assert res.scalar != 0
            produced += 1
    report(
        13,
        f"factorization identity exact for 10 generic elements per configuration "
        f"({total_failures} genericity resamples reported)",
    )
