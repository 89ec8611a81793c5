"""The quadratic spinor-to-wedge map, its commuting diagrams, and the
level-lowering factorization of contracted group actions."""

from fractions import Fraction

import pytest

from spinalg import cartan as ca
from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import transfer_maps as tm
from spinalg.errors import GenericityError, LevelMismatchError, SpinalgError, StructureError

from conftest import (
    make_rng,
    oracle_second_factor_matrix,
    oracle_verify_intertwining,
    oracle_contract_top,
    oracle_diagram_pi_residual,
    oracle_diagram_tau_residual,
    oracle_exterior_audit,
    oracle_half_pair,
    oracle_half_pair_walk,
    oracle_induced_map,
    oracle_mult_top,
    oracle_nu2,
    random_exterior,
    random_isotropic,
    random_spin,
    random_vector,
)


class TestNu2:
    def test_f_side_base_point(self):
        n = 3
        x = sr.SpinVector.basis(n, 0)  # the pure spinor of F, k = n
        assert ca.nu2(x) == cc.ExteriorVector(n, {((1 << n) - 1) << n: Fraction(1)})

    def test_quadratic_homogeneity(self, rng):
        n = 3
        x = random_spin(n, rng)
        t = Fraction(-7, 3)
        assert ca.nu2(x.scale(t)) == ca.nu2(x).scale(t * t)

    def test_scalar_against_pluecker(self):
        for n in (2, 3, 4):
            for emask in range(1 << n):
                h = gc.coordinate_subspace(n, emask)
                k = gc.adapted_basis(h).k
                assert ca.nu2(gc.omega_of(h)) == gc.pluecker(h).scale(
                    Fraction(2) ** (n - k)
                )
        for t in range(6):
            h = gc.random_maximal_isotropic(4, f"nu:{t}")
            k = gc.adapted_basis(h).k
            assert ca.nu2(gc.omega_of(h)) == gc.pluecker(h).scale(Fraction(2) ** (4 - k))

    def test_matches_clifford_oracle(self):
        # dense fractional (at level 7 on half the masks, mixed parity, to
        # keep the oracle's time down), parity-pure, single-term, zero and
        # pure points
        for n in range(1, 8):
            rng = make_rng(f"nu2-oracle:{n}")
            masks = range(1 << n) if n < 7 else rng.sample(range(1 << n), 1 << (n - 1))
            points = [
                sr.SpinVector(
                    n, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in masks}
                ),
                random_spin(n, rng, "even"),
                random_spin(n, rng, "odd"),
                sr.SpinVector(n, {rng.randrange(1 << n): Fraction(-3, 7)}),
                sr.SpinVector.zero(n),
                gc.omega_of(gc.coordinate_subspace(n, rng.randrange(1 << n))),
            ]
            if n > 1:
                h = gc.random_maximal_isotropic(n, f"nu2-oracle:{n}")
                points.append(gc.omega_of(h))
            for x in points:
                assert ca.nu2(x) == oracle_nu2(x)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_half_pair_closed_form_matches_letter_word(self, n):
        # every pair at every level; |S ^ T| odd gives nothing on either side;
        # B_n is symmetric, which _nu2_pair relies on to read one half-pair
        for s in range(1 << n):
            for t in range(1 << n):
                got = ca._half_pair(n, s, t)
                assert got == oracle_half_pair(n, s, t), (n, s, t)
                assert got == oracle_half_pair_walk(n, s, t), (n, s, t)
                assert got == ca._half_pair(n, t, s), (n, s, t)

    def test_cone_image_is_decomposable(self):
        for n in (3, 4):
            for t in range(4):
                x = gc.sample_cone_point(n, f"dec:{t}")
                assert ca.is_decomposable(ca.nu2(x))


class TestContraction:
    def test_pairs_only_with_partner(self):
        n = 3
        # e_1 ^ ... ^ e_{n-1} ^ f_n contracts to +- the e-block
        mask = ((1 << (n - 1)) - 1) | (1 << (2 * n - 1))
        omega = cc.ExteriorVector(n, {mask: Fraction(1)})
        out = ca.contract_ce(omega, cc.VectorInV.basis(n, n), cc.VectorInV.basis(n, -n))
        sign = (-1) ** (n - 1)
        assert out == cc.ExteriorVector(n - 1, {(1 << (n - 1)) - 1: Fraction(sign)})

    def test_no_partner_kills(self):
        n = 3
        omega = cc.ExteriorVector(n, {(1 << n) - 1: Fraction(1)})
        assert ca.contract_ce(
            omega, cc.VectorInV.basis(n, n), cc.VectorInV.basis(n, -n)
        ).is_zero()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_coordinate_pair_moves_match_the_kernel(self, n):
        # every mask of level n (and n-1), so that the dropped f_n, the
        # killed e_n and both signs are all reached
        rng = make_rng(f"coordinate-moves:{n}")
        e, h = cc.VectorInV.basis(n, n), cc.VectorInV.basis(n, -n)
        for size in (n, n - 1):
            for den in (1, 3):
                omega = cc.ExteriorVector(
                    size, {m: Fraction(rng.randint(1, 4), den) for m in range(1 << (2 * size))}
                )
                if size == n:
                    assert ca.contract_ce(omega, e, h) == oracle_contract_top(omega)
                    assert ca.contract_ce(omega, e) == oracle_contract_top(omega)
                else:
                    assert ca.mult_mh(omega, h) == oracle_mult_top(omega)

    def test_section_identity(self, rng):
        n = 4
        e = cc.VectorInV.basis(n, n)
        h = cc.VectorInV.basis(n, -n)
        for _ in range(8):
            vecs = [random_vector(n - 1, rng) for _ in range(n - 1)]
            omega = cc.wedge_of_vectors(n - 1, vecs)
            if omega.is_zero():
                continue
            assert ca.contract_ce(ca.mult_mh(omega, h), e, h) == omega

    def test_multiple_then_contract_on_divisible(self, rng):
        # on an h-divisible wedge the composite returns the wedge itself
        n = 3
        e = cc.VectorInV.basis(n, n)
        h = cc.VectorInV.basis(n, -n)
        low = cc.wedge_of_vectors(n - 1, [random_vector(n - 1, rng) for _ in range(n - 1)])
        omega = ca.mult_mh(low, h)
        if not omega.is_zero():
            assert ca.mult_mh(ca.contract_ce(omega, e, h), h) == omega

    def test_general_vector_contraction(self, rng):
        # a non-coordinate isotropic vector with partner in the fixed half
        n = 3
        e = cc.VectorInV(n, [0, 1, 1], [0, 0, 0])
        h = cc.VectorInV(n, [0, 0, 0], [0, 0, 1])
        assert cc.pairing(e, h) == 1
        for _ in range(5):
            # c_e(m_h(omega)) = omega needs omega expressed in the quotient model
            omega = cc.ExteriorVector(
                n - 1,
                {rng.randrange(1 << (2 * (n - 1))): Fraction(rng.randint(-2, 2)) for _ in range(3)},
            )
            omega = omega.degree_component(n - 1)
            if omega.is_zero():
                continue
            assert ca.contract_ce(ca.mult_mh(omega, h, e), e, h) == omega

    def test_rejects_anisotropic(self):
        with pytest.raises(Exception):
            ca.contract_ce(
                cc.ExteriorVector.unit(2), cc.VectorInV(2, [1], [1]), None
            )

    def test_rejects_vector_of_other_level(self):
        # rejected when contracting, before a change of basis can misreport it
        with pytest.raises(LevelMismatchError):
            ca.contract_ce(cc.ExteriorVector(3, {0b000111: 1}), cc.VectorInV.basis(2, 2))

    def test_rejects_partner_of_other_level(self):
        # a level-2 omega needs its partner at level 3
        omega = cc.ExteriorVector(2, {0b0011: Fraction(1)})
        for level in (2, 4):
            with pytest.raises(LevelMismatchError, match="target level"):
                ca.mult_mh(omega, cc.VectorInV.basis(level, -level))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_general_partner_against_per_monomial_oracle(self, n):
        rng = make_rng(f"mult-mh:{n}")
        e = random_isotropic(n, rng)
        h = gc.hyperbolic_basis_through(e).new_f[-1]
        basis = gc.hyperbolic_basis_through(e, h)
        # bit b of level n-1 is e'_(b+1) below n-1, f'_(b-n+2) from there on
        images = list(basis.new_e[:-1]) + list(basis.new_f[:-1])
        for den in (1, 2):
            omega = random_exterior(n - 1, rng, nterms=6, den=den)
            got = ca.mult_mh(omega, h, e)
            assert got == oracle_induced_map(omega, images, front=[h])
            assert ca.contract_ce(got, e, h) == omega


class TestDiagrams:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for m in range(1 << n):
                x = sr.SpinVector.basis(n, m)
                assert ca.diagram_pi_residual(x).is_zero()
                assert ca.diagram_tau_residual(x).is_zero()

    def test_dense_parity_pure(self, rng):
        for n in (3, 4):
            for parity in ("even", "odd"):
                for _ in range(5):
                    x = random_spin(n, rng, parity)
                    if x.is_zero():
                        continue
                    assert ca.diagram_pi_residual(x).is_zero()
                    assert ca.diagram_tau_residual(x).is_zero()

    def test_mixed_parity_rejected(self):
        x = sr.SpinVector(2, {0: Fraction(1), 1: Fraction(1)})
        with pytest.raises(SpinalgError):
            ca.diagram_pi_residual(x)

    def test_tau_mixed_parity_rejected(self):
        x = sr.SpinVector(2, {0: Fraction(1), 1: Fraction(1)})
        with pytest.raises(SpinalgError):
            ca.diagram_tau_residual(x)

    @staticmethod
    def residual_points(n):
        """Parity-pure points at level n: dense fractional, dense integer,
        sparse and single-term points of both parities, and orbit points
        from level 2 on."""
        rng = make_rng(f"residual:{n}")
        points = []
        for parity in (0, 1):
            masks = [m for m in range(1 << n) if m.bit_count() & 1 == parity]
            dense = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in masks}
            sparse = {
                m: Fraction(rng.randint(1, 5), rng.randint(1, 4))
                for m in rng.sample(masks, min(3, len(masks)))
            }
            points.append(sr.SpinVector(n, dense))
            points.append(random_spin(n, rng, ("even", "odd")[parity]))
            points.append(sr.SpinVector(n, sparse))
            points.append(sr.SpinVector(n, {rng.choice(masks): Fraction(-3, 7)}))
        if n > 1:  # words need a root
            points += [gc.sample_cone_point(n, f"residual:{n}:{t}", length=1 + t) for t in range(3)]
        return [x for x in points if not x.is_zero()]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_residuals_match_the_fraction_oracles(self, n):
        for x in self.residual_points(n):
            assert ca.diagram_pi_residual(x) == oracle_diagram_pi_residual(x)
            assert ca.diagram_tau_residual(x) == oracle_diagram_tau_residual(x)

    @pytest.mark.parametrize("breakage", ["sign", "transfer"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_nonzero_residuals_match_the_fraction_oracles(self, n, breakage, monkeypatch):
        # a broken build makes the residuals nonzero: a flipped sign
        # convention, or pi and tau that lose the lowest term of their image
        # (so that each side has masks the other lacks).  The oracles read
        # the same patched functions, so the residuals are compared term by
        # term.
        if breakage == "sign":
            original = ca._parity_sign
            monkeypatch.setattr(ca, "_parity_sign", lambda n, p: -original(n, p))
        else:
            for name in ("pi_last", "tau_last"):
                def lossy(x, transfer=getattr(tm, name)):
                    y = transfer(x)
                    return sr.SpinVector(y.n, dict(sorted(y.terms.items())[1:]))

                monkeypatch.setattr(tm, name, lossy)
        nonzero = 0
        for x in self.residual_points(n):
            for residual, oracle in (
                (ca.diagram_pi_residual, oracle_diagram_pi_residual),
                (ca.diagram_tau_residual, oracle_diagram_tau_residual),
            ):
                got = residual(x)
                assert got == oracle(x)
                nonzero += not got.is_zero()
        assert nonzero


class TestInjectivity:
    def test_highest_weight_image(self):
        v = ca.injectivity_witness(sr.SpinVector.omega0(3), sr.SpinVector.omega0(3))
        assert v.ok

    def test_distinct_annihilators_distinct_lines(self):
        x = gc.sample_cone_point(4, "ia")
        y = gc.sample_cone_point(4, "ib")
        assert gc.annihilator(x) != gc.annihilator(y)
        assert ca.injectivity_witness(x, y).ok

    def test_proportional_inputs_are_fine(self):
        x = gc.sample_cone_point(4, "ic")
        assert ca.injectivity_witness(x, x.scale(Fraction(3, 7))).ok

    def test_zero_rejected(self):
        with pytest.raises(SpinalgError):
            ca.injectivity_witness(sr.SpinVector.zero(3), sr.SpinVector.omega0(3))

    def test_spinors_of_two_levels_rejected(self):
        # both images are nonzero and neither pair is proportional, so the
        # verdict read ok=True before the level check
        with pytest.raises(LevelMismatchError, match=r"^levels differ: 4 vs 5$"):
            ca.injectivity_witness(sr.SpinVector.basis(4, 0), sr.SpinVector.basis(5, 0))


class TestLowerFactorization:
    def test_identity_everywhere(self):
        res = ca.lower_factorization(4, 4, 4, sr.GroupElement.identity(4))
        assert res.scalar == 1
        assert res.det_second == 1
        size = len(res.even_masks_n0)
        assert res.g_second_even == tuple(
            tuple(Fraction(1) if r == c else Fraction(0) for c in range(size))
            for r in range(size)
        )

    @pytest.mark.parametrize("cfg", [(5, 5, 4), (6, 5, 4), (6, 6, 4)])
    def test_random_generic(self, cfg):
        q, n, n0 = cfg
        res, g, failures = ca.sample_lower_factorization(
            q, n, n0, seed=f"t:{cfg}", exterior_audit=(q == 5)
        )
        assert res.det_second == 1
        # the identity was verified inside; reconfirm on a few basis vectors
        masks = res.even_masks_n
        u = [
            [res.scalar * x for x in row] for row in res.g_second_even
        ]
        idx0 = {m: i for i, m in enumerate(res.even_masks_n0)}
        for mask in masks[:4]:
            x = sr.SpinVector.basis(n, mask)
            lhs = tm.pi_tower(g.apply(tm.tau_tower(x, q)), n0)
            mid = tm.pi_tower(res.g_prime.apply(x), n0)
            mid_col = [Fraction(0)] * len(idx0)
            for m, c in mid.terms.items():
                mid_col[idx0[m]] = c
            rhs_col = linalg.matvec(u, mid_col)
            lhs_col = [Fraction(0)] * len(idx0)
            for m, c in lhs.terms.items():
                lhs_col[idx0[m]] = c
            assert lhs_col == rhs_col

    def test_genericity_failure_reported(self):
        # an element mapping the top e-block into the middle level on purpose
        n, q, n0 = 5, 6, 4
        sub = gc.check_isotropic(
            [cc.VectorInV.basis(q, 4), cc.VectorInV.basis(q, 5)], q
        )
        w = gc.element_moving_to_coordinate_top(sub)
        # w sends span(e_4, e_5) to span(e_5, e_6); its inverse image of the
        # top block lies inside V_5, breaking the expected dimension count
        with pytest.raises(GenericityError) as err:
            ca.lower_factorization(q, n, n0, w, seed=3)
        assert err.value.suggested_seed == 4

    def test_genericity_failure_with_string_seed(self):
        # the suites pass tagged string seeds such as "0:0"; those must raise
        # GenericityError (so sampling resamples), not a TypeError
        q, n, n0 = 6, 5, 4
        sub = gc.check_isotropic(
            [cc.VectorInV.basis(q, 4), cc.VectorInV.basis(q, 5)], q
        )
        w = gc.element_moving_to_coordinate_top(sub)
        with pytest.raises(GenericityError) as err:
            ca.lower_factorization(q, n, n0, w, seed="0:0")
        assert err.value.suggested_seed is None

    def test_bottom_level_bound(self):
        with pytest.raises(Exception):
            ca.lower_factorization(4, 4, 3, sr.GroupElement.identity(4))


@pytest.fixture(scope="module")
def factorization_calls():
    """The arguments of every _second_factor_matrix, _verify_intertwining and
    _exterior_audit call of real factorizations at (5, 5, 4), (6, 5, 4) and
    (6, 6, 4), three seeds each, the first with the exterior audit."""
    calls = {"_second_factor_matrix": [], "_verify_intertwining": [], "_exterior_audit": []}

    def recorder(real, record):
        def recorded(*args):
            record.append(args)
            return real(*args)

        return recorded

    patch = pytest.MonkeyPatch()
    for name, record in calls.items():
        patch.setattr(ca, name, recorder(getattr(ca, name), record))
    try:
        for cfg in [(5, 5, 4), (6, 5, 4), (6, 6, 4)]:
            for seed in range(3):
                ca.sample_lower_factorization(*cfg, seed=f"audit:{seed}", exterior_audit=seed == 0)
    finally:
        patch.undo()
    assert len(calls["_verify_intertwining"]) == 9
    assert len(calls["_exterior_audit"]) == 3
    return calls


def outcome(audit, args):
    """None when the audit passes, else the error's type and message."""
    try:
        audit(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestFactorizationAudits:
    def test_bottom_factor_matches_the_per_column_solves(self, factorization_calls):
        for args in factorization_calls["_second_factor_matrix"]:
            assert ca._second_factor_matrix(*args) == oracle_second_factor_matrix(*args)

    def test_intertwining_passes_like_the_oracle(self, factorization_calls):
        for n0, u, m, m_inv, masks in factorization_calls["_verify_intertwining"]:
            assert m_inv == linalg.inverse(m)
            assert outcome(ca._verify_intertwining, (n0, u, m, m_inv, masks)) is None
            assert outcome(oracle_verify_intertwining, (n0, u, m, masks)) is None

    def test_intertwining_mutants_rejected_like_the_oracle(self, factorization_calls):
        rng = make_rng("intertwining-mutants")
        calls = factorization_calls["_verify_intertwining"]
        seen = set()
        for t, (n0, u, m, m_inv, masks) in enumerate(calls):
            r, c = rng.randrange(len(u)), rng.randrange(len(u))
            bumped = [list(row) for row in u]
            bumped[r][c] += Fraction(1, 3)
            rescaled = [list(row) for row in u]
            rescaled[r] = [2 * x for x in rescaled[r]]
            # another word's bottom factor: it preserves the form too
            other, other_inv = next(args[2:4] for args in calls[t + 1 :] + calls[:t] if args[2] != m)
            sheared = [list(row) for row in m]
            sheared[r % len(m)][c % len(m)] += 1
            for mutant in ((n0, bumped, m, m_inv, masks), (n0, rescaled, m, m_inv, masks),
                           (n0, u, other, other_inv, masks),
                           (n0, u, sheared, linalg.inverse(sheared), masks)):
                got = outcome(ca._verify_intertwining, mutant)
                assert got is not None
                assert got == outcome(oracle_verify_intertwining, mutant[:3] + mutant[4:])
                seen.add(got)
        assert (StructureError, "bottom factor fails the conjugation audit") in seen
        assert (StructureError, "matrix is not skew with respect to the split form") in seen

    def test_exterior_audit_matches_the_oracle(self, factorization_calls):
        for args in factorization_calls["_exterior_audit"]:
            assert ca._exterior_audit(*args) == oracle_exterior_audit(*args)

    def test_exterior_audit_rejects_another_bottom_factor(self, factorization_calls):
        # another word's bottom factor preserves the form, but does not carry
        # the middle level's images onto the lowered ones
        factors = [args[2] for args in factorization_calls["_verify_intertwining"]]
        expected = (StructureError, "exterior audit: sides are not proportional")
        for args in factorization_calls["_exterior_audit"]:
            other = next(m for m in factors if m != args[5])
            mutant = args[:5] + (other,) + args[6:]
            assert outcome(ca._exterior_audit, mutant) == expected
            assert outcome(oracle_exterior_audit, mutant) == expected

    def test_sheared_bottom_factor_breaks_the_form(self, monkeypatch):
        real = ca._second_factor_matrix

        def sheared(*args):
            m = [list(row) for row in real(*args)]
            m[0][0] += 1
            return m

        monkeypatch.setattr(ca, "_second_factor_matrix", sheared)
        with pytest.raises(StructureError, match="^bottom factor does not preserve the form$"):
            ca.sample_lower_factorization(5, 5, 4, seed="shear")
