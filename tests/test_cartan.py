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
from spinalg.errors import GenericityError, LevelMismatchError, SpinalgError

from conftest import (
    make_rng,
    oracle_half_pair,
    oracle_induced_map,
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
        # every pair at every level; |S ^ T| odd gives nothing on either side
        for s in range(1 << n):
            for t in range(1 << n):
                assert ca._half_pair(n, s, t) == oracle_half_pair(n, s, t), (n, s, t)

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
