"""Level-changing maps and the invariant pairing."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import transfer_maps as tm
from spinalg.errors import (
    IndexRangeError,
    NotIsotropicError,
    ResourceBoundError,
)

from conftest import make_rng, random_spin


class TestTowerMaps:
    def test_contraction_kills_top(self):
        n = 3
        x = sr.SpinVector.basis(n, [1, 3])
        assert tm.pi_last(x).is_zero()
        y = sr.SpinVector.basis(n, 0)
        assert tm.pi_last(y) == sr.SpinVector.basis(n - 1, 0)

    def test_pi_tau_identity_exhaustive(self):
        for n in range(0, 6):
            for m in range(1 << n):
                x = sr.SpinVector.basis(n, m)
                assert tm.pi_last(tm.tau_last(x)) == x

    def test_tau_is_index_preserving_inclusion(self):
        x = sr.SpinVector.basis(2, [1, 2])
        assert tm.tau_last(x) == sr.SpinVector.basis(3, [1, 2])

    def test_psi_appends_with_plus_sign(self):
        assert tm.psi_last(sr.SpinVector.basis(1, 0)) == sr.SpinVector.basis(2, [2])
        assert tm.psi_last(sr.SpinVector.basis(1, [1])) == sr.SpinVector.basis(2, [1, 2])

    def test_psi_injective(self, rng):
        x = random_spin(3, rng)
        if x.is_zero():
            x = sr.SpinVector.basis(3, 0)
        assert not tm.psi_last(x).is_zero()

    def test_psi_flips_parity(self, rng):
        x = random_spin(3, rng, "even")
        assert tm.psi_last(x).parity() == "odd"
        assert tm.pi_last(x).parity() in ("even",)
        assert tm.tau_last(x).parity() == "even"

    def test_tower_coherence(self, rng):
        for n in (2, 3, 4):
            x = random_spin(n, rng)
            up = tm.tau_tower(x, 6)
            assert tm.pi_tower(up, n) == x


class TestGeneralContraction:
    def test_top_coordinate_agrees_with_fast_path(self, rng):
        for n in (2, 3, 4):
            x = random_spin(n, rng)
            e = cc.VectorInV.basis(n, n)
            assert tm.pi_general(x, e) == tm.pi_last(x)

    def test_rejected_vectors(self):
        n = 3
        with pytest.raises(NotIsotropicError):
            tm.pi_general(sr.SpinVector.basis(n, 0), cc.VectorInV(n, [1], [1]))
        with pytest.raises(IndexRangeError):
            tm.pi_general(sr.SpinVector.basis(n, 0), cc.VectorInV.basis(n, -1))

    def test_linearity(self, rng):
        n = 3
        e = cc.VectorInV(n, [0, 1, 1], [0, 0, 0])
        x = random_spin(n, rng)
        y = random_spin(n, rng)
        assert tm.pi_general(x + y, e) == tm.pi_general(x, e) + tm.pi_general(y, e)

    def test_equivariance_over_the_perp(self, rng):
        # contraction intertwines the module action of vectors orthogonal to e
        n = 4
        e = cc.VectorInV(n, [1, 0, 2, 1], [0, 0, 0, 0])
        basis = tm.quotient_model_basis(e)
        for _ in range(6):
            x = random_spin(n, rng)
            # a random vector of e-perp: combination of the primed basis minus f'_n
            rows = basis.rows()
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(2 * n)]
            coeffs[2 * n - 1] = Fraction(0)  # exclude the partner of e
            v = cc.VectorInV.from_coords(
                n,
                [
                    sum((coeffs[k] * rows[k].coords()[c] for k in range(2 * n)), Fraction(0))
                    for c in range(2 * n)
                ],
            )
            vbar = tm.vector_in_quotient(v, e)
            lhs = tm.pi_general(sr.vector_action(v, x), e)
            rhs = sr.vector_action(vbar, tm.pi_general(x, e))
            assert lhs == rhs

    def test_conjugated_coordinate_exchange(self, rng):
        # e = e_{n-1} + e_n is the image of e_n under one explicit generator
        n = 4
        e = cc.VectorInV(n, [0, 0, 1, 1], [0, 0, 0, 0])
        u = sr.exp_nilpotent(n, "ef", n - 1, n, 1)
        bit = 1 << (n - 2)
        ratio = None
        for _ in range(8):
            x = random_spin(n, rng)
            lhs = tm.pi_general(u.apply(x), e)
            # transport of the contraction at e_n: negate the (n-1)-st index
            base = tm.pi_last(x)
            flipped = sr.SpinVector(
                n - 1,
                {m: (-c if m & bit else c) for m, c in base.terms.items()},
            )
            if flipped.is_zero():
                assert lhs.is_zero()
                continue
            for m, c in lhs.terms.items():
                r = c / flipped.terms[m]
                ratio = r if ratio is None else ratio
                assert r == ratio
            assert set(lhs.terms) == set(flipped.terms)
        assert ratio in (Fraction(1), Fraction(-1))

    def test_cone_image_lands_in_the_stabilized_line(self, rng):
        # pi_e(omega_H) vanishes exactly when e lies in H, else spans S_{H_e}
        n = 3
        for t in range(6):
            h = gc.random_maximal_isotropic(n, f"line:{t}")
            omega = gc.omega_of(h)
            e_in = h.vectors()[0]
            if any(c != 0 for c in e_in.e):
                assert tm.pi_general(omega, e_in).is_zero()
            e = cc.VectorInV(n, [1, Fraction(t), 1], [0, 1, -1])
            if cc.quadratic_value(e) != 0 or all(c == 0 for c in e.e):
                continue
            img = tm.pi_general(omega, e)
            assert h.contains(e) == img.is_zero()
            if not img.is_zero():
                assert gc.is_pure(img).kind == "pure"


class TestBeta:
    def test_level_one_values(self):
        f0 = sr.SpinVector.basis(1, 0)
        e1f = sr.SpinVector.basis(1, [1])
        assert tm.beta(f0, e1f) == 2
        assert tm.beta(f0, f0) == 0
        assert tm.beta_gram(1) == [
            [Fraction(0), Fraction(2)],
            [Fraction(2), Fraction(0)],
        ]

    def test_level_two_skew_nonsingular(self):
        g = tm.beta_gram(2)
        assert linalg.rank(g) == 4
        for a in range(4):
            for b in range(4):
                assert g[a][b] == -g[b][a]

    def test_level_four_symmetric_even_block(self):
        g = tm.beta_gram(4)
        for a in range(16):
            for b in range(16):
                assert g[a][b] == g[b][a]
        ev = [m for m in range(16) if bin(m).count("1") % 2 == 0]
        block = [[g[a][b] for b in ev] for a in ev]
        assert linalg.rank(block) == len(ev)

    def test_odd_level_blocks_are_cross_dual(self):
        g = tm.beta_gram(3)
        for a in range(8):
            for b in range(8):
                if bin(a).count("1") % 2 == bin(b).count("1") % 2:
                    assert g[a][b] == 0

    def test_invariance_and_dual_route(self, rng):
        n = 3
        for t in range(6):
            g = sr.random_group_element(n, f"binv:{t}", 5)
            x = random_spin(n, rng)
            y = random_spin(n, rng)
            assert tm.beta(g.apply(x), g.apply(y)) == tm.beta(x, y)
            assert tm.beta(x, y) == tm.beta_direct(x, y)

    def test_gram_bound(self):
        with pytest.raises(ResourceBoundError):
            tm.beta_gram(7)


class TestDualityResidual:
    def test_exhaustive_small_levels(self):
        for n in (2, 3, 4):
            for am in range(1 << (n - 1)):
                a = sr.SpinVector.basis(n - 1, am)
                for xm in range(1 << n):
                    assert tm.psidual_residual(a, sr.SpinVector.basis(n, xm)) == 0

    def test_random_dense_level_five(self, rng):
        for _ in range(25):
            a = random_spin(4, rng)
            x = random_spin(5, rng)
            assert tm.psidual_residual(a, x) == 0
