"""Isotropic subspaces, adapted bases, pure spinors, and the membership
oracle for the Grassmann cone."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg.errors import NotIsotropicError, SpinalgError

from conftest import cone_query_points, make_rng, oracle_annihilator, pfaffian, random_spin


class TestCheckIsotropic:
    def test_standard_subspaces(self):
        e = gc.standard_e_subspace(3)
        assert e.dim == 3
        f = gc.standard_f_subspace(3)
        assert gc.adapted_basis(f).k == 3

    def test_gram_witness(self):
        with pytest.raises(NotIsotropicError) as err:
            gc.check_isotropic(
                [cc.VectorInV.basis(2, 1), cc.VectorInV.basis(2, -1)], 2
            )
        assert "Gram" in str(err.value)

    def test_rank_deficiency(self):
        v = cc.VectorInV.basis(2, 1)
        with pytest.raises(SpinalgError):
            gc.check_isotropic([v, v.scale(2)], 2)

    def test_mixed_isotropic_rows(self):
        # (e_1 + f_2 | e_2 - f_1) = 0 and both are isotropic
        a = cc.VectorInV(2, [1, 0], [0, 1])
        b = cc.VectorInV(2, [0, 1], [-1, 0])
        sub = gc.check_isotropic([a, b], 2)
        assert sub.dim == 2


class TestAdaptedBasis:
    def test_extreme_intersections(self):
        assert gc.adapted_basis(gc.standard_f_subspace(2)).k == 2
        ab = gc.adapted_basis(gc.standard_e_subspace(2))
        assert ab.k == 0
        assert list(ab.new_e) == [cc.VectorInV.basis(2, 1), cc.VectorInV.basis(2, 2)]

    def test_partial_intersection_example(self):
        h = gc.check_isotropic(
            [cc.VectorInV.basis(2, -1), cc.VectorInV.basis(2, 2)], 2
        )
        ab = gc.adapted_basis(h)
        assert ab.k == 1
        assert ab.new_f[0] == cc.VectorInV.basis(2, -1)
        assert ab.new_e[1] == cc.VectorInV.basis(2, 2)

    def test_invariants_on_random_subspaces(self):
        for n in (3, 4):
            for t in range(5):
                h = gc.random_maximal_isotropic(n, f"ab:{t}")
                ab = gc.adapted_basis(h)
                ab.verify()
                # determinism
                ab2 = gc.adapted_basis(h)
                assert ab.new_e == ab2.new_e and ab.new_f == ab2.new_f

    def test_rejects_non_maximal(self):
        sub = gc.check_isotropic([cc.VectorInV.basis(3, 1)], 3)
        with pytest.raises(SpinalgError):
            gc.adapted_basis(sub)


class TestOmega:
    def test_highest_weight_cases(self):
        n = 3
        assert gc.omega_of(gc.standard_e_subspace(n)) == sr.SpinVector.omega0(n)
        assert gc.omega_of(gc.standard_f_subspace(n)) == sr.SpinVector.basis(n, 0)

    def test_mixed_example(self):
        h = gc.check_isotropic(
            [cc.VectorInV.basis(2, -1), cc.VectorInV.basis(2, 2)], 2
        )
        assert gc.omega_of(h) == sr.SpinVector.basis(2, [2])

    def test_rows_annihilate(self):
        for t in range(5):
            h = gc.random_maximal_isotropic(4, f"ann:{t}")
            omega = gc.omega_of(h)
            for v in h.vectors():
                assert sr.vector_action(v, omega).is_zero()

    def test_parity_tracks_intersection_number(self):
        for n in (2, 3, 4):
            for t in range(4):
                h = gc.random_maximal_isotropic(n, f"par:{t}")
                k = gc.adapted_basis(h).k
                omega = gc.omega_of(h)
                assert omega.parity() == ("even" if (n - k) % 2 == 0 else "odd")


class TestAnnihilator:
    def test_roundtrip_coordinate(self):
        for n in (2, 3, 4):
            for emask in range(1 << n):
                h = gc.coordinate_subspace(n, emask)
                assert gc.annihilator(gc.omega_of(h)) == h

    def test_roundtrip_random(self):
        for n in (3, 4):
            for t in range(5):
                h = gc.random_maximal_isotropic(n, f"rt:{t}")
                assert gc.annihilator(gc.omega_of(h)) == h

    def test_off_cone_rank_drop(self):
        x = sr.SpinVector(4, {0: Fraction(1), 0b1111: Fraction(1)})
        assert gc.annihilator(x).dim < 4

    def test_zero_rejected(self):
        with pytest.raises(SpinalgError):
            gc.annihilator(sr.SpinVector.zero(3))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_oracle(self, n):
        rng = make_rng(f"ann-oracle:{n}")
        points = cone_query_points(n, "ann-oracle")
        points += [gc.sample_cone_point(n, f"ann-odd:{t}", "odd", 1 + 2 * t) for t in range(3)]
        points += [random_spin(n, rng, "odd", bound=9), random_spin(n, rng, bound=2)]
        dims = set()
        for x in points:
            sub = gc.annihilator(x)
            assert sub == oracle_annihilator(x)
            assert all(type(c) is Fraction for row in sub.rows for c in row)
            dims.add(sub.dim)
        assert n in dims and len(dims) > 1, "both pure and non-pure points"

    def test_kernel_goes_through_the_isotropy_audit(self, monkeypatch):
        x = gc.sample_cone_point(4, "audit")
        monkeypatch.setattr(gc, "_row_pairing", lambda a, b, n: 1)
        with pytest.raises(NotIsotropicError, match=r"Gram entry \(row 1, row 1\)"):
            gc.annihilator(x)


class TestPurity:
    def test_highest_weight(self):
        res = gc.is_pure(sr.SpinVector.omega0(3))
        assert res.kind == "pure"
        assert res.subspace == gc.standard_e_subspace(3)

    def test_zero_verdict(self):
        res = gc.is_pure(sr.SpinVector.zero(3))
        assert res.kind == "zero" and res.on_cone

    def test_off_cone_vector(self):
        x = sr.SpinVector(4, {0: Fraction(1), 0b1111: Fraction(1)})
        assert gc.is_pure(x).kind == "not_pure"

    def test_orbit_points_are_pure(self):
        for n in (3, 4, 5):
            for t in range(5):
                x = gc.sample_cone_point(n, t)
                assert gc.is_pure(x).kind == "pure"
                assert x.parity() == "even"

    def test_stabilized_line_is_one_dimensional(self):
        for n in (2, 3, 4):
            for t in range(4):
                h = gc.random_maximal_isotropic(n, f"sh:{t}")
                rows = []
                for v in h.vectors():
                    cols = [
                        sr.vector_action(v, sr.SpinVector.basis(n, m))
                        for m in range(1 << n)
                    ]
                    for mask in range(1 << n):
                        rows.append([col.coefficient(mask) for col in cols])
                assert len(linalg.nullspace(rows)) == 1


class TestPluecker:
    def test_coordinate_cases(self):
        n = 3
        full_e = (1 << n) - 1
        assert gc.pluecker(gc.standard_e_subspace(n)) == cc.ExteriorVector(
            n, {full_e: Fraction(1)}
        )
        assert gc.pluecker(gc.standard_f_subspace(n)) == cc.ExteriorVector(
            n, {full_e << n: Fraction(1)}
        )

    def test_adapted_pattern(self):
        h = gc.check_isotropic(
            [cc.VectorInV.basis(2, -1), cc.VectorInV.basis(2, 2)], 2
        )
        # rows e'_2 = e_2, f'_1 = f_1: the wedge e_2 ^ f_1
        assert gc.pluecker(h) == cc.ExteriorVector(2, {0b0110: Fraction(1)})


class TestSampling:
    def test_determinism(self):
        a = gc.sample_cone_point(4, 3)
        b = gc.sample_cone_point(4, 3)
        assert a == b

    def test_subpfaffian_coordinates(self):
        # the lowering-orbit of the top wedge has sub-Pfaffian coordinates:
        # coeff(e_comp(K)) = shuffle_sign(comp K, K) * (-2)^(|K|/2) * Pf(A_K)
        rng = make_rng("pf")
        n = 4
        for trial in range(4):
            a = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    a[i][j] = Fraction(rng.randint(-2, 2))
                    a[j][i] = -a[i][j]
            g = sr.GroupElement.identity(n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if a[i - 1][j - 1]:
                        g = g * sr.exp_nilpotent(n, "ff", i, j, a[i - 1][j - 1])
            x = g.apply(sr.SpinVector.omega0(n))
            assert gc.is_pure(x).kind == "pure"
            for kmask in range(1 << n):
                kset = [i for i in range(n) if kmask >> i & 1]
                comp_mask = ((1 << n) - 1) & ~kmask
                if len(kset) % 2:
                    assert x.coefficient(comp_mask) == 0
                    continue
                comp = [i for i in range(n) if comp_mask >> i & 1]
                perm = comp + kset
                inv = sum(
                    1
                    for i in range(len(perm))
                    for j in range(i + 1, len(perm))
                    if perm[i] > perm[j]
                )
                sign = -1 if inv % 2 else 1
                sub = [[a[r][c] for c in kset] for r in kset]
                expect = sign * Fraction(-2) ** (len(kset) // 2) * pfaffian(sub)
                assert x.coefficient(comp_mask) == expect

    def test_single_pair_case(self):
        # one generator: the image is the top wedge minus twice the parameter
        t = Fraction(5, 2)
        g = sr.exp_nilpotent(4, "ff", 1, 2, t)
        x = g.apply(sr.SpinVector.omega0(4))
        assert x == sr.SpinVector(4, {0b1111: Fraction(1), 0b1100: -2 * t})


class TestMovingWords:
    def test_vector_to_top(self):
        rng = make_rng("move")
        for n in (3, 4, 5):
            for t in range(4):
                h = gc.random_maximal_isotropic(n, f"gv:{t}")
                v = h.vectors()[rng.randrange(h.dim)]
                g = gc.element_moving_vector_to_top(v)
                assert linalg.matvec(g.so_matrix(), v.coords()) == cc.VectorInV.basis(
                    n, n
                ).coords()

    def test_subspace_to_coordinate_block(self):
        for n, m in ((5, 1), (5, 2), (6, 2)):
            for t in range(3):
                h = gc.random_maximal_isotropic(n, f"gs:{n}:{t}")
                sub = gc.check_isotropic(list(h.rows)[:m], n)
                g = gc.element_moving_to_coordinate_top(sub)
                moved = linalg.matmul(
                    [list(r) for r in sub.rows], linalg.transpose(g.so_matrix())
                )
                target = [
                    cc.VectorInV.basis(n, i).coords() for i in range(n - m + 1, n + 1)
                ]
                assert linalg.row_space(moved) == linalg.row_space(target)
