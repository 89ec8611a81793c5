"""Level-changing maps and the invariant pairing."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg import suites
from spinalg import transfer_maps as tm
from spinalg.errors import IndexRangeError, LevelMismatchError, NotIsotropicError, ResourceBoundError

from conftest import (
    make_rng,
    oracle_beta_direct,
    oracle_check_gram,
    oracle_gram_rows,
    oracle_pi_general,
    oracle_vector_in_quotient,
    quotient_model_basis,
    random_isotropic,
    random_spin,
)


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
        basis = quotient_model_basis(e)
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


class TestPrimedSolver:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_pi_general_matches_the_inverse_route(self, n):
        # e's coordinates permuted, so f'_n and the index the f'-rows leave
        # out vary; x of either parity and of both
        rng = make_rng(f"primed-oracle:{n}")
        for t in range(3):
            perm = rng.sample(range(n), n)
            base = random_isotropic(n, rng)
            e = cc.VectorInV(n, [base.e[p] for p in perm], [base.f[p] for p in perm])
            for parity in ("even", "odd", None):
                x = random_spin(n, rng, parity)
                assert tm.pi_general(x, e) == oracle_pi_general(x, e)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_pi_general_of_fractional_vectors_matches_the_inverse_route(self, n):
        # x over a denominator, which pi_general puts on the vacuum of its
        # kernel pass, not on the words
        rng = make_rng(f"primed-oracle-frac:{n}")
        for t in range(3):
            e = random_isotropic(n, rng)
            x = random_spin(n, rng).scale(Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 9)))
            x = x + sr.SpinVector(n, {rng.randrange(1 << n): Fraction(1, rng.randint(2, 7))})
            assert tm.pi_general(x, e) == oracle_pi_general(x, e)


class TestVectorInQuotient:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_pairings_match_the_solve_route(self, n):
        # v = u - (u|e) f'_n is orthogonal to e; u itself mostly is not.  The
        # basis is the primed solver's, so a second call at the same e is a
        # hit of its cache
        rng = make_rng(f"quotient:{n}")
        for t in range(4):
            perm = rng.sample(range(n), n)
            base = random_isotropic(n, rng)
            e = cc.VectorInV(n, [base.e[p] for p in perm], [base.f[p] for p in perm])
            h = gc.hyperbolic_basis_through(e).new_f[-1]
            for _ in range(4):
                u = cc.VectorInV.from_coords(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * n)])
                v = u - h.scale(cc.pairing(u, e))
                got = tm.vector_in_quotient(v, e)
                info = tm._primed_contraction_solver.cache_info()
                assert tm.vector_in_quotient(v, e) == got
                after = tm._primed_contraction_solver.cache_info()
                assert (after.hits, after.misses) == (info.hits + 1, info.misses)
                assert got == oracle_vector_in_quotient(v, e)
                if cc.pairing(u, e):
                    for route in (tm.vector_in_quotient, oracle_vector_in_quotient):
                        with pytest.raises(IndexRangeError, match="vector is not orthogonal to e"):
                            route(u, e)


    def test_rejected_vectors_fail_at_the_basis(self):
        # the basis through e is built before v is looked at: v = e_1 is not
        # orthogonal to f_1
        n = 3
        v = cc.VectorInV.basis(n, 1)
        with pytest.raises(NotIsotropicError):
            tm.vector_in_quotient(v, cc.VectorInV(n, [1], [1]))
        with pytest.raises(IndexRangeError, match="vector lies in F"):
            tm.vector_in_quotient(v, cc.VectorInV.basis(n, -1))


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

    def test_gram_rows_match_clifford_oracle(self):
        for n in range(1, 7):
            assert tm._gram_rows(n) == oracle_gram_rows(n)

    def test_closed_form_past_dense_bound(self, rng):
        # sparse points; y carries the complements of most of x's masks, so
        # the pairing is not zero by support alone
        for n in (7, 8):
            full = (1 << n) - 1
            for _ in range(4):
                masks = rng.sample(range(1 << n), 6)
                x = sr.SpinVector(
                    n, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in masks}
                )
                y = sr.SpinVector(
                    n,
                    {m ^ full: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in masks[:4]},
                )
                y = y + sr.SpinVector.basis(n, rng.randrange(1 << n))
                assert tm.beta(x, y) == tm.beta_direct(x, y)
                assert tm.beta(y, x) == tm.beta_direct(y, x)


class TestBetaDirect:
    """beta_direct, read off star_mul, against the normal-ordered x* route."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_normal_ordered_route(self, n):
        rng = make_rng(f"beta-direct:{n}")
        dense = [(random_spin(n, rng), random_spin(n, rng)) for _ in range(2 if n <= 6 else 1)]
        dense.append((random_spin(n, rng, "even"), random_spin(n, rng, "odd" if n % 2 else "even")))
        sparse = []
        for _ in range(3):
            masks = rng.sample(range(1 << n), min(4, 1 << n))
            x = sr.SpinVector(n, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in masks})
            y = sr.SpinVector(
                n, {m ^ ((1 << n) - 1): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in masks[1:]}
            )
            sparse.append((x, y))
        zero = sr.SpinVector(n, {})
        for x, y in dense + sparse + [(zero, dense[0][1])]:
            assert tm.beta_direct(x, y) == oracle_beta_direct(x, y)
            assert tm.beta_direct(y, x) == oracle_beta_direct(y, x)

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatchError):
            tm.beta_direct(sr.SpinVector.basis(4, 0), sr.SpinVector.basis(5, 0))


def _gram_witness(n, g):
    """suites._check_gram with beta_gram patched to give g, asserted equal to
    the oracle's witness."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tm, "beta_gram", lambda level: [list(row) for row in g])
        got = suites._check_gram(n, 7, 1)
        assert got == oracle_check_gram(n, 7, 1)
    return got


class TestGramWitness:
    """Each fault of the Gram matrix gets the witness of the row-order scan
    over every entry.  A sign flipped on a nonzero entry, or one entry put at
    a zero place, leaves the signed permutation matrix nonsingular."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_flipped_sign(self, n):
        # symmetric levels read it as an asymmetric pair, skew levels as a
        # broken sign
        rng = make_rng(f"gram-sign:{n}")
        word = "symmetric" if n % 4 in (0, 1) else "skew"
        full = (1 << n) - 1
        for a in rng.sample(range(1 << n), min(4, 1 << n)):
            g = tm.beta_gram(n)
            g[a][a ^ full] = -g[a][a ^ full]
            b, c = sorted((a, a ^ full))
            assert _gram_witness(n, g) == f"not {word} at ({b},{c})"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_sided_entry(self, n):
        # one entry at a zero place, above or below the diagonal: its mirror
        # stays zero
        rng = make_rng(f"gram-one-sided:{n}")
        word = "symmetric" if n % 4 in (0, 1) else "skew"
        size, full = 1 << n, (1 << n) - 1
        places = [(a, b) for a in range(size) for b in range(size) if a != b and a ^ b != full]
        for a, b in rng.sample(places, min(4, len(places))):
            g = tm.beta_gram(n)
            g[a][b] = Fraction(-1, 2)
            assert _gram_witness(n, g) == f"not {word} at ({min(a, b)},{max(a, b)})"

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_nonzero_diagonal_at_a_skew_level(self, n):
        rng = make_rng(f"gram-diagonal:{n}")
        for a in rng.sample(range(1 << n), 3):
            g = tm.beta_gram(n)
            g[a][a] = Fraction(1, 3)
            assert _gram_witness(n, g) == f"not skew at ({a},{a})"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cross_parity_entry(self, n):
        # a pair of entries that keeps the symmetry (or skewness) but sits in
        # a block the parity structure makes zero; a second such pair later
        # in row order does not change the witness
        rng = make_rng(f"gram-parity:{n}")
        sym = n % 4 in (0, 1)
        size = 1 << n
        places = [
            (a, b)
            for a in range(size)
            for b in range(a if sym else a + 1, size)
            if (bin(a).count("1") + bin(b).count("1") + n) % 2
        ]
        for t in range(4):
            g = tm.beta_gram(n)
            picked = sorted(rng.sample(places, min(1 + t % 2, len(places))))
            for a, b in picked:
                g[a][b] = Fraction(2, 5)
                g[b][a] = Fraction(2, 5) if sym else Fraction(-2, 5)
            a, b = picked[0]
            assert _gram_witness(n, g) == f"parity block structure violated at ({a},{b})"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetry_fault_after_a_parity_fault(self, n):
        # the symmetry test runs over every pair before the parity test
        sym = n % 4 in (0, 1)
        full = (1 << n) - 1
        g = tm.beta_gram(n)
        b = 1 if n % 2 == 0 else (3 if n > 1 else 0)  # (0, b) lies in a zero block
        g[0][b] = Fraction(7)
        g[b][0] = Fraction(7) if sym else Fraction(-7)
        g[full][0] = -g[full][0]
        assert _gram_witness(n, g) == f"not {'symmetric' if sym else 'skew'} at (0,{full})"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_row(self, n):
        rng = make_rng(f"gram-zero-row:{n}")
        for a in rng.sample(range(1 << n), min(3, 1 << n)):
            g = tm.beta_gram(n)
            g[a] = [Fraction(0)] * (1 << n)
            assert _gram_witness(n, g) == "gram matrix is singular"


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
