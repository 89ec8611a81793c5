"""Isotropic subspaces, adapted bases, pure spinors, and the membership
oracle for the Grassmann cone."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import ideal_engine as ie
from spinalg import linalg
from spinalg import spin_rep as sr
from spinalg.errors import (
    IndexRangeError,
    LevelMismatchError,
    NotIsotropicError,
    SpinalgError,
    StructureError,
)

from conftest import (
    cone_query_points,
    make_rng,
    oracle_adapted_basis,
    oracle_annihilator,
    oracle_hyperbolic_basis_through,
    oracle_omega_of,
    oracle_pluecker,
    oracle_pure_subspace,
    oracle_residual_purity,
    pfaffian,
    random_isotropic,
    random_partner,
    random_permuted_isotropic,
    random_spin,
)


class TestCheckIsotropic:
    def test_standard_subspaces(self):
        e = gc.coordinate_subspace(3, 0b111)
        assert e.dim == 3
        f = gc.coordinate_subspace(3, 0)
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

    def test_contains_rejects_vector_of_other_level(self):
        # the level-2 f_1 was read as the first four coordinates of six, e_3
        e = gc.coordinate_subspace(3, 0b111)
        assert not e.contains(cc.VectorInV.basis(3, -1))
        with pytest.raises(LevelMismatchError):
            e.contains(cc.VectorInV.basis(2, -1))


def outcome(build, h):
    """(None, the result) when build(h) returns, else the error's type and
    message."""
    try:
        return None, build(h)
    except Exception as exc:
        return type(exc), str(exc)


# each build with its oracle: omega_of and pluecker must match adapted_basis's
# oracle, built on into the objects as first written
BUILDS = (
    (gc.adapted_basis, oracle_adapted_basis),
    (gc.omega_of, oracle_omega_of),
    (gc.pluecker, oracle_pluecker),
)


class TestAdaptedBasis:
    def test_extreme_intersections(self):
        assert gc.adapted_basis(gc.coordinate_subspace(2, 0)).k == 2
        ab = gc.adapted_basis(gc.coordinate_subspace(2, 0b11))
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
        for build in (b for pair in BUILDS for b in pair):
            with pytest.raises(SpinalgError) as err:
                build(sub)
            assert type(err.value) is SpinalgError
            assert str(err.value) == "subspace is not maximal: dim 1 != 3"

    @staticmethod
    def assert_matches_oracle(h):
        # omega_of and pluecker read the adapted basis's objects off H's rref
        # rows in closed form; each equals the oracle built from the basis
        ab, ref = gc.adapted_basis(h), oracle_adapted_basis(h)
        assert (ab.k, ab.new_e, ab.new_f) == (ref.k, ref.new_e, ref.new_f)
        assert gc.omega_of(h) == oracle_omega_of(h, ref)
        assert gc.pluecker(h) == oracle_pluecker(h, ref)
        return ab.k

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_oracle_on_coordinate_subspaces(self, n):
        ks = {self.assert_matches_oracle(gc.coordinate_subspace(n, m)) for m in range(1 << n)}
        assert ks == set(range(n + 1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_oracle_on_random_subspaces(self, n):
        # short words leave H∩F large, long ones make it small
        subs = [gc.random_maximal_isotropic(n, f"ab-oracle:{t}", 1 + t % 8) for t in range(40)]
        subs += [
            gc.annihilator(gc.sample_cone_point(n, f"ab-oracle:{t}", part, 1 + t))
            for t in range(4)
            for part in ("even", "odd")
        ]
        ks = {self.assert_matches_oracle(h) for h in subs}
        assert len(ks) > 1

    @staticmethod
    def hand_built(n, rows):
        return gc.IsotropicSubspace._trusted(n, tuple(tuple(r) for r in rows))

    def assert_rejected_like_oracle(self, h, oracle_message):
        # the builds read H off its rref rows and reject rows that are not
        # with the IsotropicSubspace constructor's message; the oracle, which
        # reads any spanning rows, still rejects them with its own
        for build, oracle in BUILDS:
            with pytest.raises(StructureError) as err:
                build(h)
            assert str(err.value) == "rows are not their own rref"
            with pytest.raises(StructureError) as err:
                oracle(h)
            assert str(err.value) == oracle_message

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rows_other_than_the_rref_are_rejected(self, n):
        for h in (gc.coordinate_subspace(n, 1), gc.random_maximal_isotropic(n, f"ab-bad:{n}", 2)):
            rows = [list(r) for r in h.rows]
            # scaled, reordered, and echelon with a pivot column not cleared
            echelon = [[x + y for x, y in zip(rows[0], rows[1])]] + rows[1:]
            for bad in ([[2 * x for x in r] for r in rows], rows[::-1], rows[1:] + rows[:1], echelon):
                self.assert_rejected_like_oracle(self.hand_built(n, bad), "adapted rows do not span H")
            self.assert_rejected_like_oracle(
                self.hand_built(n, rows[:-1] + rows[:1]), "failed to split H over H∩F"
            )

    def test_hand_built_rows_match_the_oracle(self):
        # rows that need not be isotropic, independent or reduced.  On their
        # rref the outcome is the oracle's: the result when it accepts, else
        # its error type, and its message for adapted_basis, for non-maximal
        # H and for the split and rref messages.  One message moves: where
        # the oracle inverts a singular P, adapted_basis raises _rref_split's
        # det P check, as omega_of and pluecker do.  Off isotropy omega_of
        # and pluecker name their own audits.  Rows that are not their own
        # rref are rejected by every build with the constructor's message,
        # and by the oracle too, with its split message when dependent.
        pinned = {"failed to split H over H∩F", "adapted rows do not span H"}
        singular = (ValueError, "H's rows pair singularly with f'_(k+1)..f'_n")
        rng = make_rng("ab-hand-built")
        verdicts = {build: set() for build, _ in BUILDS}
        for _ in range(120):
            n = rng.randint(2, 4)
            rows = [[Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(2 * n)] for _ in range(n)]
            canonical = linalg.row_space(rows)
            h = self.hand_built(n, canonical)
            for build, oracle in BUILDS:
                got, want = outcome(build, h), outcome(oracle, h)
                assert got[0] == want[0], (build.__name__, canonical, got, want)
                if build is gc.adapted_basis and want == (ValueError, "matrix is singular"):
                    assert got == singular, canonical
                elif build is gc.adapted_basis or got[0] is None or want[1] in pinned or len(canonical) < n:
                    assert got == want, (build.__name__, canonical)
                verdicts[build].add(got[0])
            if canonical == rows:
                continue
            h = self.hand_built(n, rows)
            for build, oracle in BUILDS:
                assert outcome(build, h) == (StructureError, "rows are not their own rref")
                want = outcome(oracle, h)
                assert want[0] is not None, rows
                if len(canonical) < n:
                    assert want == (StructureError, "failed to split H over H∩F")
        for seen in verdicts.values():
            assert seen >= {None, SpinalgError, StructureError, ValueError}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_row_fails_the_split(self, n):
        # a zero row has no pivot: reading pivots off the rows must still end
        # in the rref error, and the oracle's in its split error (not, say, a
        # bare StopIteration)
        for h in (gc.coordinate_subspace(n, m) for m in ((1 << n) - 1, 0, 1)):
            for at in (0, n - 1):
                rows = [list(r) for r in h.rows]
                rows[at] = [Fraction(0)] * (2 * n)
                self.assert_rejected_like_oracle(self.hand_built(n, rows), "failed to split H over H∩F")


class TestHyperbolicBasis:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form_matches_the_greedy_oracle(self, n):
        # e's coordinates permuted, so the index j0 of f'_n without a partner
        # varies; a partner of random support varies the last index of its
        # support, the one the closed form leaves out of f'_1..f'_(n-1)
        rng = make_rng(f"hyperbolic-oracle:{n}")
        j0s, left_out = set(), set()
        for _ in range(30):
            perm = rng.sample(range(n), n)
            base = random_isotropic(n, rng)
            e = cc.VectorInV(n, [base.e[p] for p in perm], [base.f[p] for p in perm])
            j0s.add(next(j for j in range(n) if e.e[j]))
            assert gc.hyperbolic_basis_through(e) == oracle_hyperbolic_basis_through(e)
            h = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            s = sum((a * b for a, b in zip(e.e, h)), Fraction(0))
            if not s:
                continue
            partner = cc.VectorInV(n, [0] * n, [x / s for x in h])
            left_out.add(max(j for j in range(n) if h[j]))
            assert gc.hyperbolic_basis_through(e, partner) == oracle_hyperbolic_basis_through(e, partner)
        if n > 1:
            assert len(j0s) > 1 and len(left_out) > 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symbol_coords_invert_the_rows(self, n):
        # through e, through (e, h) and adapted to a random H (to E and F
        # at level 1, which has no group words)
        rng = make_rng(f"symbol-coords:{n}")
        eye = linalg.identity(2 * n)
        for t in range(3):
            e = random_permuted_isotropic(n, rng)
            h = gc.random_maximal_isotropic(n, f"symbol-coords:{t}") if n > 1 else gc.coordinate_subspace(1, t & 1)
            for basis in (
                gc.hyperbolic_basis_through(e),
                gc.hyperbolic_basis_through(e, random_partner(e, rng)),
                gc.adapted_basis(h),
            ):
                rows, coords = [v.coords() for v in basis.rows()], basis.symbol_coords()
                assert linalg.matmul(rows, coords) == eye
                assert linalg.matmul(coords, rows) == eye

    def test_dual_rows_need_no_inverse(self, monkeypatch):
        # the dual E-rows are in closed form: no matrix is inverted or reduced
        rng = make_rng("hyperbolic-no-inverse")
        es = [random_isotropic(6, rng) for _ in range(6)]
        es = [e for e in es if any(e.e)]
        want = [oracle_hyperbolic_basis_through(e) for e in es]

        def refuse(*args):
            raise AssertionError("hyperbolic_basis_through eliminated")

        monkeypatch.setattr(linalg, "inverse", refuse)
        monkeypatch.setattr(linalg, "rref", refuse)
        assert es and [gc.hyperbolic_basis_through(e) for e in es] == want


class TestOmega:
    def test_highest_weight_cases(self):
        n = 3
        assert gc.omega_of(gc.coordinate_subspace(n, (1 << n) - 1)) == sr.SpinVector.omega0(n)
        assert gc.omega_of(gc.coordinate_subspace(n, 0)) == sr.SpinVector.basis(n, 0)

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

    def test_off_cone_kernel_goes_through_the_isotropy_audit(self, monkeypatch):
        # is_pure returns "not pure" at the first nonzero residual, without a
        # kernel; annihilator still audits its one-dimensional kernel
        x = ie.off_cone_sample(5, "audit")
        assert gc.annihilator(x).dim == 1
        monkeypatch.setattr(gc, "_row_pairing", lambda a, b, n: 1)
        assert gc.is_pure(x).kind == "not_pure"
        with pytest.raises(NotIsotropicError, match=r"Gram entry \(row 1, row 1\)"):
            gc.annihilator(x)


class TestPurity:
    def test_highest_weight(self):
        res = gc.is_pure(sr.SpinVector.omega0(3))
        assert res.kind == "pure"
        assert res.subspace == gc.coordinate_subspace(3, 0b111)

    def test_zero_verdict(self):
        res = gc.is_pure(sr.SpinVector.zero(3))
        assert res.kind == "zero" and res.on_cone

    def test_off_cone_vector(self):
        x = sr.SpinVector(4, {0: Fraction(1), 0b1111: Fraction(1)})
        assert gc.is_pure(x).kind == "not_pure"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_oracle(self, n):
        rng = make_rng(f"pure-oracle:{n}")
        if n >= 4:
            points = cone_query_points(n, "pure-oracle")
        else:
            # mixed and odd points; every nonzero parity-pure point is pure here
            points = [random_spin(n, rng, p, bound=2) for p in (None, "odd") for _ in range(4)]
        kinds = set()
        for x in points:
            res = gc.is_pure(x)
            want = oracle_annihilator(x)
            assert res.kind == ("pure" if want.dim == n else "not_pure")
            assert res.subspace == (want if res.kind == "pure" else None)
            kinds.add(res.kind)
        assert kinds == {"pure", "not_pure"}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_verdict_subspace_and_annihilator_agree(self, n):
        # one route: the pure verdict's subspace is annihilator(x), and both
        # are the oracle's, on orbit points of both parities, sparse points,
        # rational points and points of mixed parity
        rng = make_rng(f"one-route:{n}")
        points = [
            gc.sample_cone_point(n, f"one-route:{t}", part, 1 + 2 * t) if n > 1 else sr.SpinVector.basis(n, t % 2)
            for t in range(3)
            for part in ("even", "odd")
        ]
        points += [p.scale(Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 12))) for p in points[:2]]
        points += [
            sr.SpinVector(n, {rng.randrange(1 << n): Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k)})
            for k in (1, 2, 3)
        ]
        points += [random_spin(n, rng, part, bound=2) for part in ("even", "odd", None)]
        points.append(sr.SpinVector(n, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in range(1 << n)}))
        dims = set()
        for x in points:
            if x.is_zero():
                continue
            res, want = gc.is_pure(x), oracle_annihilator(x)
            assert gc.annihilator(x) == want
            assert res.kind == ("pure" if want.dim == n else "not_pure")
            assert res.subspace == (want if res.kind == "pure" else None)
            dims.add(want.dim)
        assert n in dims and (n == 1 or len(dims) > 1)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_query_points_match_the_eliminating_route(self, n):
        # the pure verdict's rref, written on read, and annihilator against
        # the route that eliminated on every verdict
        pure = 0
        for x in cone_query_points(n, "deferred-rref"):
            want = oracle_pure_subspace(x)
            assert gc.annihilator(x) == want
            res = gc.is_pure(x)
            assert res.subspace == (want if want.dim == n else None)
            pure += res.kind == "pure"
        assert pure

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orbit_points_match_the_eliminating_route(self, n):
        for t in range(3):
            for part in ("even", "odd"):
                x = gc.sample_cone_point(n, f"deferred:{t}", part, 1 + 3 * t) if n > 1 else sr.SpinVector.basis(n, t % 2)
                res, want = gc.is_pure(x), oracle_pure_subspace(x)
                assert res.kind == "pure" and want.dim == n
                assert res.subspace == want and gc.annihilator(x) == want
                assert all(type(c) is Fraction for row in res.subspace.rows for c in row)

    def test_pure_verdict_eliminates_on_first_read_only(self, monkeypatch):
        calls = {"_eliminate": 0, "_pivot_rows": 0, "_kernel": 0}

        def spy(name):
            real = getattr(linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(linalg, name, spy(name))
        x = gc.sample_cone_point(6, "first-read", length=5)
        res = gc.is_pure(x)
        assert res.kind == "pure" and res.on_cone
        assert calls == {"_eliminate": 0, "_pivot_rows": 0, "_kernel": 0}
        sub = res.subspace
        assert calls == {"_eliminate": 1, "_pivot_rows": 1, "_kernel": 0}
        assert res.subspace is sub and res == gc.is_pure(x)
        assert calls["_eliminate"] == 2  # the second verdict's first read, for ==
        assert sub == oracle_pure_subspace(x)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_lifted_rows_hold_l_alone_off_c(self, n):
        # the structure the deferred rank audit rests on: row k holds l at
        # its own column k off C, and no other row has an entry there
        for t in range(4):
            x = gc.sample_cone_point(n, f"lifted:{t}", length=1 + 2 * t)
            pivots, l, _ = gc._split_action(x)
            rows = gc.is_pure(x)._rows
            free = [k for k in range(2 * n) if k not in pivots]
            assert len(rows) == len(free) == n
            for k, row in zip(free, rows):
                assert row[k] == l
                assert set(row) - {k} <= set(pivots)
                assert not any(k in other for other in rows if other is not row)

    def test_verdicts_compare_and_hash_by_kind_and_subspace(self):
        x = gc.sample_cone_point(5, "verdict-eq")
        res, scaled = gc.is_pure(x), gc.is_pure(x.scale(Fraction(-3, 7)))
        assert res == scaled and hash(res) == hash(scaled)
        assert res != gc.is_pure(gc.sample_cone_point(5, "verdict-other"))
        assert gc.is_pure(sr.SpinVector.zero(5)) == gc.PurityResult("zero")
        assert gc.PurityResult("not_pure") != gc.PurityResult("zero")
        assert repr(res) == f"PurityResult(kind='pure', subspace={res.subspace!r})"
        with pytest.raises(AttributeError):
            res.kind = "not_pure"
        # the rows are keyword-only: a subspace passed as a second positional
        # argument is refused when the verdict is made
        with pytest.raises(TypeError):
            gc.PurityResult("pure", res.subspace)

    def test_residual_of_a_far_mask(self):
        # x = 1 + e_1234: the pivot rows sit at the masks next to the support
        # mask s0, and every other row, three bits from s0, is left with a
        # nonzero residual; the verdict must come from those rows alone
        n = 4
        for terms in ({0: 1, 0b1111: 1}, {0b1111: 1, 0: 1}):
            x = sr.SpinVector(n, terms)
            s0 = next(iter(x.terms))
            pivots, l, others = gc._split_action(x)
            assert sorted(pivots) == sorted(n + i if s0 >> i & 1 else i for i in range(n))
            others = list(others)
            assert len(others) == 4 and all(gc._residual(row, pivots, l) for row in others)
            assert gc.is_pure(x).kind == "not_pure"
            assert gc.annihilator(x) == oracle_annihilator(x) and gc.annihilator(x).dim == 0

    def test_pure_verdict_goes_through_the_isotropy_audit(self, monkeypatch):
        x = gc.sample_cone_point(5, "pure-audit")
        assert gc.is_pure(x).kind == "pure"
        monkeypatch.setattr(gc, "_row_pairing", lambda a, b, n: 1)
        with pytest.raises(NotIsotropicError, match=r"Gram entry \(row 1, row 1\)"):
            gc.is_pure(x)

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


def chart_route_points(n, tag):
    """Nonzero points of every class the chart route must decide as the
    residual route does: orbit points of both parities, their rational
    multiples, orbit points perturbed at one random mask (near or far, of
    either parity), sparse points, and dense points of each parity and of
    mixed parity."""
    rng = make_rng(f"{tag}:{n}")
    points = []
    for t in range(4):
        for part in ("even", "odd"):
            x = gc.sample_cone_point(n, f"{tag}:{t}", part, 1 + 3 * t) if n > 1 else sr.SpinVector.basis(n, t % 2)
            terms, m = dict(x.terms), rng.randrange(1 << n)
            terms[m] = terms.get(m, 0) + Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
            points += [x, x.scale(Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 12))), sr.SpinVector(n, terms)]
    points += [
        sr.SpinVector(n, {rng.randrange(1 << n): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)})
        for k in (1, 2, 3, 4)
    ]
    points += [random_spin(n, rng, part, bound=2) for part in ("even", "odd", None)]
    return [x for x in points if not x.is_zero()]


class TestChartRoute:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_verdicts_match_the_residual_route(self, n):
        kinds = set()
        for x in chart_route_points(n, "chart-route"):
            res, want = gc.is_pure(x), oracle_residual_purity(x)
            assert res.kind == want.kind and res._rows == want._rows
            kinds.add(res.kind)
        assert kinds == {"pure", "not_pure"}

    @pytest.mark.parametrize("n", range(4, 8))
    def test_table_gives_the_residual_entries(self, n):
        # r_T, read off the chart table, is the entry of _residual(row
        # s0 ^ T ^ 2^k) in the column of bit k = min T, a column off C, for
        # every chart set and every point; the first nonzero one fails
        seen = 0
        for x in chart_route_points(n, "chart-entry"):
            ints = x.integer_form()[0]
            s0 = next(iter(ints))
            x0, get = ints[s0], ints.get
            pivots, l, _ = gc._split_action(x)
            first = 0
            for big_t, lead, a, terms in gc._chart_table(n, s0):
                r = (x0 * a * get(lead, 0) - sum(c * get(p, 0) * get(q, 0) for p, q, c in terms)) * (1 if x0 > 0 else -1)
                k = (big_t & -big_t).bit_length() - 1
                t = s0 ^ big_t ^ 1 << k
                col = k if t >> k & 1 else n + k
                assert lead == s0 ^ big_t and col not in pivots
                assert gc._residual(gc._action_row(ints, t, n), pivots, l).get(col, 0) == r
                first = first or (big_t if r else 0)
                seen += bool(r)
            assert gc._first_failing_chart_set(ints, n) == first
        assert seen

    def test_each_chart_set_fails_first_at_its_own_mask(self):
        # a pure point perturbed at s0 ^ T changes r_T and no residual of an
        # earlier chart set, so T is the first to fail: this pins every entry
        # of the table at level 6
        n = 6
        tested = set()
        for part in ("even", "odd"):
            x = gc.sample_cone_point(n, f"chart-first:{part}", part, 12)
            s0 = next(iter(x.integer_form()[0]))
            table = gc._chart_table(n, s0)
            assert [t for t, *_ in table] == sorted(
                (t for t in range(1 << n) if t.bit_count() in (4, 6)), key=lambda t: (t.bit_count(), t)
            )
            for big_t, *_ in table:
                y = sr.SpinVector(n, {**x.terms, s0 ^ big_t: x.coefficient(s0 ^ big_t) + 1})
                ints = y.integer_form()[0]
                assert next(iter(ints)) == s0
                assert gc._first_failing_chart_set(ints, n) == big_t
                assert gc.is_pure(y).kind == oracle_residual_purity(y).kind == "not_pure"
                tested.add(big_t)
        assert len(tested) == 16

    def test_odd_mask_far_from_s0_fails_on_parity_alone(self):
        # the chart residuals read X at even distances from s0 only, so a
        # mask of the other parity, here five bits from s0, is seen by the
        # parity test alone
        n = 6
        x = gc.sample_cone_point(n, "chart-parity", "even", 12)
        s0 = next(iter(x.integer_form()[0]))
        far = next(m for m in range(1 << n) if (m ^ s0).bit_count() == 5)
        y = sr.SpinVector(n, {**x.terms, far: Fraction(3)})
        assert y.parity() == "mixed"
        assert gc._first_failing_chart_set(y.integer_form()[0], n) == 0
        assert gc.is_pure(y).kind == oracle_residual_purity(y).kind == "not_pure"
        assert gc.annihilator(y) == oracle_annihilator(y)


class TestPluecker:
    def test_coordinate_cases(self):
        n = 3
        full_e = (1 << n) - 1
        assert gc.pluecker(gc.coordinate_subspace(n, (1 << n) - 1)) == cc.ExteriorVector(
            n, {full_e: Fraction(1)}
        )
        assert gc.pluecker(gc.coordinate_subspace(n, 0)) == cc.ExteriorVector(
            n, {full_e << n: Fraction(1)}
        )

    def test_adapted_pattern(self):
        h = gc.check_isotropic(
            [cc.VectorInV.basis(2, -1), cc.VectorInV.basis(2, 2)], 2
        )
        # rows e'_2 = e_2, f'_1 = f_1: the wedge e_2 ^ f_1
        assert gc.pluecker(h) == cc.ExteriorVector(2, {0b0110: Fraction(1)})


class TestSampling:
    def test_no_samples_at_level_one(self):
        # level 1 has no root vectors, so no group word to move the base point
        for sample in (gc.sample_cone_point, gc.random_maximal_isotropic):
            with pytest.raises(IndexRangeError, match="no root vectors below level 2"):
                sample(1, "s")

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
