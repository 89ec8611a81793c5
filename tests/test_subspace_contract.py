"""The contract of the IsotropicSubspace constructor, one row per kind of
invalid input.

The public constructor takes the rref rows of an isotropic subspace and
rejects every other input with its documented error type: a row that is not
2n long, a nonzero Gram entry, dependent rows, and independent rows that are
not their own rref.  Every row of INVALID names the input, the error type
(matched exactly, not by subclass) and a part of its message; VALID holds
inputs that must build the subspace check_isotropic builds."""

from fractions import Fraction

import pytest

from spinalg import clifford_core as cc
from spinalg import grassmann_cone as gc
from spinalg import spin_rep as sr
from spinalg.errors import IndexRangeError, NotIsotropicError, SpinalgError, StructureError


def rref_rows(n, emask):
    return [list(r) for r in gc.coordinate_subspace(n, emask).rows]


def mixed_rows():
    # the rref rows of span(e_1 + f_2, e_2 - f_1)
    return [list(r) for r in gc.check_isotropic([[1, 0, 0, 1], [0, 1, -1, 0]], 2).rows]


# name: (n, rows, error type, part of its message)
INVALID = {
    "short-row": (2, [[1, 0, 0]], IndexRangeError, "row length must be 2n"),
    "long-row": (2, [[1, 0, 0, 0, 0]], IndexRangeError, "row length must be 2n"),
    "row-of-another-level": (2, [cc.VectorInV.basis(3, 1)], IndexRangeError, "row length must be 2n"),
    "isotropic-rows-that-pair": (2, [[1, 0, 0, 0], [0, 0, 1, 0]], NotIsotropicError, "Gram entry (row 1, row 2)"),
    "row-not-isotropic": (2, [[1, 0, 1, 0]], NotIsotropicError, "Gram entry (row 1, row 1)"),
    "repeated-row": (3, rref_rows(3, 0b111)[:1] * 2, SpinalgError, "rank deficient"),
    "zero-row": (2, [[1, 0, 0, 0], [0, 0, 0, 0]], SpinalgError, "rank deficient"),
    "scaled-row": (2, [[2, 0, 0, 0]], StructureError, "not their own rref"),
    "reordered-rows": (3, rref_rows(3, 0b011)[::-1], StructureError, "not their own rref"),
    "echelon-not-reduced": (
        2,
        [[x + y for x, y in zip(*mixed_rows())], mixed_rows()[1]],
        StructureError,
        "not their own rref",
    ),
}

# name: (n, rows)
VALID = {
    "empty": (3, []),
    "coordinate": (3, rref_rows(3, 0b101)),
    "maximal-f": (4, rref_rows(4, 0)),
    "mixed": (2, mixed_rows()),
    "int-entries": (2, [[1, 0, 0, 0]]),
    "vectors": (2, [cc.VectorInV.basis(2, 1), cc.VectorInV.basis(2, -2)]),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_rows_raise_their_error(name):
    n, rows, error, message = INVALID[name]
    with pytest.raises(SpinalgError) as err:
        gc.IsotropicSubspace(n, rows)
    assert type(err.value) is error
    assert message in str(err.value)


@pytest.mark.parametrize("name", sorted(VALID))
def test_rref_rows_build_the_subspace(name):
    n, rows = VALID[name]
    sub = gc.IsotropicSubspace(n, rows)
    assert sub == gc.check_isotropic(rows, n)
    assert sub.dim == len(rows)
    assert all(type(x) is Fraction for row in sub.rows for x in row)


def test_results_are_the_public_constructors_results():
    # the trusted path the library builds its results on gives what the
    # checked constructor gives on the same rows
    for x in (gc.sample_cone_point(4, "contract"), sr.SpinVector(4, {0: 1, 0b1111: 1})):
        sub = gc.annihilator(x)
        assert gc.IsotropicSubspace(sub.n, sub.rows) == sub
    h = gc.random_maximal_isotropic(5, "contract")
    assert gc.IsotropicSubspace(5, h.rows) == h

