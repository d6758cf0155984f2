"""Exact linear algebra: worked examples plus the spec's algebraic invariants."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quivercover.field as field_module
from quivercover.errors import SchemaError
from quivercover.field import (
    Field,
    Mat,
    invert,
    is_invertible,
    kernel_basis,
    rank,
    rref,
    solve_linear,
)

F101 = Field.prime(101)
QQ = Field.rationals()


def test_rref_identity():
    m = Mat.identity(F101, 2)
    red, piv = rref(m)
    assert red == m
    assert piv == (0, 1)


def test_rref_zero():
    m = Mat.zeros(F101, 3, 2)
    red, piv = rref(m)
    assert red.is_zero()
    assert piv == ()


def test_rref_rank_one_hand_reduction():
    # [[1,2],[2,4]] over F_101: second row is twice the first
    red, piv = rref(Mat.from_rows(F101, [[1, 2], [2, 4]]))
    assert red.tolists() == [[1, 2], [0, 0]]
    assert piv == (0,)


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(F101, 3)).cols == 0


def test_kernel_zero_full():
    assert kernel_basis(Mat.zeros(F101, 2, 3)).cols == 3


def test_kernel_line():
    # x + y = 0: kernel spanned by (1, -1)
    k = kernel_basis(Mat.from_rows(F101, [[1, 1]]))
    assert k.cols == 1
    x, y = k[0, 0], k[1, 0]
    assert (x + y) % 101 == 0 and x != 0


def test_solve_identity():
    b = Mat.from_rows(F101, [[7], [9]])
    assert solve_linear(Mat.identity(F101, 2), b) == b


def test_solve_inconsistent():
    a = Mat.zeros(F101, 2, 2)
    b = Mat.from_rows(F101, [[1], [0]])
    assert solve_linear(a, b) is None


def test_solve_inverse_of_two():
    # 2 * 51 = 102 = 1 mod 101
    x = solve_linear(Mat.from_rows(F101, [[2]]), Mat.from_rows(F101, [[1]]))
    assert x.tolists() == [[51]]


def test_solve_shape_mismatch():
    from quivercover.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        solve_linear(Mat.zeros(F101, 2, 2), Mat.zeros(F101, 3, 1))


def test_rationals_exact():
    m = Mat.from_rows(QQ, [[Fraction(1, 2), 1], [1, 2]])
    red, piv = rref(m)
    assert piv == (0,)
    assert red[0, 1] == Fraction(2)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, 100), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if rows == 0:
        return Mat.zeros(F101, 0, cols)
    return Mat.from_rows(F101, entries)


@st.composite
def rational_matrix(draw, rows=None, cols=None):
    """A sparse matrix over Q: mixed and negative denominators, zero rows
    and columns, and empty shapes."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            Fraction,
            st.integers(-30, 30),
            st.integers(1, 12).flatmap(lambda d: st.sampled_from([d, -d])),
        ),
    )
    entries = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        entries[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    if cols and draw(st.booleans()):
        zero_col = draw(st.integers(0, cols - 1))
        for row in entries:
            row[zero_col] = Fraction(0)
    if rows == 0:
        return Mat.zeros(QQ, 0, cols)
    return Mat.from_rows(QQ, entries)


def dense_fraction_rref(m):
    """Reference: dense Gauss-Jordan on the Fraction array, pivot by pivot."""
    a = np.array(m.tolists(), dtype=object).reshape(m.shape)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c] != 0)[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        a[r, :] = a[r, :] * (Fraction(1) / a[r, c])
        other = a[:, c].copy()
        other[r] = 0
        if np.any(other != 0):
            a = a - np.outer(other, a[r, :])
        pivots.append(c)
        r += 1
    return a.tolist(), tuple(pivots)


@settings(max_examples=200, deadline=None)
@given(rational_matrix())
def test_rational_rref_matches_dense_reference(m):
    red, piv = rref(m)
    assert (red.tolists(), piv) == dense_fraction_rref(m)
    assert all(isinstance(x, Fraction) for x in red.entries())


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda s: st.tuples(rational_matrix(s[0], s[1]), rational_matrix(s[1], s[2]))
))
def test_rational_matmul_is_entrywise_fraction_product(ab):
    a, b = ab
    expected = [
        [sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    assert (a @ b).tolists() == expected


any_matrix = st.one_of(small_matrix(), rational_matrix())


@settings(max_examples=80, deadline=None)
@given(any_matrix)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@settings(max_examples=60, deadline=None)
@given(any_matrix)
def test_rref_idempotent(m):
    red, _ = rref(m)
    red2, _ = rref(red)
    assert red == red2


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_kernel_annihilates(m):
    k = kernel_basis(m)
    if m.rows and k.cols:
        assert (m @ k).is_zero()


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.integers(0, 4))
def test_solve_exact_when_consistent(m, c):
    # build a consistent rhs from a known solution; the returned solution
    # must satisfy the system exactly (no tolerance)
    if m.cols == 0 or m.rows == 0:
        return
    x = Mat.from_rows(F101, [[(i * 7 + c) % 101] for i in range(m.cols)])
    b = m @ x
    sol = solve_linear(m, b)
    assert sol is not None
    assert (m @ sol) == b


def test_invert_round_trip():
    m = Mat.from_rows(F101, [[2, 1], [1, 1]])
    inv = invert(m)
    assert inv is not None
    assert (m @ inv) == Mat.identity(F101, 2)
    assert is_invertible(m)
    assert invert(Mat.from_rows(F101, [[1, 2], [2, 4]])) is None


def dense_residue_rref(m):
    """Reference: dense Gauss-Jordan on the whole residue array, pivot by pivot."""
    p = m.field.p
    a = np.array(m.tolists(), dtype=object).reshape(m.shape)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c] != 0)[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        a[r, :] = a[r, :] * pow(int(a[r, c]), -1, p) % p
        other = a[:, c].copy()
        other[r] = 0
        if np.any(other != 0):
            a = (a - np.outer(other, a[r, :])) % p
        pivots.append(c)
        r += 1
    return Mat.from_rows(m.field, a.tolist(), m.cols), tuple(pivots)


BIG_PRIME = 2**31 - 1


def residue_matrices(field, rng):
    """Seeded matrices over F_p up to 40 x 40: empty shapes, dense and sparse
    entries, low rank, zero columns."""
    p = field.p

    def mat(rows, cols, entry):
        if not rows:
            return Mat.zeros(field, 0, cols)
        return Mat.from_rows(field, [[entry() for _ in range(cols)] for _ in range(rows)])

    def dense():
        return rng.randrange(p)

    def sparse():
        return rng.choice([1, p - 1, rng.randrange(p)]) if rng.random() < 0.2 else 0

    out = [Mat.zeros(field, k, 0) for k in range(4)] + [Mat.zeros(field, 0, k) for k in range(1, 4)]
    for rows, cols in [(1, 1), (2, 2), (3, 5), (5, 3), (8, 8), (16, 16), (31, 33),
                       (32, 32), (33, 32), (40, 40), (7, 40), (40, 7)]:
        out += [mat(rows, cols, dense), mat(rows, cols, sparse)]
        k = rng.randrange(1, min(rows, cols) + 1)
        out.append(mat(rows, k, dense) @ mat(k, cols, sparse))
        a = np.array(mat(rows, cols, dense).tolists(), dtype=object)
        a[:, rng.sample(range(cols), (cols + 2) // 3)] = 0
        out.append(Mat.from_rows(field, a.tolist()))
    return out


@pytest.mark.parametrize("p", [2, 5, 32003, BIG_PRIME])
def test_residue_rref_matches_dense_reference(p, monkeypatch):
    field = Field.prime(p)
    rng = random.Random(p)
    for m in residue_matrices(field, rng):
        x = Mat.from_rows(field, [[rng.randrange(p)] for _ in range(m.cols)]) if m.cols else None
        rhs = [Mat.from_rows(field, [[rng.randrange(p)] for _ in range(m.rows)])] if m.rows else []
        if x is not None and m.rows:
            rhs.append(m @ x)
        got = (rref(m), kernel_basis(m), [solve_linear(m, b) for b in rhs])
        with monkeypatch.context() as patch:
            patch.setattr(field_module, "rref", dense_residue_rref)
            want = (dense_residue_rref(m), kernel_basis(m), [solve_linear(m, b) for b in rhs])
        assert got == want, m.shape
        for res in (got[0][0], got[1]):
            assert all(type(x) is int and 0 <= x < p for x in res.entries())


def test_rref_keeps_object_entries_over_a_large_prime():
    # Products of two entries near 2^31 overflow int64 once three are summed;
    # the entries are Python ints, so they stay exact.
    field = Field.prime(BIG_PRIME)
    p = BIG_PRIME
    for rows, cols in [(2, 6), (3, 9), (20, 60)]:
        rng = random.Random(rows)
        m = Mat.from_rows(field, [[p - 1 - rng.randrange(50) for _ in range(cols)] for _ in range(rows)])
        red, pivots = rref(m)
        assert all(type(x) is int and 0 <= x < p for x in red.entries()) and len(pivots) == rows
        entries = red.tolists()
        exact = [[sum(x * y for x, y in zip(u, v)) % p for v in entries] for u in entries]
        assert (red @ red.transpose()).tolists() == exact


def test_primality_agrees_with_a_sieve_below_1e5():
    sieve = [False, False] + [True] * (10**5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [field_module._is_prime(n) for n in range(10**5)] == sieve


@pytest.mark.parametrize("n", [3215031751, 561, 41041], ids=["strong pseudoprime", "561", "41041"])
def test_pseudoprimes_are_not_fields(n):
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7; 561 and
    # 41041 are Carmichael numbers
    with pytest.raises(ValueError, match="is not prime"):
        Field.prime(n)


@pytest.mark.parametrize("p", [2**50 - 27, 2**61 - 1])
def test_a_large_prime_is_a_field(p):
    # trial division took seconds at 2^50 and did not end at 2^61
    assert Field.prime(p).is_prime_field


def test_a_modulus_past_the_certified_bound_is_refused():
    with pytest.raises(SchemaError, match="3317044064679887385961981"):
        Field.prime(2**127 - 1)
