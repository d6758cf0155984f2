"""Properties of `Mat` over Q, F_2, F_32003 and F_(2^31 - 1): every result is
canonical, `==` and `hash` agree across routes to the same matrix, and each
operation matches a naive reference computed on `tolists()`."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from quivercover.field import (
    Field,
    Mat,
    hstack,
    invert,
    kernel_basis,
    rref,
    solve_linear,
    vstack,
)

FIELDS = [Field.rationals(), Field.prime(2), Field.prime(32003), Field.prime(2**31 - 1)]
fields = st.sampled_from(FIELDS)
dims = st.integers(0, 4)


def entries(field):
    """Raw entries, reduced by the constructor: Fractions with mixed and
    negative denominators over Q, integers on both sides of [0, p) over F_p."""
    if field.p is None:
        den = st.integers(1, 9).flatmap(lambda d: st.sampled_from([d, -d]))
        return st.one_of(st.just(0), st.builds(Fraction, st.integers(-20, 20), den))
    return st.one_of(st.just(0), st.just(1), st.integers(-3 * field.p, 3 * field.p))


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    values = [[draw(entries(field)) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        values[draw(st.integers(0, rows - 1))] = [0] * cols
    return Mat.from_rows(field, values, cols)


@st.composite
def nonzero_scalars(draw, field):
    if field.p is None:
        num = draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))
        return Fraction(num, draw(st.integers(1, 12)))
    return draw(st.integers(1, field.p - 1))


def assert_canonical(m):
    assert len(m.ints) == m.rows
    assert all(type(r) is tuple and len(r) == m.cols for r in m.ints)
    assert all(type(x) is int for r in m.ints for x in r)
    p = m.field.p
    if p is None:
        assert m.den > 0 and gcd(m.den, *(x for r in m.ints for x in r)) == 1
    else:
        assert m.den == 1 and all(0 <= x < p for r in m.ints for x in r)


def assert_same(a, b):
    assert a == b
    assert hash(a) == hash(b)


# naive references on lists of scalars; a reference matrix is (rows of
# canonical scalars, column count) ---------------------------------------


def ref_matmul(field, a, b):
    (x, _), (y, ycols) = a, b
    dot = lambda r, j: field.scalar(sum((r[k] * y[k][j] for k in range(len(y))), 0))
    return [[dot(r, j) for j in range(ycols)] for r in x], ycols


def ref_rref(field, a):
    """Dense Gauss-Jordan elimination, pivot by pivot."""
    rows, cols = [list(r) for r in a[0]], a[1]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = field.inv_scalar(rows[r][c])
        rows[r] = [field.scalar(v * inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                x = rows[i][c]
                rows[i] = [field.scalar(v - x * w) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    return (rows, cols), tuple(pivots)


def ref_kernel(field, a):
    (red, _), pivots = ref_rref(field, a)
    free = [c for c in range(a[1]) if c not in pivots]
    basis = [[field.scalar(0)] * len(free) for _ in range(a[1])]
    for k, f in enumerate(free):
        basis[f][k] = field.scalar(1)
        for i, pc in enumerate(pivots):
            basis[pc][k] = field.neg_scalar(red[i][f])
    return basis, len(free)


def ref_solve(field, a, b):
    joined = ([ra + rb for ra, rb in zip(a[0], b[0])], a[1] + b[1])
    (red, _), pivots = ref_rref(field, joined)
    if any(p >= a[1] for p in pivots):
        return None
    x = [[field.scalar(0)] * b[1] for _ in range(a[1])]
    for i, pc in enumerate(pivots):
        x[pc] = red[i][a[1] :]
    return x, b[1]


def as_ref(m):
    return m.tolists(), m.cols


# properties ------------------------------------------------------------------


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_products_and_sums_match_the_reference(data):
    field = data.draw(fields)
    r, k, c = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(matrices(field, r, k))
    b = data.draw(matrices(field, k, c))
    d = data.draw(matrices(field, r, k))
    s = data.draw(entries(field))
    product, total, difference, scaled = a @ b, a + d, a - d, a.scale(s)
    for m in (a, b, d, product, total, difference, scaled, -a):
        assert_canonical(m)
    assert as_ref(product) == ref_matmul(field, as_ref(a), as_ref(b))
    pairs = list(zip(a.tolists(), d.tolists()))
    assert total.tolists() == [[field.scalar(x + y) for x, y in zip(u, v)] for u, v in pairs]
    assert difference.tolists() == [[field.scalar(x - y) for x, y in zip(u, v)] for u, v in pairs]
    assert scaled.tolists() == [[field.scalar(x * field.scalar(s)) for x in u] for u in a.tolists()]
    assert (-a).tolists() == [[field.neg_scalar(x) for x in u] for u in a.tolists()]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sparse_products_match_the_reference(data):
    # factors 8-10 wide and mostly zeros, as in the block-diagonal
    # endomorphisms of decomposition
    field = data.draw(fields)
    r, k, c = data.draw(st.integers(0, 9)), data.draw(st.integers(8, 10)), data.draw(st.integers(8, 10))

    def entry():
        return data.draw(entries(field)) if data.draw(st.integers(0, 3)) == 0 else 0

    def sparse(rows, cols):
        return Mat.from_rows(field, [[entry() for _ in range(cols)] for _ in range(rows)], cols)

    a, b = sparse(r, k), sparse(k, c)
    product = a @ b
    assert_canonical(product)
    assert as_ref(product) == ref_matmul(field, as_ref(a), as_ref(b))


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_shape_operations_match_the_reference(data):
    field = data.draw(fields)
    r, c, c2, r2 = data.draw(dims), data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(matrices(field, r, c))
    b = data.draw(matrices(field, r, c2))
    e = data.draw(matrices(field, r2, c))
    t, h, v = a.transpose(), hstack([a, b, a]), vstack([a, e])
    for m in (t, h, v):
        assert_canonical(m)
    assert t.shape == (c, r) and t.tolists() == [[row[j] for row in a.tolists()] for j in range(c)]
    assert h.shape == (r, 2 * c + c2)
    assert h.tolists() == [x + y + x for x, y in zip(a.tolists(), b.tolists())]
    assert v.shape == (r + r2, c) and v.tolists() == a.tolists() + e.tolists()
    cut = data.draw(st.integers(0, c))
    left, right = a[:, :cut], a[:, cut:]
    assert_canonical(left)
    assert_canonical(right)
    assert_same(hstack([left, right]), a)
    assert_same(hstack([a]), a)
    assert_same(a.reshape(r * c, 1).reshape(r, c), a)


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_elimination_matches_the_reference(data):
    field = data.draw(fields)
    r, c, c2 = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(matrices(field, r, c))
    b = data.draw(matrices(field, r, c2))
    red, pivots = rref(a)
    kern = kernel_basis(a)
    sol = solve_linear(a, b)
    for m in (red, kern) + ((sol,) if sol is not None else ()):
        assert_canonical(m)
    assert (as_ref(red), pivots) == ref_rref(field, as_ref(a))
    assert as_ref(kern) == ref_kernel(field, as_ref(a))
    want = ref_solve(field, as_ref(a), as_ref(b))
    assert (sol if sol is None else as_ref(sol)) == want
    consistent = a @ data.draw(matrices(field, c, c2))
    sol = solve_linear(a, consistent)
    assert sol is not None and a @ sol == consistent


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invert_matches_the_reference(data):
    field = data.draw(fields)
    n = data.draw(dims)
    a = data.draw(matrices(field, n, n))
    inv = invert(a)
    ident = ([[field.scalar(int(i == j)) for j in range(n)] for i in range(n)], n)
    want = ref_solve(field, as_ref(a), ident)
    if want is not None and ref_matmul(field, as_ref(a), want) != ident:
        want = None
    assert (inv if inv is None else as_ref(inv)) == want
    if inv is not None:
        assert_canonical(inv)


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_equal_matrices_built_by_different_routes_are_equal_and_hash_alike(data):
    field = data.draw(fields)
    r, k, l, c = data.draw(dims), data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(matrices(field, r, k))
    b = data.draw(matrices(field, k, l))
    d = data.draw(matrices(field, l, c))
    e = data.draw(matrices(field, r, k))
    s = data.draw(nonzero_scalars(field))
    assert_same((a @ b) @ d, a @ (b @ d))
    assert_same(a.scale(s).scale(field.inv_scalar(field.scalar(s))), a)
    assert_same((a + e) - e, a)
    assert_same(a.transpose().transpose(), a)
    assert_same(a - a, Mat.zeros(field, r, k))
    assert_same(Mat.identity(field, r) @ a, a)
    assert_same(Mat.from_rows(field, a.tolists(), k), a)


def test_constructor_reduces_to_lowest_terms():
    QQ = Field.rationals()
    m = Mat(QQ, [[2, -4], [6, 0]], -6)
    assert (m.ints, m.den) == ([(-1, 2), (-3, 0)], 3)
    assert m.tolists() == [[Fraction(-1, 3), Fraction(2, 3)], [-1, 0]]
    assert_same(m, Mat.from_rows(QQ, [[Fraction(1, -3), Fraction(2, 3)], [-1, 0]]))
    zero = Mat(QQ, [[0, 0]], 7)
    assert (zero.ints, zero.den) == ([(0, 0)], 1)
    F7 = Field.prime(7)
    assert Mat(F7, [[-1, 15]], 2).ints == [(3, 4)]
    assert Mat(F7, [], cols=3).shape == (0, 3)
