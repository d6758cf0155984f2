"""Exact linear algebra over a prime field or the rationals.

Everything else in the package reduces to the operations in this module.
Matrices are immutable-by-convention wrappers around numpy arrays: int64
entries reduced mod p for prime fields (with an object-dtype fallback for
primes too large for safe int64 products), `fractions.Fraction` entries for
the rationals.  Over the rationals, elimination and products run on Python
integers (rows and operands cleared of denominators) and only their results
are boxed as `Fraction`s.  All arithmetic is exact; there are no tolerances
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import ShapeMismatch

# Above this, n*p^2 may not fit in int64 for desk-scale n; fall back to objects.
_INT64_SAFE_PRIME = 2**25


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """A prime field F_p or the rationals (p is None)."""

    p: int | None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def _fast(self) -> bool:
        return self.p is not None and self.p < _INT64_SAFE_PRIME

    # scalar helpers -------------------------------------------------------

    def scalar(self, value) -> int | Fraction:
        """Canonical form of a scalar (int in [0,p) or a Fraction)."""
        if self.p is not None:
            return int(value) % self.p
        if isinstance(value, Fraction):
            return value
        return Fraction(value)

    def scalar_from_string(self, text: str):
        text = text.strip()
        if self.p is not None:
            if "/" in text:
                num, den = text.split("/")
                return (int(num) * pow(int(den), -1, self.p)) % self.p
            return int(text) % self.p
        return Fraction(text)

    def scalar_to_string(self, value) -> str:
        return str(value)

    def inv_scalar(self, value):
        if self.p is not None:
            return pow(int(value) % self.p, -1, self.p)
        return Fraction(1) / value

    def neg_scalar(self, value):
        if self.p is not None:
            return (-int(value)) % self.p
        return -value

    def random_scalar(self, rng):
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randrange(-9, 10))

    # array plumbing -------------------------------------------------------

    def _dtype(self):
        return np.int64 if self._fast else object

    def _reduce(self, a: np.ndarray) -> np.ndarray:
        if self.p is None:
            return a
        return a % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        if self._dtype() is object:
            return np.zeros((rows, cols), dtype=object)
        return np.zeros((rows, cols), dtype=np.int64)

    def eye_array(self, n: int) -> np.ndarray:
        a = self.zeros(n, n)
        for i in range(n):
            a[i, i] = 1
        return a


class Mat:
    """A rows x cols matrix over a field, entries in canonical form."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, array: np.ndarray):
        a = np.asarray(array)
        if a.ndim != 2:
            raise ShapeMismatch(f"expected a 2d array, got shape {a.shape}")
        if field._fast:
            a = np.asarray(a, dtype=np.int64) % field.p
        else:
            b = np.empty(a.shape, dtype=object)
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    b[i, j] = field.scalar(a[i, j])
            a = b
        self.field = field
        self.a = a

    # constructors ---------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: list[list]) -> "Mat":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatch("ragged row lengths")
        a = field.zeros(nrows, ncols)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                a[i, j] = field.scalar(v)
        return Mat._wrap(field, a)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return Mat._wrap(field, field.zeros(rows, cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return Mat._wrap(field, field.eye_array(n))

    @staticmethod
    def _wrap(field: Field, array: np.ndarray) -> "Mat":
        m = Mat.__new__(Mat)
        m.field = field
        m.a = array
        return m

    # views ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def entries(self) -> list:
        """Row-major list of canonical scalars."""
        return [self.a[i, j] for i in range(self.rows) for j in range(self.cols)]

    def tolists(self) -> list[list]:
        return [[self.a[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def copy(self) -> "Mat":
        return Mat._wrap(self.field, self.a.copy())

    def is_zero(self) -> bool:
        return self.rows == 0 or self.cols == 0 or not np.any(self.a != 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.all(self.a == other.a))
        )

    def __hash__(self):
        return hash((self.field, self.shape, tuple(self.entries())))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.tolists()})"

    # arithmetic -------------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        if self.rows == 0 or other.cols == 0:
            return Mat.zeros(self.field, self.rows, other.cols)
        if self.cols == 0:
            return Mat.zeros(self.field, self.rows, other.cols)
        if self.field.p is None:
            return Mat._wrap(self.field, _rational_matmul(self.a, other.a))
        prod = np.dot(self.a, other.a)
        return Mat._wrap(self.field, self.field._reduce(prod))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} + {other.shape}")
        return Mat._wrap(self.field, self.field._reduce(self.a + other.a))

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} - {other.shape}")
        return Mat._wrap(self.field, self.field._reduce(self.a - other.a))

    def __neg__(self) -> "Mat":
        return Mat._wrap(self.field, self.field._reduce(-self.a))

    def scale(self, c) -> "Mat":
        c = self.field.scalar(c)
        return Mat._wrap(self.field, self.field._reduce(self.a * c))

    def transpose(self) -> "Mat":
        return Mat._wrap(self.field, self.a.T.copy())


def hstack(mats: list[Mat]) -> Mat:
    field = mats[0].field
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeMismatch("hstack with differing row counts")
    return Mat._wrap(field, np.hstack([m.a for m in mats]))


def vstack(mats: list[Mat]) -> Mat:
    field = mats[0].field
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeMismatch("vstack with differing column counts")
    return Mat._wrap(field, np.vstack([m.a for m in mats]))


# ---------------------------------------------------------------------------
# rationals on integers

_ZERO = Fraction(0)


def _integer_form(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(ints, den) with a == ints / den: one common denominator for all of a."""
    flat = a.ravel().tolist()
    den = lcm(*(x.denominator for x in flat))
    nums = [x.numerator * (den // x.denominator) for x in flat]
    ints = np.empty(len(nums), dtype=object)
    ints[:] = nums
    return ints.reshape(a.shape), den


def _rational_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for Fraction arrays: one integer product, then one Fraction per entry."""
    ia, da = _integer_form(a)
    ib, db = _integer_form(b)
    prod = np.dot(ia, ib)
    den = da * db
    entries = [Fraction(v, den) if v else _ZERO for v in prod.ravel().tolist()]
    out = np.empty(len(entries), dtype=object)
    out[:] = entries
    return out.reshape(prod.shape)


def _rational_rref(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Sparse fraction-free Gauss-Jordan elimination of a Fraction array.

    Each row is cleared to a primitive integer vector, kept as {column: value}.
    A pivot row p with pivot entry P updates only the rows r nonzero in its
    column c, as r <- (P/g) r - (r[c]/g) p with g = gcd(P, r[c]), touching only
    p's support when P/g == 1; a row so scaled is divided by the gcd of its
    entries.  Pivot rows become Fractions once, at the end.  The reduced row
    echelon form is unique, so this is the dense elimination's result.
    """
    nrows, ncols = a.shape
    pending = []
    for entries in a.tolist():
        row = {j: x for j, x in enumerate(entries) if x}
        if row:
            den = lcm(*(x.denominator for x in row.values()))
            pending.append({j: x.numerator * (den // x.denominator) for j, x in row.items()})
    done: list[tuple[int, dict]] = []
    while pending:
        c = min(min(row) for row in pending)
        k = next(k for k, row in enumerate(pending) if c in row)
        prow = pending.pop(k)
        p = prow[c]
        for _, row in done:
            if c in row:
                _eliminate(row, c, prow, p)
        keep = []
        for row in pending:
            if c in row:
                _eliminate(row, c, prow, p)
            if row:
                keep.append(row)
        pending = keep
        done.append((c, prow))
    out = np.full((nrows, ncols), _ZERO, dtype=object)
    for i, (c, row) in enumerate(done):
        p = row[c]
        for j, x in row.items():
            out[i, j] = Fraction(x, p)
    return out, tuple(c for c, _ in done)


def _eliminate(row: dict, c: int, prow: dict, p: int) -> None:
    """row <- (p/g) row - (row[c]/g) prow in place; made primitive if scaled."""
    x = row[c]
    g = gcd(p, x)
    scale, x = p // g, x // g
    if scale != 1:
        for j in row:
            row[j] *= scale
    for j, v in prow.items():
        y = row.get(j, 0) - x * v
        if y:
            row[j] = y
        else:
            del row[j]
    if row and scale != 1:
        g = gcd(*row.values())
        if g != 1:
            for j in row:
                row[j] //= g


# ---------------------------------------------------------------------------
# Gaussian elimination


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; row space preserved.

    Over the rationals this is a sparse fraction-free elimination on
    integers; over prime fields, a Gauss-Jordan elimination on Python int
    rows.
    """
    field = m.field
    if field.p is None:
        red, pivots = _rational_rref(m.a)
        return Mat._wrap(field, red), pivots
    red, pivots = _residue_rref(m.a, field)
    return Mat._wrap(field, red), pivots


def _residue_rref(a: np.ndarray, field: Field) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination mod p on Python int rows, wrapped once.

    A pivot row updates only the rows nonzero in its column, and in them only
    the columns where the pivot row is nonzero."""
    p = field.p
    nrows, ncols = a.shape
    if not nrows:
        return field.zeros(0, ncols), ()
    rows = a.tolist()
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        inv = pow(prow[c], -1, p)
        support = [(j, v * inv % p) for j, v in enumerate(prow[c:], c) if v]
        for j, v in support:
            prow[j] = v
        for k, row in enumerate(rows):
            x = row[c]
            if x and k != r:
                for j, v in support:
                    row[j] = (row[j] - x * v) % p
        pivots.append(c)
    return np.array(rows, dtype=field._dtype()), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Matrix whose columns form a basis of the null space of m."""
    field = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = field.zeros(m.cols, len(free))
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = field.neg_scalar(red.a[i, f])
    return Mat._wrap(field, basis)


def solve_linear(a: Mat, b: Mat) -> Mat | None:
    """Some x with a @ x = b, or None when the system is inconsistent."""
    if a.rows != b.rows:
        raise ShapeMismatch(f"solve with {a.shape} vs rhs {b.shape}")
    field = a.field
    red, pivots = rref(hstack([a, b]))
    if any(p >= a.cols for p in pivots):
        return None
    x = field.zeros(a.cols, b.cols)
    for i, pc in enumerate(pivots):
        x[pc, :] = red.a[i, a.cols :]
    return Mat._wrap(field, x)


def column_space_basis(m: Mat) -> Mat:
    """Columns of m restricted to a maximal independent subset."""
    _, pivots = rref(m)
    cols = [m.a[:, [c]] for c in pivots]
    if not cols:
        return Mat.zeros(m.field, m.rows, 0)
    return Mat._wrap(m.field, np.hstack(cols))


def is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def invert(m: Mat) -> Mat | None:
    if m.rows != m.cols:
        return None
    x = solve_linear(m, Mat.identity(m.field, m.rows))
    if x is None:
        return None
    # a square solve can succeed on singular systems only if rhs is consistent;
    # verify both sides to certify a genuine inverse
    if (m @ x) != Mat.identity(m.field, m.rows):
        return None
    return x
