"""Exact linear algebra over a prime field or the rationals.

Everything else in the package reduces to the operations in this module.
A matrix is a list of rows of Python integers.  Over a prime field F_p the
entries are residues in [0, p), for every p.  Over the rationals the matrix
is its integer rows over one common denominator `den`, kept canonical:
den > 0 and gcd(den, every entry) == 1, so that equal matrices have equal
rows and denominators.  Products, sums and eliminations run on the integers
alone; entries become `fractions.Fraction`s only where they leave this
module (indexing, `entries`, `tolists`).  All arithmetic is exact; there
are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import SchemaError, ShapeMismatch


# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson-Webster, Strong pseudoprimes to twelve prime bases, Math. Comp.
# 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality of n < _MR_BOUND; SchemaError beyond it."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise SchemaError(f"cannot certify that {n} is prime: moduli must be below {_MR_BOUND}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


class Mat:
    """A rows x cols matrix over a field: the list `ints` of integer rows
    over the denominator `den`, in canonical form (residues in [0, p) and
    den == 1 over F_p; den > 0 and gcd(den, every entry) == 1 over Q).
    Immutable by convention.  Each row is a tuple: a tuple of ints drops out
    of the cycle collector's tracking once it has been seen, so the many
    matrices a knit keeps in its caches cost later collections nothing."""

    __slots__ = ("field", "ints", "den", "rows", "cols")

    def __init__(self, field: Field, ints: list, den: int = 1, cols: int | None = None):
        """The matrix ints / den, for rows of integers, made canonical; cols
        is needed only when ints has no rows."""
        ncols = _row_length(ints, cols)
        if not den:
            raise ZeroDivisionError("matrix with denominator 0")
        p = field.p
        if p is not None:
            inv = pow(den, -1, p)
            ints = [tuple([x * inv % p for x in r]) for r in ints]
            den = 1
        else:
            ints = [tuple(r) for r in ints]
        ints, den = _lowest_terms(ints, den)
        self.field = field
        self.ints = ints
        self.den = den
        self.rows = len(ints)
        self.cols = ncols

    # constructors ---------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: list[list], cols: int | None = None) -> "Mat":
        """The matrix of a list of rows of scalars (anything field.scalar takes)."""
        if field.p is not None:
            ints = [tuple([field.scalar(v) for v in r]) for r in rows]
            return _mat(field, ints, 1, _row_length(ints, cols))
        rows = [[field.scalar(v) for v in r] for r in rows]
        den = lcm(*(v.denominator for r in rows for v in r))
        ints = [tuple([v.numerator * (den // v.denominator) for v in r]) for r in rows]
        return _canonical(field, ints, den, _row_length(ints, cols))

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return _mat(field, [(0,) * cols] * rows, 1, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return _mat(field, [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)], 1, n)

    @staticmethod
    def from_blocks(field: Field, rows: int, cols: int, blocks) -> "Mat":
        """The rows x cols matrix holding each block of the (row, col, block)
        triples at that offset, and zeros elsewhere."""
        blocks = list(blocks)
        den = lcm(*(b.den for _, _, b in blocks))
        ints = [[0] * cols for _ in range(rows)]
        for r, c, b in blocks:
            f = den // b.den
            for i, row in enumerate(b.ints, r):
                ints[i][c : c + b.cols] = row if f == 1 else [x * f for x in row]
        return _canonical(field, [tuple(r) for r in ints], den, cols)

    # views ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def _scalar(self, x: int):
        if self.field.p is not None:
            return x
        return Fraction(x, self.den)

    def __getitem__(self, key):
        """m[i, j] is an entry; with a slice or a list of indices in either
        place, m[rows, cols] is that submatrix."""
        i, j = key
        if isinstance(i, int) and isinstance(j, int):
            return self._scalar(self.ints[i][j])
        picked = self.ints[i] if isinstance(i, slice) else [self.ints[k] for k in i]
        if isinstance(j, slice):
            ints = [r[j] for r in picked]
            ncols = len(range(self.cols)[j])
        else:
            ints = [tuple([r[k] for k in j]) for r in picked]
            ncols = len(j)
        return _canonical(self.field, ints, self.den, ncols)

    def entries(self) -> list:
        """Row-major list of canonical scalars."""
        return [self._scalar(x) for r in self.ints for x in r]

    def tolists(self) -> list[list]:
        return [[self._scalar(x) for x in r] for r in self.ints]

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries, read row by row, as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ShapeMismatch(f"reshape {self.shape} to {(rows, cols)}")
        flat = tuple(chain.from_iterable(self.ints))
        ints = [flat[k * cols : (k + 1) * cols] for k in range(rows)]
        return _mat(self.field, ints, self.den, cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.den, tuple(self.ints)))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.tolists()})"

    # arithmetic -------------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        ints = _product(self.ints, other.ints, other.cols, self.field.p)
        return _canonical(self.field, ints, self.den * other.den, other.cols)

    def _combine(self, other: "Mat", sign: int, op: str) -> "Mat":
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} {op} {other.shape}")
        pairs = zip(self.ints, other.ints)
        p = self.field.p
        if p is not None:
            ints = [tuple([(x + sign * y) % p for x, y in zip(r, s)]) for r, s in pairs]
            return _mat(self.field, ints, 1, self.cols)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        ints = [tuple([x * fa + y * fb for x, y in zip(r, s)]) for r, s in pairs]
        return _canonical(self.field, ints, den, self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1, "+")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1, "-")

    def __neg__(self) -> "Mat":
        p = self.field.p
        if p is not None:
            return _mat(self.field, [tuple([-x % p for x in r]) for r in self.ints], 1, self.cols)
        return _mat(self.field, [tuple([-x for x in r]) for r in self.ints], self.den, self.cols)

    def scale(self, c) -> "Mat":
        c = self.field.scalar(c)
        p = self.field.p
        if p is not None:
            ints = [tuple([x * c % p for x in r]) for r in self.ints]
            return _mat(self.field, ints, 1, self.cols)
        ints = [tuple([x * c.numerator for x in r]) for r in self.ints]
        return _canonical(self.field, ints, self.den * c.denominator, self.cols)

    def transpose(self) -> "Mat":
        ints = list(zip(*self.ints)) if self.rows else [()] * self.cols
        return _mat(self.field, ints, self.den, self.rows)


def _product(a: list, b: list, ncols: int, p: int | None) -> list:
    """The integer rows of a @ b, for b with ncols columns, reduced mod p
    unless p is None; a zero row of a gives a zero row at once.  Each row is
    summed from the nonzero entries of the row of a and of the rows of b
    alone, so sparse factors cost only their nonzero entries.  Against one
    column, the commonest product of a knit, each entry is a dot product."""
    zero = (0,) * ncols
    if ncols == 1:
        c = [r[0] for r in b]
        if p is None:
            return [(sum(map(mul, r, c)),) if any(r) else zero for r in a]
        return [(sum(map(mul, r, c)) % p,) if any(r) else zero for r in a]
    support = [[(j, y) for j, y in enumerate(r) if y] for r in b]
    out = []
    for r in a:
        if not any(r):
            out.append(zero)
            continue
        acc = [0] * ncols
        for k, x in enumerate(r):
            if x:
                for j, y in support[k]:
                    acc[j] += x * y
        out.append(tuple(acc) if p is None else tuple([v % p for v in acc]))
    return out


def _row_length(ints: list, cols: int | None) -> int:
    """The common length of the rows, which must be cols if that is given;
    cols is needed only when there are no rows."""
    ncols = len(ints[0]) if ints else (cols or 0)
    if (cols is not None and cols != ncols) or any(len(r) != ncols for r in ints):
        raise ShapeMismatch("ragged row lengths")
    return ncols


def _mat(field: Field, ints: list, den: int, cols: int) -> Mat:
    """The Mat ints / den, which must already be canonical."""
    m = Mat.__new__(Mat)
    m.field = field
    m.ints = ints
    m.den = den
    m.rows = len(ints)
    m.cols = cols
    return m


def _lowest_terms(ints: list, den: int) -> tuple[list, int]:
    """(ints, den) divided through by gcd(den, every entry), den made positive."""
    if den == 1:
        return ints, den
    g = gcd(den, *chain.from_iterable(ints))
    if den < 0:
        g = -g
    if g == 1:
        return ints, den
    return [tuple([x // g for x in r]) for r in ints], den // g


def _canonical(field: Field, ints: list, den: int, cols: int) -> Mat:
    """The Mat ints / den, for tuple rows already reduced mod p over F_p
    (where den is 1) and in any terms over Q."""
    return _mat(field, *_lowest_terms(ints, den), cols)


def _common_denominator(mats: list[Mat]) -> tuple[list, int]:
    """(the integer rows of each matrix over den, den) for the lcm den of
    the denominators; a matrix already over den keeps its rows."""
    den = lcm(*(m.den for m in mats))
    parts = [
        m.ints if m.den == den else [tuple([x * (den // m.den) for x in r]) for r in m.ints]
        for m in mats
    ]
    return parts, den


def hstack(mats: list[Mat]) -> Mat:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeMismatch("hstack with differing row counts")
    parts, den = _common_denominator(mats)
    columns = [c for part in parts for c in zip(*part)]
    ints = list(zip(*columns)) if columns else [()] * rows
    return _mat(mats[0].field, ints, den, sum(m.cols for m in mats))


def vstack(mats: list[Mat]) -> Mat:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeMismatch("vstack with differing column counts")
    parts, den = _common_denominator(mats)
    return _mat(mats[0].field, list(chain.from_iterable(parts)), den, cols)


# ---------------------------------------------------------------------------
# rationals on integers


def _rational_rref(ints: list, ncols: int) -> tuple[list, int, tuple[int, ...]]:
    """Sparse fraction-free Gauss-Jordan elimination of integer rows; the
    reduced row echelon form of a rational matrix is that of its integer
    rows, whatever their denominator.

    Each row is cleared to a primitive integer vector, kept as {column: value}.
    A pivot row p with pivot entry P updates only the rows r nonzero in its
    column c, as r <- (P/g) r - (r[c]/g) p with g = gcd(P, r[c]), touching only
    p's support when P/g == 1; a row so scaled is divided by the gcd of its
    entries.  Pivot row i, divided by its pivot entry, ends as integers over
    its own denominator, and all of them over the lcm of those.  The reduced
    row echelon form is unique, so this is the dense elimination's result.
    Returns (integer rows, denominator, pivots).
    """
    pending = []
    for r in ints:
        row = {j: x for j, x in enumerate(r) if x}
        if row:
            g = gcd(*row.values())
            pending.append({j: x // g for j, x in row.items()} if g != 1 else row)
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
    # row / row[c] in lowest terms is (row / g) / (row[c] / g)
    lowest = []
    for c, row in done:
        g = gcd(*row.values())
        if row[c] < 0:
            g = -g
        lowest.append((row, g, row[c] // g))
    den = lcm(*(d for _, _, d in lowest))
    out = [(0,) * ncols] * len(ints)
    for i, (row, g, d) in enumerate(lowest):
        f = den // d
        dense = [0] * ncols
        for j, x in row.items():
            dense[j] = x // g * f
        out[i] = tuple(dense)
    return out, den, tuple(c for c, _ in done)


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

    Over the rationals this is a sparse fraction-free elimination on the
    integer rows; over prime fields, a Gauss-Jordan elimination on the
    residue rows.
    """
    field = m.field
    if field.p is None:
        ints, den, pivots = _rational_rref(m.ints, m.cols)
        return _mat(field, ints, den, m.cols), pivots
    ints, pivots = _residue_rref(m.ints, m.cols, field.p)
    return _mat(field, ints, 1, m.cols), pivots


def _residue_rref(ints: list, ncols: int, p: int) -> tuple[list, tuple[int, ...]]:
    """Gauss-Jordan elimination mod p on copies of the residue rows.

    A pivot row updates only the rows nonzero in its column, and in them only
    the columns where the pivot row is nonzero."""
    rows = [list(r) for r in ints]
    nrows = len(rows)
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
    return [tuple(r) for r in rows], tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Matrix whose columns form a basis of the null space of m."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    # column k is e_f minus the reduced rows' entries in column f, over red.den
    p = m.field.p
    basis = [[0] * len(free) for _ in range(m.cols)]
    for k, f in enumerate(free):
        basis[f][k] = red.den
        for i, pc in enumerate(pivots):
            x = red.ints[i][f]
            basis[pc][k] = -x % p if p is not None else -x
    return _canonical(m.field, [tuple(r) for r in basis], red.den, len(free))


def solve_linear(a: Mat, b: Mat) -> Mat | None:
    """Some x with a @ x = b, or None when the system is inconsistent."""
    if a.rows != b.rows:
        raise ShapeMismatch(f"solve with {a.shape} vs rhs {b.shape}")
    red, pivots = rref(hstack([a, b]))
    if any(p >= a.cols for p in pivots):
        return None
    x = [(0,) * b.cols] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = red.ints[i][a.cols :]
    return _canonical(a.field, x, red.den, b.cols)


def column_space_basis(m: Mat) -> Mat:
    """Columns of m restricted to a maximal independent subset."""
    _, pivots = rref(m)
    return m[:, list(pivots)]


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
