"""Exact linear algebra over Q(i): one Gauss-Jordan elimination.

`rref_int` reduces sparse rows of Gaussian-integer numerators (re, im),
each row over one denominator, the form in which `Poly` and `Scalar` store
their coefficients, so the elimination multiplies and adds ints and makes
no Scalar.  The solver's linear batches hand it their polynomials'
numerators directly.  `rref` takes rows {column: Scalar}, converting them
on the way in and out, and serves the dense matrices here (rank, kernel,
invertibility), the sparse null spaces of `kernel` (skew-primitive spaces)
and the closures of `hopf._closure`.  Elimination is exact, so it never
pivots on a numerically "small" entry because there is no rounding to
protect against.  The reduced row echelon form is unique for a fixed
column order, so the result does not depend on which row supplies a
pivot.  An index from each column to the rows that hold it lets each
pivot visit only those rows instead of scanning them all.  `span_basis`
gives a space known by spanning vectors the basis `kernel` gives it.
"""

from math import gcd, lcm

from hopffactor.scalar import ONE, ZERO, _make


def rref(rows, columns):
    """Gauss-Jordan elimination of sparse rows {column: nonzero Scalar}.

    Columns are eliminated in the order of `columns`, which must cover
    every column the rows use.  Returns the pivot rows in pivot order as
    (pivot column, row) pairs: each row is 1 at its own pivot and absent
    from every other pivot column.  The rows that took no pivot reduce to
    zero and are left out.  The input rows are not modified.  The
    elimination is `rref_int`'s, on each row's numerators over the lcm of
    its denominators."""
    int_rows = []
    for row in rows:
        if row:
            den = lcm(*[e.den for e in row.values()])
            int_rows.append(
                ({c: (e.re * (den // e.den), e.im * (den // e.den)) for c, e in row.items()}, den)
            )
    return [
        (col, {c: _make(re, im, den) for c, (re, im) in row.items()})
        for col, row, den in rref_int(int_rows, columns)
    ]


def rref_int(rows, columns):
    """Gauss-Jordan elimination of sparse rows (numerators, den): the entry
    of a row at column c is (re + im*i)/den for numerators[c] = (re, im),
    every pair is nonzero and den > 0.  The dicts are the caller's to give
    up: they are reduced in place.
    Returns (pivot column, numerators, den) triples in pivot order, as
    `rref` returns its rows: the pivot entry reads (den, 0), and den
    shares no factor with all the numerators of its row.

    An index from each column to the rows that hold it (pivot rows
    included) lets a pivot visit only those rows.  The pivot of a column
    is the earliest input row without a pivot that holds it, and every row
    goes through the same eliminations in the same order as in a scan of
    all rows, so even the key order of the returned rows is that of the
    scan.  Eliminating a pivot row over dp from a row over dr puts that
    row over dr*dp, then reduces it; rows over 1 stay over 1 while the
    pivot rows are over 1, as a pivot numerator of 1, -1, i or -i makes
    them.
    """
    rows, dens = [row for row, _ in rows], [den for _, den in rows]
    holders = {}
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(r)
    pivoted = set()
    pivots = []
    for col in columns:
        hold = holders.pop(col, set())
        k = min(hold - pivoted, default=None)
        if k is None:
            continue
        # divide the row by its pivot (a + bi)/den: an entry (x + yi)/den
        # becomes (x + yi)(a - bi)/(a^2 + b^2)
        prow = rows[k]
        a, b = prow[col]
        if b == 0:
            if a < 0:
                prow = {c: (-x, -y) for c, (x, y) in prow.items()}
            dp = abs(a)
        else:
            prow = {c: (x * a + y * b, y * a - x * b) for c, (x, y) in prow.items()}
            dp = a * a + b * b
        rows[k], dens[k] = prow, dp = _reduced(prow, dp)
        pivoted.add(k)
        negated = [(c, -x, -y) for c, (x, y) in prow.items() if c != col]
        for r in hold:
            if r == k:
                continue
            row = rows[r]
            fr, fi = row.pop(col)
            dr = dens[r]
            if dp != 1:
                for c, (x, y) in row.items():
                    row[c] = (x * dp, y * dp)
                dr *= dp
            for c, x, y in negated:
                re, im = fr * x - fi * y, fr * y + fi * x
                cur = row.get(c)
                if cur is None:
                    row[c] = (re, im)
                    holders[c].add(r)
                else:
                    re += cur[0]
                    im += cur[1]
                    if re or im:
                        row[c] = (re, im)
                    else:
                        del row[c]
                        holders[c].discard(r)
            if dr != 1:
                rows[r], dr = _reduced(row, dr)
            dens[r] = dr
        pivots.append((col, k))
    return [(col, rows[k], dens[k]) for col, k in pivots]


def _reduced(row, den):
    """(row, den) with den and the numerators divided by their common
    factor."""
    g = den
    for x, y in row.values():
        g = gcd(g, x, y)
        if g == 1:
            return row, den
    return {c: (x // g, y // g) for c, (x, y) in row.items()}, den // g


def kernel(rows, ncols):
    """Basis of the right null space of sparse rows {column: nonzero
    Scalar} over columns 0..ncols-1: one vector per free column, in column
    order, 1 at that column and minus its pivot rows' entries at their
    pivots.  Repeated rows reduce to zero in `rref`, so callers need not
    deduplicate them."""
    pivots = rref(rows, range(ncols))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, row in pivots:
            e = row.get(fc)
            if e is not None:
                v[pc] = -e
        basis.append(tuple(v))
    return basis


def span_basis(vectors, ncols):
    """Basis of the span of dense vectors over columns 0..ncols-1, in the
    form `kernel` gives a null space: one vector per free column, in
    column order, 1 at that column and 0 at the other free columns.  A
    space has one such basis once its free columns are fixed.  Those of
    `kernel` are the columns left over by pivoting from the left on rows
    whose null space is the span; they are the pivots of the spanning
    vectors taken from the right, because the two column matroids are dual
    and the complement of the greedy basis of one is the greedy basis of
    the other in the opposite order."""
    rows = ({c: e for c, e in enumerate(v) if not e.is_zero()} for v in vectors)
    basis = []
    for _, row in sorted(rref(rows, range(ncols - 1, -1, -1)), key=lambda p: p[0]):
        basis.append(tuple(row.get(c, ZERO) for c in range(ncols)))
    return basis


class Mat:
    """Immutable exact matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    def _sparse_rows(self):
        return ({c: e for c, e in enumerate(row) if not e.is_zero()} for row in self.rows)

    def rank(self):
        return len(rref(self._sparse_rows(), range(self.ncols)))

    def kernel(self):
        """Basis of the right null space, one vector per free column."""
        return kernel(self._sparse_rows(), self.ncols)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows
