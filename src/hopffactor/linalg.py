"""Exact linear algebra over Q(i): one Gauss-Jordan elimination.

`rref` reduces sparse rows {column: Scalar} and serves the dense matrices
here (rank, kernel, invertibility), the sparse null spaces of `kernel`
(skew-primitive spaces), the closures of `hopf._closure` and the solver's
linear batches.  Elimination is exact, so it never pivots on a
numerically "small" entry because there is no rounding to protect
against.  The reduced row echelon form is unique for a fixed column
order, so the result does not depend on which row supplies a pivot.  An
index from each column to the rows that hold it lets each pivot visit
only those rows instead of scanning them all.  `span_basis` gives a
space known by spanning vectors the basis `kernel` gives it.
"""

from hopffactor.scalar import ONE, ZERO


def rref(rows, columns):
    """Gauss-Jordan elimination of sparse rows {column: nonzero Scalar}.

    Columns are eliminated in the order of `columns`, which must cover
    every column the rows use.  Returns the pivot rows in pivot order as
    (pivot column, row) pairs: each row is 1 at its own pivot and absent
    from every other pivot column.  The rows that took no pivot reduce to
    zero and are left out.  The input rows are not modified.

    An index from each column to the rows that hold it (pivot rows
    included) lets a pivot visit only those rows.  The pivot of a column
    is the earliest input row without a pivot that holds it, and every row
    goes through the same eliminations in the same order as in a scan of
    all rows, so even the key order of the returned rows is that of the
    scan.
    """
    rows = [dict(row) for row in rows if row]
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
        prow = rows[k]
        inv = prow[col].inv()
        rows[k] = prow = {c: inv * e for c, e in prow.items()}
        pivoted.add(k)
        negated = [(c, -p) for c, p in prow.items() if c != col]
        for r in hold:
            if r == k:
                continue
            row = rows[r]
            f = row.pop(col)
            for c, p in negated:
                if c in row:
                    s = row[c] + f * p
                    if s.is_zero():
                        del row[c]
                        holders[c].discard(r)
                    else:
                        row[c] = s
                else:
                    row[c] = f * p
                    holders[c].add(r)
        pivots.append((col, prow))
    return pivots


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
