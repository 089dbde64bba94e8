"""Exact linear algebra over Q(i): one Gauss-Jordan elimination.

`rref` reduces sparse rows {column: Scalar} and serves the dense matrices
here (rank, kernel, invertibility), the sparse null spaces of `kernel`
(skew-primitive spaces) and the solver's linear batches.  Elimination is
exact, so it never pivots on a numerically "small" entry because there is
no rounding to protect against.  The reduced row echelon form is unique
for a fixed column order, so the result does not depend on which row
supplies a pivot.
"""

from hopffactor.scalar import ONE, ZERO


def rref(rows, columns):
    """Gauss-Jordan elimination of sparse rows {column: nonzero Scalar}.

    Columns are eliminated in the order of `columns`, which must cover
    every column the rows use.  Returns the pivot rows in pivot order as
    (pivot column, row) pairs: each row is 1 at its own pivot and absent
    from every other pivot column.  The rows that took no pivot reduce to
    zero and are left out.  The input rows are not modified.
    """
    rows = [dict(row) for row in rows if row]
    pivots = []
    for col in columns:
        k = next((k for k, row in enumerate(rows) if col in row), None)
        if k is None:
            continue
        prow = rows.pop(k)
        inv = prow[col].inv()
        prow = {c: inv * e for c, e in prow.items()}
        for row in [row for _, row in pivots] + rows:
            f = row.pop(col, None)
            if f is None:
                continue
            for c, p in prow.items():
                if c == col:
                    continue
                s = row[c] - f * p if c in row else -(f * p)
                if s.is_zero():
                    del row[c]
                else:
                    row[c] = s
        rows = [row for row in rows if row]
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
