"""Dense exact linear algebra over Q(i): rank, kernel and invertibility.

Matrices are immutable row-major rectangles of Scalars.  Gaussian
elimination is exact, so it never pivots on a numerically "small" entry
because there is no rounding to protect against.  Matrix sizes in this
engine top out at the 32x32 maps of the bicrossed products, so no sparse
machinery is needed.
"""

from hopffactor.scalar import ONE, ZERO


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

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        rows = [list(row) for row in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(n):
            pivot_row = None
            for i in range(r, m):
                if not rows[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = rows[r][c].inv()
            rows[r] = [inv * e for e in rows[r]]
            for i in range(m):
                if i != r and not rows[i][c].is_zero():
                    f = rows[i][c]
                    rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return Mat(rows), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right null space, one vector per free column."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [ZERO] * self.ncols
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(tuple(v))
        return basis

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows
