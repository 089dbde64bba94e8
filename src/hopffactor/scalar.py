"""Ground-field scalars: the Gaussian rationals Q(i).

Every constant in the engine lives in Q(i) (the constructions only ever
need 1/2, roots of unity +-1, +-i and (1+-i)^-1), which keeps all checks
decidable and exact.  The arithmetic itself is in `hopffactor._scalar_py`.
"""

from hopffactor._scalar_py import Scalar

BACKEND = "python"

ZERO = Scalar(0)
ONE = Scalar(1)
TWO = Scalar(2)
NEG_ONE = Scalar(-1)
HALF = Scalar(1, 2)
I = Scalar(0, 1, 1, 1)
NEG_I = Scalar(0, 1, -1, 1)
