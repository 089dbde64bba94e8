"""Exact-arithmetic engine for matched pairs and bicrossed products of the
Hopf algebras H4 (Sweedler) and H8 (Kac-Paljutkin).

Everything is computed over Q(i) with reduced big-integer fractions, so
every check in the pipeline is exact: no tolerances anywhere.
"""

from hopffactor.actions import (
    LeftActionTable,
    MatchedPairCandidate,
    RightActionTable,
    check_matched_pair,
    enumerate_left_actions,
    enumerate_right_actions,
    find_matched_pairs,
    left_module_coalgebra_system,
    matched_pair_search,
    matched_pair_system,
    right_module_coalgebra_system,
)
from hopffactor.bicrossed import (
    BicrossedProduct,
    build_bicrossed,
    invariant_report,
    verify_presentation,
    zx_signature,
)
from hopffactor.hopf import (
    AxiomReport,
    Element,
    HopfAlgebraData,
    grouplikes,
    is_grouplike,
    skew_primitives,
    tensor_product,
    verify_axioms,
)
from hopffactor.linalg import Mat
from hopffactor.poly import Poly
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import BACKEND, Scalar
from hopffactor.solver import (
    Branch,
    IrreducibleSystemError,
    SolutionSet,
    gaussian_sqrt,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BACKEND",
    "BicrossedProduct",
    "Branch",
    "Element",
    "HopfAlgebraData",
    "IrreducibleSystemError",
    "LeftActionTable",
    "Mat",
    "MatchedPairCandidate",
    "Poly",
    "RightActionTable",
    "Scalar",
    "SolutionSet",
    "build_H4",
    "build_H8",
    "build_bicrossed",
    "check_matched_pair",
    "enumerate_left_actions",
    "enumerate_right_actions",
    "find_matched_pairs",
    "gaussian_sqrt",
    "grouplikes",
    "invariant_report",
    "is_grouplike",
    "left_module_coalgebra_system",
    "matched_pair_search",
    "matched_pair_system",
    "right_module_coalgebra_system",
    "skew_primitives",
    "solve",
    "tensor_product",
    "verify_axioms",
    "verify_presentation",
    "zx_signature",
    "__version__",
]
