"""Exact-arithmetic engine for matched pairs and bicrossed products of the
Hopf algebras H4 (Sweedler) and H8 (Kac-Paljutkin).

Everything is computed over Q(i), each number held as Gaussian-integer
numerators over one big-integer denominator, so every check in the
pipeline is exact: no tolerances anywhere.

The public names below load their module on first use (PEP 562), so
`import hopffactor` loads no engine layer and a command pays only for the
layers it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "LeftActionTable": "actions",
    "MatchedPairCandidate": "actions",
    "RightActionTable": "actions",
    "check_matched_pair": "actions",
    "enumerate_left_actions": "actions",
    "enumerate_right_actions": "actions",
    "find_matched_pairs": "actions",
    "left_module_coalgebra_system": "actions",
    "matched_pair_search": "actions",
    "matched_pair_system": "actions",
    "right_module_coalgebra_system": "actions",
    "BicrossedProduct": "bicrossed",
    "build_bicrossed": "bicrossed",
    "invariant_report": "bicrossed",
    "verify_presentation": "bicrossed",
    "zx_signature": "bicrossed",
    "AxiomReport": "hopf",
    "Element": "hopf",
    "HopfAlgebraData": "hopf",
    "grouplikes": "hopf",
    "is_grouplike": "hopf",
    "skew_primitives": "hopf",
    "tensor_product": "hopf",
    "verify_axioms": "hopf",
    "Mat": "linalg",
    "Poly": "poly",
    "build_H4": "presentations",
    "build_H8": "presentations",
    "BACKEND": "scalar",
    "Scalar": "scalar",
    "Branch": "solver",
    "IrreducibleSystemError": "solver",
    "SolutionSet": "solver",
    "gaussian_sqrt": "solver",
    "solve": "solver",
}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
