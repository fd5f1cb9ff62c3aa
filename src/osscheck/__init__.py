"""Algebraic curvature tensors and Osserman / Jacobi property checkers."""

from .clifford import CliffordFamily, build_clifford_family, radon_hurwitz_bound, validate_hurwitz
from .curvature import (
    CurvatureTensor,
    jacobi_matrix,
    make_clifford,
    make_constant_curvature,
    make_from_symmetric,
    make_rj,
    random_curvature,
    reduced_jacobi,
    ricci_operator,
    validate_symmetries,
)
from .analysis import (
    RootClassification,
    check_eigen_bianchi_identity,
    check_einstein,
    check_jacobi_dual,
    check_jacobi_orthogonal,
    check_osserman,
    check_polarization,
    check_ricci_sum,
    check_two_root_decomposition,
    classify_k_root,
)
from .linalg import FLOAT64, RATIONAL, PreconditionError, sample_stream
from .report import ARTIFACT_VERSION, CheckReport
from .tensorio import TensorFileError, dump_tensor, load_tensor

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "CheckReport",
    "CliffordFamily",
    "CurvatureTensor",
    "FLOAT64",
    "PreconditionError",
    "RATIONAL",
    "RootClassification",
    "TensorFileError",
    "build_clifford_family",
    "check_eigen_bianchi_identity",
    "check_einstein",
    "check_jacobi_dual",
    "check_jacobi_orthogonal",
    "check_osserman",
    "check_polarization",
    "check_ricci_sum",
    "check_two_root_decomposition",
    "classify_k_root",
    "dump_tensor",
    "jacobi_matrix",
    "load_tensor",
    "make_clifford",
    "make_constant_curvature",
    "make_from_symmetric",
    "make_rj",
    "radon_hurwitz_bound",
    "random_curvature",
    "reduced_jacobi",
    "ricci_operator",
    "sample_stream",
    "validate_hurwitz",
    "validate_symmetries",
]
