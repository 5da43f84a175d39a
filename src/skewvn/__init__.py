"""Decompositions of antilinear skew-self-adjoint operators and complex
skew-symmetric matrices: polar factorization through an anticonjugation,
Youla block skew-diagonalization, and Weyl-von Neumann splittings with a
certified Schatten p-norm budget.
"""

from .antilinear import (
    AntilinearOperator,
    Conjugation,
    make_anticonjugation,
    tau_fixed_basis,
    tau_transpose,
)
from .canonical import (
    PolarResult,
    YoulaResult,
    block_skew_matrix,
    polar_factorize,
    youla_decompose,
)
from .cmatio import read_cmat, write_cmat
from .errors import (
    BudgetFailure,
    DimensionMismatch,
    InvalidP,
    InvalidRank,
    KernelMismatch,
    NotOrthonormal,
    NotSkewSymmetric,
    OddDimension,
    OddKernel,
    ParseError,
    SkewvnError,
    ZeroVector,
)
from .generate import gen
from .schatten import schatten_norm, singular_values
from .wvn import (
    SkewWvnResult,
    SpectralResolution,
    StepResult,
    WvnResult,
    kernel_split_wvn,
    rank_projection_step,
    skew_symmetric_wvn,
    skew_wvn_residual,
    spectral_measure_G,
    spectral_resolution,
    wvn_decompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
