"""Positivity certificates and constrained minimization for the
lowest-Landau-level quartic energy in the Bargmann-Fock basis."""

from .errors import (
    CertificateFailed,
    DegenerateInput,
    FockminError,
    InconsistentBracket,
    InvalidParameter,
    MuNonPositive,
    NoConvergence,
    NonFiniteParameter,
    NotCentrosymmetric,
    OutOfRange,
    TruncationTooSmall,
)
from .fock import (
    EqualityFamily,
    FockCoefficients,
    FunctionalReport,
    PhiN,
    PhiNAlpha,
    PsiB,
    SemiclassicalPhi,
    angular_momentum,
    apply_translation,
    catalog_coefficients,
    functionals,
    hamiltonian,
    load_coefficients,
    magnetic_momentum,
    mass,
    save_coefficients,
)
from .minimize import (
    Classification,
    MinimizationResult,
    MinimizerClass,
    Mu0Interval,
    OptimizerConfig,
    SemiclassicalReport,
    ZeroCount,
    classify,
    count_zeros,
    estimate_mu0,
    minimize_G,
    scan_mu,
    scan_to_csv,
    semiclassical,
)
from .spectra import (
    BlockKind,
    BlockMatrix,
    build_B_block,
    centro_decompose,
    null_vectors,
    scaled_block,
    symmetric_eigenvalues,
)
from .sturm import (
    SturmCertificate,
    positivity_certificate,
    sturm_sequence,
)

__version__ = "0.1.0"
