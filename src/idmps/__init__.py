"""Dense tensors to matrix product states in four canonical forms,
with gauge verification, Schmidt spectra, truncation, and an analytical
coupled-oscillator example."""

from types import ModuleType as _ModuleType

from .errors import (
    CenterOutOfRange,
    ConvergenceFailure,
    CutOutOfRange,
    DegreeTooLarge,
    DimChainBroken,
    EmptyShape,
    FileFormatError,
    FormMismatch,
    IdmpsError,
    IndexOutOfRange,
    InsufficientNodes,
    KeepOutOfRange,
    LengthMismatch,
    PolicyEmpty,
    ShapeMismatch,
    TooLarge,
    ZeroState,
)
from .io import load_mps, load_tensor, save_mps, save_tensor
from .mps import (
    FORMS,
    BondSpectrum,
    CutDiagnostics,
    GaugeReport,
    MatrixProductState,
    SiteTensor,
    TruncationPolicy,
    apply_site_map,
    bond_spectrum,
    coefficient,
    decompose,
    entanglement_entropy,
    from_dense_left_canonical,
    from_dense_mixed_canonical,
    from_dense_right_canonical,
    from_dense_vidal,
    site_left_residual,
    site_right_residual,
    state_norm,
    to_dense,
    truncate,
    verify,
    verify_left_normalized,
    verify_right_normalized,
    verify_vidal,
)
from .oscillator import (
    MAX_HERMITE_DEGREE,
    OscillatorMpsBundle,
    OscillatorParams,
    alpha,
    basis_f,
    build_bundle,
    coeff_C,
    direction_cosines,
    element_decay_table,
    gamma,
    hermite,
    integral_I_closed,
    integral_I_quadrature,
    oscillator_dense,
    wavefunction_direct,
    wavefunction_mps,
)
from .schmidt import (
    SchmidtDecomposition,
    entropy_from_values,
    schmidt_decompose,
    schmidt_entropy,
    schmidt_reconstruct,
)
from .tensor import (
    DEFAULT_RANK_TOL,
    MAX_ENTRIES,
    DenseTensor,
    SvdResult,
    dematricize,
    low_rank_error,
    matricize,
    svd,
    tensor_new,
    tensor_norm,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
