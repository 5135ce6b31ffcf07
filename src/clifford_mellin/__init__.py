"""Clifford Fourier-Mellin transform over the 4-dimensional algebras Cl(p,q), p+q=2.

Signals on a log-polar grid take values in Cl(2,0), Cl(1,1) or Cl(0,2); the
transform applies a left radial kernel and a right angular kernel built from
any two square roots of -1, and its pointwise magnitude is invariant under
rotation and scaling of the source, which drives the shape descriptors and
the registration pipeline.
"""

from .algebra import (
    CL02,
    CL11,
    CL20,
    SIGNATURES,
    Multivector,
    Signature,
    basis,
    inverse,
    outer_product,
    scalar_product,
)
from .cfmt import (
    Spectrum,
    SymmetryComponents,
    apply_scale_rotate,
    cfmt_direct,
    cfmt_fast,
    cfmt_forward,
    cfmt_inverse,
    check_derivative_theorems,
    check_linearity,
    check_power_scaling,
    direct_spectrum,
    modulate,
    parseval_check,
    plancherel_check,
    predicted_shift_spectrum,
    read_clmf,
    reflect_circle,
    reverse_rotation,
    symmetry_decompose,
    write_clmf,
)
from .errors import (
    CliffordMellinError,
    ContractError,
    DomainError,
    FormatError,
    GeometryError,
    ImageParseError,
    NotARootError,
    OffManifoldError,
    SignatureMismatchError,
    SingularElementError,
)
from .imaging import (
    Descriptor,
    ImageSignalSource,
    RasterImage,
    RegistrationResult,
    descriptor,
    ingest,
    read_image,
    register,
    to_log_polar,
    write_pgm,
    write_ppm,
)
from .roots import (
    RootOfMinusOne,
    RootPair,
    default_pair,
    export_manifold,
    make_pair,
    random_roots,
    sample_root,
    validate_root,
)
from .signal import (
    GridGeometry,
    LogPolarSignal,
    default_geometry,
    inner_product,
    norm,
    random_signal,
    read_clms,
    scalar_inner_product,
    split_signal,
    write_clms,
)
from .split import SplitPair, exp_swap_check, f_split, mixed_scalar, split

__version__ = "0.1.0"
