"""2-D EIT toolkit: complete-electrode-model simulation and reconstruction
with a uniformly anisotropic conductivity parameterization that absorbs
boundary-model error."""

from anisoeit.geometry import (
    BoundaryCurve,
    DomainSpec,
    ElectrodeLayout,
    GeometryError,
    Mesh,
    PixelLattice,
    build_boundary,
    build_pixel_lattice,
    place_electrodes,
    triangulate,
)
from anisoeit.tensors import (
    Diffeo,
    TensorError,
    TensorField,
    UniformAnisoParams,
    anisotropy,
    canonicalize,
    det_sqrt,
    gamma_hat,
    push_forward,
)
from anisoeit.fem import (
    CEMSystem,
    DataVector,
    MeasurementProtocol,
    ModelError,
    adjacent_protocol,
    assemble,
    electrode_matrix,
    simulate_measurements,
    solve_current_drive,
)
from anisoeit.inverse import (
    BarrierSchedule,
    GNSettings,
    ReconError,
    ReconState,
    RegWeights,
    gauss_newton_reconstruct,
    isotropic_reconstruct,
    jacobian,
    objective,
)
from anisoeit.harness import (
    ExperimentConfig,
    Inclusion,
    Phantom,
    RunReport,
    builtin_configs,
    export_field_image,
    run_experiment,
    verify_invariance,
    verify_locality,
)

__all__ = [
    "BoundaryCurve", "DomainSpec", "ElectrodeLayout", "GeometryError", "Mesh",
    "PixelLattice", "build_boundary", "build_pixel_lattice", "place_electrodes",
    "triangulate",
    "Diffeo", "TensorError", "TensorField", "UniformAnisoParams",
    "anisotropy", "canonicalize", "det_sqrt", "gamma_hat", "push_forward",
    "CEMSystem", "DataVector", "MeasurementProtocol", "ModelError",
    "adjacent_protocol", "assemble", "electrode_matrix", "simulate_measurements",
    "solve_current_drive",
    "BarrierSchedule", "GNSettings", "ReconError", "ReconState", "RegWeights",
    "gauss_newton_reconstruct", "isotropic_reconstruct", "jacobian", "objective",
    "ExperimentConfig", "Inclusion", "Phantom", "RunReport", "builtin_configs",
    "export_field_image", "run_experiment", "verify_invariance", "verify_locality",
]

__version__ = "0.1.0"
