"""Tensor-train tomography from informationally complete measurements.

The package fits a nonnegative tensor train to measurement records with
alternating multiplicative updates, then inverts the measurement map site by
site to recover a matrix-product density operator. Synthetic targets,
sampling, fidelity metrics, and a command-line pipeline are included.
"""

from .density import mpo_to_dense, normalize_tt, reconstruct, tt_to_mpo
from .errors import (
    CapacityError,
    DataFormatError,
    DegeneracyError,
    DegenerateFitError,
    IntegrityError,
    TomoError,
    ValidationError,
)
from .fitting import (
    EnvCache,
    FitConfig,
    FitResult,
    TrialResult,
    fit,
    init_tt,
    loss,
    sweep,
    update_core,
)
from .metrics import FidelityResult, classical_fidelity, quantum_fidelity, score
from .networks import MpoDensity, TTDistribution
from .povm import Povm, inverse_map_site, tetrahedral_povm
from .sampling import (
    SampleSet,
    load_samples,
    sample_dataset,
    save_samples,
    split_train_test,
)
from .states import (
    XxzParams,
    density_to_mpo,
    depolarize,
    exact_outcome_distribution,
    ground_state_density,
    synth_target,
    xxz_hamiltonian,
)
from .storage import load_tensor, save_tensor

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DataFormatError",
    "DegeneracyError",
    "DegenerateFitError",
    "EnvCache",
    "FidelityResult",
    "FitConfig",
    "FitResult",
    "IntegrityError",
    "MpoDensity",
    "Povm",
    "SampleSet",
    "TTDistribution",
    "TomoError",
    "TrialResult",
    "ValidationError",
    "XxzParams",
    "classical_fidelity",
    "density_to_mpo",
    "depolarize",
    "exact_outcome_distribution",
    "fit",
    "ground_state_density",
    "init_tt",
    "inverse_map_site",
    "load_samples",
    "load_tensor",
    "loss",
    "mpo_to_dense",
    "normalize_tt",
    "quantum_fidelity",
    "reconstruct",
    "sample_dataset",
    "save_samples",
    "save_tensor",
    "score",
    "split_train_test",
    "sweep",
    "synth_target",
    "tetrahedral_povm",
    "tt_to_mpo",
    "update_core",
    "xxz_hamiltonian",
]
