"""Tensor-train tomography from informationally complete measurements.

The package fits a nonnegative tensor train to measurement records with
alternating multiplicative updates, then inverts the measurement map site by
site to recover a matrix-product density operator. Synthetic targets,
sampling, fidelity metrics, and a command-line pipeline are included.
"""

from types import ModuleType as _Module

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
    save_samples,
    split_train_test,
)
from .states import (
    XxzParams,
    depolarize,
    exact_outcome_distribution,
    ground_state_density,
    synth_target,
    xxz_hamiltonian,
)
from .storage import load_tensor, save_tensor

__version__ = "0.1.0"

# every public name imported above, in sorted order; the submodules are not exported
__all__ = sorted(
    name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module)
)
