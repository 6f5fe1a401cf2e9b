"""Two-tier sensor pipeline: variance-rate data reduction, block-cipher
size accounting, and Laplace-mechanism differential privacy."""

from .trace import (
    POPULATION_DTYPE,
    SyntheticSpec,
    Trace,
    as_population,
    generate_population,
    generate_trace,
    load_csv,
    save_csv,
)
from .inference import (
    InferenceConfig,
    InferenceMetrics,
    TransmissionSet,
    compute_metrics,
    gap_areas,
    reconstruct,
    select_samples,
)
from .crypto import (
    SUITES,
    CipherSuite,
    EncryptedPayload,
    ciphertext_size,
    decrypt,
    encrypt,
    plaintext_size_for_savings,
)
from .dp import (
    EPSILON_PRESETS,
    DpParams,
    DpQuery,
    NoisedResult,
    l1_sensitivity,
    laplace_noise,
    noisy_query,
    perturb_series,
)
from .pipeline import (
    EnergyModel,
    PipelineConfig,
    PipelineReport,
    energy_estimate,
    run_pipeline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
