"""Two-tier sensor pipeline: variance-rate data reduction, block-cipher
size accounting, and Laplace-mechanism differential privacy."""

from .trace import (
    PersonRecord,
    SyntheticSpec,
    Trace,
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
    EcbContext,
    EncryptedPayload,
    ciphertext_size,
    decrypt,
    encrypt,
    parse_payload,
    plaintext_size_for_savings,
)
from .dp import (
    EPSILON_PRESETS,
    DpParams,
    DpQuery,
    NoisedResult,
    l1_sensitivity,
    laplace_cdf,
    laplace_noise,
    laplace_pdf,
    noisy_query,
    perturb_series,
    sample_laplace,
    verify_dp_ratio,
)
from .pipeline import (
    EnergyModel,
    PipelineConfig,
    PipelineReport,
    TransmissionLog,
    energy_estimate,
    run_pipeline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
