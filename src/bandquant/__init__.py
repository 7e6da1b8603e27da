"""Reconstruction of bandlimited signals from noise-shaped quantized random samples.

The package builds a smooth oversampling generator, projects bandlimited
signals onto its finite span, quantizes randomly drawn samples with greedy
noise shaping (difference or geometric feedback) or plain rounding, condenses
blocks of quantized samples, and reconstructs via the canonical dual of the
resulting random frame.
"""

from .condense import (
    BlockCondensation,
    BoundReport,
    CondensationVector,
    build_weight,
    inf_to_two_bound,
    nu_beta,
    nu_sigma_delta,
    verify_condensation_bounds,
)
from .frame import (
    FrameBandReport,
    FrameFailure,
    FrameSystem,
    assemble_frame,
    frame_bound_report,
    reconstruct,
    sample_matrix,
)
from .generator import (
    Generator,
    GeneratorParams,
    KernelContext,
    gamma_r,
    ghat,
    taper,
)
from .pipeline import (
    BoundsReport,
    ConfigError,
    RunConfig,
    RunReport,
    build_config,
    check_bounds,
    load_config,
    run_detailed,
    run_once,
    shared_generator,
    sweep,
    validate,
    write_sweep_chart,
    write_sweep_csv,
)
from .quantize import (
    MidriseAlphabet,
    QuantizationResult,
    TransferOperator,
    greedy_noise_shape,
    stability_margin,
)
from .sampling import (
    BinnedSamples,
    BinningError,
    SampleConfig,
    bin_index,
    draw_samples,
    draw_signs,
    partition_bins,
)
from .signals import (
    CoefficientVector,
    ProjectionErrorReport,
    SignalModel,
    project,
    projection_error_report,
    synth_test_signal,
)

__version__ = "0.1.0"
