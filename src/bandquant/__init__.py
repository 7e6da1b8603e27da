"""Reconstruction of bandlimited signals from noise-shaped quantized random samples.

The package builds a smooth oversampling generator, projects bandlimited
signals onto its finite span, quantizes randomly drawn samples with greedy
noise shaping (difference or geometric feedback) or plain rounding, condenses
blocks of quantized samples, and reconstructs via the canonical dual of the
resulting random frame.
"""

from .condense import (
    BoundReport,
    condense,
    nu_beta,
    nu_sigma_delta,
    verify_condensation_bounds,
)
from .frame import (
    FrameFailure,
    FrameSystem,
    assemble_frame,
    frame_bound_report,
    reconstruct,
)
from .generator import (
    Generator,
    GeneratorParams,
    KernelContext,
    ghat,
    taper,
)
from .pipeline import (
    ConfigError,
    RunConfig,
    RunReport,
    check_bounds,
    run_detailed,
    shared_generator,
    sweep,
    validate,
)
from .quantize import (
    MidriseAlphabet,
    QuantizationResult,
    difference_taps,
    greedy_noise_shape,
    stability_margin,
)
from .sampling import (
    BinnedSamples,
    BinningError,
    bin_index,
    draw_samples,
    draw_signs,
    partition_bins,
)
from .signals import (
    CoefficientVector,
    SignalModel,
    project,
    projection_error_report,
    synth_test_signal,
)

__version__ = "0.1.0"
