"""The names ``import bandquant`` exposes, pinned so that adding or removing
one shows in the diff of this file."""

import types

import bandquant as bq

PUBLIC_NAMES = [
    "BinnedSamples",
    "BinningError",
    "BoundReport",
    "BoundsReport",
    "CoefficientVector",
    "ConfigError",
    "FrameFailure",
    "FrameSystem",
    "Generator",
    "GeneratorParams",
    "KernelContext",
    "MidriseAlphabet",
    "QuantizationResult",
    "RunConfig",
    "RunReport",
    "SignalModel",
    "assemble_frame",
    "bin_index",
    "build_config",
    "build_weight",
    "check_bounds",
    "condense",
    "difference_taps",
    "draw_samples",
    "draw_signs",
    "frame_bound_report",
    "ghat",
    "greedy_noise_shape",
    "inf_to_two_bound",
    "load_config",
    "nu_beta",
    "nu_sigma_delta",
    "partition_bins",
    "project",
    "projection_error_report",
    "reconstruct",
    "run_detailed",
    "run_once",
    "shared_generator",
    "stability_margin",
    "sweep",
    "synth_test_signal",
    "taper",
    "validate",
    "verify_condensation_bounds",
    "write_sweep_chart",
    "write_sweep_csv",
]


def test_public_names_are_pinned():
    # Submodules appear as attributes once anything imports them, so they
    # are not part of the pinned list.
    names = sorted(
        name
        for name, value in vars(bq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
