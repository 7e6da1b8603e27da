"""The names ``import bandquant`` exposes, pinned so that adding or removing
one shows in the diff of this file."""

import ast
import types
from pathlib import Path

import bandquant as bq
import bandquant.cli

PUBLIC_NAMES = [
    "BinnedSamples",
    "BinningError",
    "BoundReport",
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
    "check_bounds",
    "condense",
    "difference_taps",
    "draw_samples",
    "draw_signs",
    "frame_bound_report",
    "ghat",
    "greedy_noise_shape",
    "nu_beta",
    "nu_sigma_delta",
    "partition_bins",
    "project",
    "projection_error_report",
    "reconstruct",
    "run_detailed",
    "shared_generator",
    "stability_margin",
    "sweep",
    "synth_test_signal",
    "taper",
    "validate",
    "verify_condensation_bounds",
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


def test_only_the_cli_imports_the_file_writers():
    # Every file bandquant writes goes through cli, by table and svg, and cli
    # alone reads flags and --config files; the layers below it compute and
    # return arrays and reports.
    package = Path(bq.__file__).resolve().parent
    for source in package.glob("*.py"):
        if source.name == "cli.py":
            continue
        imported = set()
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported |= {node.module or "", *(alias.name for alias in node.names)}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        formats = {"table", "svg", "bandquant.table", "bandquant.svg", "configparser", "argparse"}
        assert not imported & formats, source.name


def test_benchmark_entry_points_exist(monkeypatch, tmp_path):
    # The benchmark's worker builds the shared generator through these names
    # and sends each workload kind's argv, with seeds and --out, to cli.main.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    params = bq.generator.GeneratorParams(lam=bq.pipeline.RunConfig().lam)
    assert bq.pipeline.shared_generator(params).lam == params.lam
    assert callable(bq.cli.main)
    parser = bq.cli.build_parser()
    for workload in workloads.WORKLOADS.values():
        for _, args in workload.kinds:
            argv = [workload.command, *args, "--seed", "1", "--signal-seed", "1"]
            parsed = parser.parse_args([*argv, "--out", str(tmp_path)])
            assert parsed.func.__name__ == f"cmd_{workload.command}"
