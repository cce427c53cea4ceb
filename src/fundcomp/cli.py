"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 input-format error,
4 numerical / model-assumption failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__, activations, experiments, io, spectral, theory
from .activations import ActivationSpec
from .errors import FundcompError, InputFormatError
from .signal_model import SampledSignal

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

EXPORTS = ("csv", "pgm", "json")


def _write_manifest(out_dir: Path, subcommand: str, config: dict,
                    input_digest: str | None) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "input_digest": input_digest,
        "tool_version": __version__,
    }
    with open(out_dir / "manifest.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _parse_activation_list(text: str) -> tuple[ActivationSpec, ...]:
    """'abs,relu,heps:0.1' -> activation specs."""
    specs = []
    for item in text.split(","):
        item = item.strip()
        if item in ("abs", "relu"):
            specs.append(ActivationSpec(item))
        elif item.startswith("heps:"):
            try:
                eps = float(item.split(":", 1)[1])
                specs.append(ActivationSpec.adaptive(eps))
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"{item!r}: {exc}") from None
        else:
            raise argparse.ArgumentTypeError(
                f"unknown activation {item!r} (use abs, relu, heps:EPS)")
    return tuple(specs)


def _parse_epsilon(text: str) -> float:
    """--epsilon: h_eps needs eps < 1, and every output stays finite from
    activations.EPSILON_MIN on."""
    try:
        eps = float(text)
    except ValueError:
        eps = float("nan")
    if not activations.EPSILON_MIN <= eps < 1.0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number in [{activations.EPSILON_MIN:g}, 1)")
    return eps


def _parse_half_width(text: str) -> float:
    """--half-width: a finite positive number of Hz."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _parse_int_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
    return value


def _parse_positive_int(text: str) -> int:
    """Integer options that count something: at least 1."""
    return _parse_int_at_least(text, 1, "positive")


def _parse_seed(text: str) -> int:
    """--seed: numpy's SeedSequence takes integers >= 0."""
    return _parse_int_at_least(text, 0, "non-negative")


def _parse_freqs(text: str) -> theory.FrequencySet:
    """'6,9,33' -> frequency set of positive integers."""
    return theory.FrequencySet(tuple(
        _parse_positive_int(f) for f in text.split(",")))


def _parse_export(text: str) -> set[str]:
    """'csv,json' -> names from {csv, pgm, json}."""
    names = set(text.split(","))
    unknown = names - set(EXPORTS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown export {sorted(unknown)[0]!r} (use {','.join(EXPORTS)})")
    return names


def _parse_eps_ladder(text: str) -> list[float]:
    """'1e-2,1e-3' -> an epsilon ladder (`theory.epsilon_ladder`)."""
    try:
        ladder = [float(e) for e in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list of numbers") from None
    try:
        return theory.epsilon_ladder(ladder)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _finite(what: str, value: float) -> float:
    """value, or a numeric error: a NaN or an infinity, from a spectrum whose
    energy overflows, would otherwise fill the exports."""
    if not math.isfinite(value):
        raise FundcompError(f"{what} is {value}: the spectrum's energy "
                            f"overflows float64")
    return value


def cmd_analyze(args) -> int:
    signal = io.read_signal(args.input)
    rate = signal.sample_rate
    window = args.window if args.window else max(4, int(round(2 * rate)))
    hop = args.hop if args.hop else max(1, int(round(rate / 10)))
    fft_length = args.fft_length if args.fft_length else max(
        window, 1 << (window - 1).bit_length())
    if fft_length < window:
        print(f"fundcomp analyze: error: --fft-length {fft_length} is below "
              f"the window length {window}", file=sys.stderr)
        return EXIT_USAGE
    spec = (ActivationSpec.adaptive(args.epsilon) if args.activation == "heps"
            else ActivationSpec(args.activation))

    activated = SampledSignal(activations.apply(spec, signal.samples), rate)
    spectrum = spectral.dft(activated)
    spg = spectral.Stft(activated, window, hop, fft_length)
    max_bin = min(256, len(spectrum.bins) - 1)
    # half a bin apart always reaches a bin (spectral.BandEnergy)
    half_width = args.half_width if args.half_width else max(
        0.2, spg.freq_step / 2)
    ratio = _finite("the fundamental energy ratio",
                    spectral.fundamental_energy_ratio(spectrum.bins, 1, max_bin))

    report = {
        "activation": spec.label,
        "fundamental_energy_ratio": ratio,
        "max_bin": max_bin,
        "n_samples": len(signal),
        "sample_rate": rate,
        "stft": {"window": window, "hop": hop, "fft_length": fft_length,
                 "window_descriptor": spg.window_descriptor},
    }
    exports = args.export
    spectrogram_files = "csv" in exports or "pgm" in exports
    # pass 1 over the STFT blocks: the report's band ratio and the exports'
    # clip range, before any file is written
    reducers = []
    if spectrogram_files:
        clip = spectral.DynamicRange(spg.n_frames * spg.n_bins)
        reducers.append(clip)
    if args.if_curve:
        curve = io.read_if_curve_csv(args.if_curve)
        if curve.size != spg.n_frames:
            raise InputFormatError(
                f"{args.if_curve}: {curve.size} IF values for {spg.n_frames} frames")
        duration = len(signal) / rate
        band = spectral.BandEnergy(
            spg.freq_step, spg.n_bins, curve, half_width,
            band_floor=1.0 / duration, band_ceiling=rate / 2.0)
        reducers.append(band)
    for block in spg.blocks() if reducers else ():
        for reducer in reducers:
            reducer.add(block)
    if args.if_curve:
        report["band_energy_ratio"] = _finite("the band energy ratio", band.ratio())
    if spectrogram_files:
        lo, hi = (_finite("the spectrogram's clip limit", v) for v in clip.limits())
    report_text = (json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
                   if "json" in exports else None)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "csv" in exports:
        io.write_signal_csv(activated, out / "activated_signal.csv")
        spectral.spectrum_to_csv(spectrum, out / "spectrum.csv")
    if spectrogram_files:
        # pass 2: the same blocks again, clipped and appended to the files
        spectral.write_spectrogram(
            spg.blocks(), (spg.n_frames, spg.n_bins), lo, hi,
            out / "spectrogram.csv" if "csv" in exports else None,
            out / "spectrogram.pgm" if "pgm" in exports else None)
    if "json" in exports:
        with open(out / "report.json", "w", encoding="ascii", newline="\n") as fh:
            fh.write(report_text + "\n")
    _write_manifest(out, "analyze", {
        "input": str(args.input), "activation": spec.label,
        "epsilon": args.epsilon, "window": window, "hop": hop,
        "fft_length": fft_length, "export": sorted(exports),
        "if_curve": args.if_curve, "half_width": half_width,
    }, io.sha256_file(args.input))
    print(f"fundamental_energy_ratio {ratio:.17g}")
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    poly = io.read_poly_spec_json(args.signal)
    result = theory.scaling_verification(poly, args.eps_ladder)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            theory.write_reports_jsonl(result, fh)
    else:
        theory.write_reports_jsonl(result, sys.stdout)
    if result.prediction_cancels:
        print(f"prediction cancels (antipodal-peak case); "
              f"raw-integral growth slope {result.error_slope:.4f}",
              file=sys.stderr)
    if not result.passed:
        print(f"error-exponent slope {result.error_slope:.4f} exceeds "
              f"{theory.ScalingResult.SLOPE_BOUND}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_synth_bench(args) -> int:
    config = experiments.SynthConfig(
        trials=args.trials, master_seed=args.seed,
        activations=args.activations)
    stats = experiments.run_trials(config, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.json", "w", encoding="ascii", newline="\n") as fh:
        experiments.write_summary_json(stats, config, fh)
    for label, s in stats.items():
        with open(out / f"hist_{label}.csv", "w", encoding="ascii",
                  newline="\n") as fh:
            experiments.write_histogram_csv(s, fh)
    _write_manifest(out, "synth-bench", config.as_dict(), None)
    for label, s in stats.items():
        print(f"{label}: median {s.median:.17g} mad {s.mad:.17g}")
    return EXIT_OK


def cmd_sumset(args) -> int:
    freqs = args.freqs
    range_limit = args.range if args.range else 10 * freqs.max_element
    if range_limit < freqs.max_element:
        print(f"fundcomp sumset: error: --range {range_limit} is below the "
              f"max frequency {freqs.max_element}", file=sys.stderr)
        return EXIT_USAGE
    gcd, stab = theory.sumset_gcd_limit(freqs, args.kmax, range_limit)
    print(f"frequencies      {','.join(map(str, freqs.elements))}")
    print(f"gcd              {gcd}")
    print(f"range            [0, {range_limit}]")
    print(f"stabilization_k  {stab if stab is not None else 'not reached'}")
    k_show = stab if stab is not None else args.kmax
    support = sorted(theory.sumset_support(freqs, k_show, range_limit))
    print(f"support(k={k_show})  {' '.join(map(str, support))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser."""
    parser = argparse.ArgumentParser(
        prog="fundcomp",
        description="Fundamental component enhancement via nonlinear activations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="activate a signal and analyze its spectrum")
    p.add_argument("input", help="CSV (header 'sample_rate,<value>') or PCM WAV; "
                                 "WAV samples are scaled to [-1, 1] by full scale")
    p.add_argument("--activation", choices=["abs", "relu", "heps"], default="heps")
    p.add_argument("--epsilon", type=_parse_epsilon, default=0.1)
    p.add_argument("--window", type=_parse_positive_int, default=None,
                   help="STFT window length in samples (default 2 s)")
    p.add_argument("--hop", type=_parse_positive_int, default=None,
                   help="STFT hop in samples (default 0.1 s)")
    p.add_argument("--fft-length", type=_parse_positive_int, default=None,
                   help="FFT length (default: window rounded up to a power of 2)")
    p.add_argument("--export", type=_parse_export, default="csv,pgm,json",
                   help="comma list from {csv,pgm,json}")
    p.add_argument("--if-curve", default=None,
                   help="CSV with one instantaneous frequency (Hz) per frame")
    p.add_argument("--half-width", type=_parse_half_width, default=None,
                   help="band half-width in Hz around the IF curve (default: "
                        "the larger of 0.2 and half the STFT bin spacing)")
    p.add_argument("--out", default=".")

    p = sub.add_parser("verify-theorem",
                       help="check the peak asymptotics on an epsilon ladder")
    p.add_argument("--signal", required=True,
                   help="JSON polynomial spec: [{'m', 're', 'im'}, ...]")
    p.add_argument("--eps-ladder", type=_parse_eps_ladder,
                   default="1e-2,1e-3,1e-4,1e-5",
                   help="comma list of at least 2 strictly decreasing values "
                        "in [2.2e-308, 0.1]")
    p.add_argument("--out", default=None, help="JSONL report path (default stdout)")

    p = sub.add_parser("synth-bench", help="run the synthetic benchmark")
    p.add_argument("--trials", type=_parse_positive_int, default=10_000)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--activations", type=_parse_activation_list,
                   default=experiments.DEFAULT_ACTIVATIONS,
                   help="e.g. abs,relu,heps:0.2,heps:0.1,heps:0.05")
    p.add_argument("--workers", type=_parse_positive_int, default=1)
    p.add_argument("--out", default=".")

    p = sub.add_parser("sumset", help="sumset support and gcd stabilization")
    p.add_argument("--freqs", type=_parse_freqs, required=True,
                   help="comma list of positive integers, e.g. 6,9,33")
    p.add_argument("--kmax", type=_parse_positive_int, default=50)
    p.add_argument("--range", type=_parse_positive_int, default=None,
                   help="support range limit, at least the max frequency "
                        "(default 10 * max frequency)")
    return parser


# built once per process: building the parser takes about 1 ms, parsing with
# it 0.06 ms.  main looks the command function up on every call, so one
# replaced after the parser was built (by a tracing wrapper, say) is the one
# that runs.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    command = {"analyze": cmd_analyze, "verify-theorem": cmd_verify_theorem,
               "synth-bench": cmd_synth_bench, "sumset": cmd_sumset}[args.command]
    try:
        return command(args)
    except InputFormatError as exc:
        print(f"fundcomp: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"fundcomp: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FundcompError, ValueError) as exc:
        print(f"fundcomp: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
