"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 input-format error,
4 numerical / model-assumption failure.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _parse_activation(name: str, epsilon: float) -> ActivationSpec:
    if name == "abs":
        return ActivationSpec.abs()
    if name == "relu":
        return ActivationSpec.relu()
    return ActivationSpec.adaptive(epsilon)


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
    """'1e-2,1e-3' -> at least 2 strictly decreasing epsilons in
    [smallest normal float, 0.1]; below that 1/eps overflows."""
    try:
        ladder = [float(e) for e in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list of numbers") from None
    low = sys.float_info.min
    if len(ladder) < 2 or any(not low <= e <= 0.1 for e in ladder) or any(
            b >= a for a, b in zip(ladder, ladder[1:])):
        raise argparse.ArgumentTypeError(
            f"{text!r}: need at least 2 strictly decreasing values in "
            f"[{low:g}, 0.1]")
    return ladder


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
    spec = _parse_activation(args.activation, args.epsilon)

    activated = SampledSignal(activations.apply(spec, signal.samples), rate)
    spectrum = spectral.dft(activated)
    spg = spectral.stft(activated, window, hop, fft_length)
    max_bin = min(256, len(spectrum.bins) - 1)
    # half a bin apart always reaches a bin (band_energy_ratio)
    half_width = args.half_width if args.half_width else max(
        0.2, spg.freq_step / 2)
    ratio = spectral.fundamental_energy_ratio(spectrum.bins, 1, max_bin)

    report = {
        "activation": spec.label,
        "fundamental_energy_ratio": ratio,
        "max_bin": max_bin,
        "n_samples": len(signal),
        "sample_rate": rate,
        "stft": {"window": window, "hop": hop, "fft_length": fft_length,
                 "window_descriptor": spg.window_descriptor},
    }
    if args.if_curve:
        curve = io.read_if_curve_csv(args.if_curve)
        if curve.size != spg.n_frames:
            raise InputFormatError(
                f"{args.if_curve}: {curve.size} IF values for {spg.n_frames} frames")
        duration = len(signal) / rate
        report["band_energy_ratio"] = spectral.band_energy_ratio(
            spg, curve, half_width=half_width,
            band_floor=1.0 / duration, band_ceiling=rate / 2.0)
    spectral.dynamic_range_clip(spg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exports = args.export
    if "csv" in exports:
        io.write_signal_csv(activated, out / "activated_signal.csv")
        spectral.spectrum_to_csv(spectrum, out / "spectrum.csv")
        spectral.spectrogram_to_csv(spg, out / "spectrogram.csv")
    if "pgm" in exports:
        spectral.spectrogram_to_pgm(spg, out / "spectrogram.pgm")
    if "json" in exports:
        with open(out / "report.json", "w", encoding="ascii", newline="\n") as fh:
            json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
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
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-theorem",
                       help="check the peak asymptotics on an epsilon ladder")
    p.add_argument("--signal", required=True,
                   help="JSON polynomial spec: [{'m', 're', 'im'}, ...]")
    p.add_argument("--eps-ladder", type=_parse_eps_ladder,
                   default="1e-2,1e-3,1e-4,1e-5",
                   help="comma list of at least 2 strictly decreasing values "
                        "in [2.2e-308, 0.1]")
    p.add_argument("--out", default=None, help="JSONL report path (default stdout)")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("synth-bench", help="run the synthetic benchmark")
    p.add_argument("--trials", type=_parse_positive_int, default=10_000)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--activations", type=_parse_activation_list,
                   default=experiments.DEFAULT_ACTIVATIONS,
                   help="e.g. abs,relu,heps:0.2,heps:0.1,heps:0.05")
    # a string default goes through `type`, so a bad FUNDCOMP_WORKERS is a
    # usage error of synth-bench alone
    p.add_argument("--workers", type=_parse_positive_int,
                   default=os.environ.get("FUNDCOMP_WORKERS", "1"))
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_synth_bench)

    p = sub.add_parser("sumset", help="sumset support and gcd stabilization")
    p.add_argument("--freqs", type=_parse_freqs, required=True,
                   help="comma list of positive integers, e.g. 6,9,33")
    p.add_argument("--kmax", type=_parse_positive_int, default=50)
    p.add_argument("--range", type=_parse_positive_int, default=None,
                   help="support range limit, at least the max frequency "
                        "(default 10 * max frequency)")
    p.set_defaults(func=cmd_sumset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
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
