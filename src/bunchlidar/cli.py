"""Command-line front end: simulate, correlate, range, snr, convert.

Every flag's help text names its unit. Subcommands are pure functions of
their inputs and flags; nothing reads the clock or global state, and a fresh
seed is passed as ``--seed N``. Data files are written only to the paths
given as flags (``--out``, ``--truth-out``), each checked before any input
is read or simulated: a directory, a missing parent directory or the input
file itself is refused. Human-readable summaries go to stdout. Text tag
files come from ``convert --to text``.

Exit codes: 0 success; 1 for a ``UserError`` (the root of every typed input
fault: bad flags, values or files, a fit that fails) or an ``OSError``; 2 for
any other exception, which is a bug and prints its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

import numpy as np

from . import correlator, estimator, presets, tagio
from .photonsim import simulate_ranging_scenario
from .quantities import UserError

PROG = "bunchlidar"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


def _parse_window(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UserError(f"window must be 'MIN:MAX' in ps, got {text!r}")
    try:
        return [int(parts[0]), int(parts[1])]
    except ValueError:
        raise UserError(f"window bounds must be integers in ps, got {text!r}") from None


# Value flags that alias one document key each. They are applied after --preset,
# --config and --set, so every setting gets its value in the run document.
_ALIASES = {
    "--seed": "scenario.seed",
    "--duration-s": "scenario.duration_s",
    "--distance-m": "scenario.distance_m",
    "--refractive-index": "scenario.refractive_index",
    "--resolution-ps": "output.resolution_ps",
    "--bin-width-ps": "correlation.bin_width_ps",
    "--window-ps": "correlation.window_ps",
}


def _add_alias(p: argparse.ArgumentParser, flag: str, text: str, **kwargs) -> None:
    p.add_argument(flag, default=None, help=f"{text}; sets {_ALIASES[flag]}", **kwargs)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", metavar="NAME", default=None,
                   help=f"named built-in configuration: {', '.join(sorted(presets.PRESET_FILES))}")
    p.add_argument("--config", metavar="PATH", default=None,
                   help="JSON run-configuration file merged over the preset")
    p.add_argument("--set", metavar="PATH=VALUE", action="append", default=[],
                   help="override any configuration field by dotted path, e.g. "
                        "scenario.detectors.0.efficiency=0.4 (units are in the key names)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG,
                     description="Thermal-light photon-bunching ranging toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="simulate a two-detector ranging run into a tag file",
                       description="Simulate a ranging scenario and write timestamps plus "
                                   "a ground-truth JSON sidecar.")
    _add_config_flags(p)
    _add_alias(p, "--seed", "RNG seed (dimensionless integer)", type=int)
    _add_alias(p, "--duration-s", "acquisition duration in seconds", type=float)
    _add_alias(p, "--distance-m", "target distance in meters", type=float)
    p.add_argument("--out", metavar="PATH", required=True, help="output tag file path")
    p.add_argument("--truth-out", metavar="PATH", default=None,
                   help="ground-truth JSON path (default: OUT + '.truth.json')")
    _add_alias(p, "--resolution-ps",
               "tag file tick size in picoseconds (1, 2 or 25 times a power of ten)", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="histogram timestamp differences of a 2-channel tag file",
                       description="Compute the coincidence histogram and write it as CSV "
                                   "(columns tau_ps,counts,g2,sigma).")
    _add_config_flags(p)
    p.add_argument("--in", dest="input", metavar="PATH", required=True,
                   help="input tag file (text if its first byte is '#', else binary)")
    _add_alias(p, "--bin-width-ps", "histogram bin width in picoseconds", type=int)
    _add_alias(p, "--window-ps", "half-open lag window in picoseconds, e.g. "
               "--window-ps=-10000:10000", metavar="MIN:MAX", type=_parse_window)
    p.add_argument("--out", metavar="PATH", required=True, help="output histogram CSV path")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("range", help="fit and report the target distance",
                       description="Fit the bunching peak and convert the delay to meters.")
    _add_config_flags(p)
    p.add_argument("--in", dest="input", metavar="PATH", required=True, help="histogram CSV path")
    _add_alias(p, "--refractive-index", "medium refractive index (dimensionless, >= 1; 1 if unset)",
               type=float)
    p.add_argument("--out", metavar="PATH", default=None, help="result JSON path")
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("snr", help="predict or measure the bunching-peak signal-to-noise",
                       description="Without --in: evaluate the shot-noise SNR formula. "
                                   "With --in: also measure amplitude over off-peak scatter.")
    p.add_argument("--in", dest="input", metavar="PATH", default=None,
                   help="histogram CSV path (enables measurement mode)")
    p.add_argument("--rate-hz", type=float, required=True,
                   help="photoevent rate in events per second (geometric mean of the channels)")
    p.add_argument("--v2", type=float, default=None,
                   help="squared visibility V^2 = g2(0) - 1 (dimensionless; prediction mode)")
    p.add_argument("--tauc-ns", type=float, default=None,
                   help="coherence time in nanoseconds (prediction mode)")
    p.add_argument("--dt-ms", type=float, required=True, help="integration time in milliseconds")
    p.add_argument("--out", metavar="PATH", default=None, help="SNR report JSON path")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("convert", help="convert tag files between binary and text",
                       description="Lossless conversion between the binary and text tag formats.")
    p.add_argument("--in", dest="input", metavar="PATH", required=True, help="input tag file")
    p.add_argument("--out", metavar="PATH", required=True, help="output tag file")
    p.add_argument("--to", choices=("binary", "text"), required=True, help="output format")
    p.set_defaults(func=cmd_convert)

    return parser


def _resolve_document(args) -> dict:
    doc: dict = {}
    if getattr(args, "preset", None):
        doc = presets.load_preset(args.preset)
    if getattr(args, "config", None):
        doc = presets.merge_documents(doc, presets.load_config_file(args.config))
    for assignment in getattr(args, "set", []):
        presets.apply_dotted_override(doc, assignment)
    for flag, path in _ALIASES.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            presets.set_path(doc, path, value)
    presets.validate_document(doc)
    return doc


def _check_outputs(*paths, source=None) -> None:
    """Refuse an output path that is a directory, lies in no directory, repeats
    another or is the input file ``source`` (symlinks and hard links too); a
    path of None is skipped. Opens no file."""
    seen = set()
    for path in filter(None, paths):
        full = os.path.realpath(path)
        if os.path.isdir(full) or path.endswith(os.sep):
            raise UserError(f"{path}: is a directory")
        if not os.path.isdir(os.path.dirname(full)):
            raise UserError(f"{path}: parent directory does not exist")
        if full in seen:
            raise UserError(f"{path}: --out and --truth-out name the same file")
        if source is not None and os.path.isfile(full) and os.path.samefile(full, source):
            raise UserError(f"{path}: --out is the input file {source}")
        seen.add(full)


def cmd_simulate(args) -> int:
    doc = _resolve_document(args)
    scenario = presets.scenario_from_document(doc)
    resolution_ps = tagio.checked_resolution(presets.output_from_document(doc))
    truth_path = args.truth_out or f"{args.out}.truth.json"
    _check_outputs(args.out, truth_path)

    reference, probe, truth = simulate_ranging_scenario(scenario)
    tagio.write_tags([reference, probe], resolution_ps, args.out, rounding="round")
    estimator.dump_json({"truth": truth, "configuration": doc}, truth_path)
    print(f"simulated {len(reference)} reference + {len(probe)} probe events "
          f"over {scenario.duration_s} s (seed {scenario.seed})")
    print(f"wrote {args.out} (resolution {resolution_ps} ps) and {truth_path}")
    return 0


def cmd_correlate(args) -> int:
    settings = presets.correlation_from_document(_resolve_document(args))
    config = correlator.CorrelationConfig(settings.bin_width_ps, *settings.window_ps)
    _check_outputs(args.out, source=args.input)
    streams, header = tagio.read_tags(args.input)
    if header["channel_count"] != 2:
        raise UserError(f"correlate needs a 2-channel file, got {header['channel_count']}")
    # Lags lie on the file's tick grid; off-grid bins hold unequal numbers of them.
    # The window end follows, because the span is a whole number of bins.
    resolution = header["resolution_ps"]
    if settings.bin_width_ps % resolution or settings.window_ps[0] % resolution:
        raise UserError(f"bin width {settings.bin_width_ps} ps and window start "
                        f"{settings.window_ps[0]} ps must be multiples of the file's "
                        f"resolution, {resolution} ps")
    a, b = streams
    hist = correlator.cross_correlate(a, b, config)
    correlator.write_histogram_csv(hist, args.out)
    print(f"events: {hist.n_a} x {hist.n_b}; acquisition {hist.duration_s} s; "
          f"{int(hist.counts.sum())} pairs in [{config.tau_min_ticks}, {config.tau_max_ticks}) ps")
    print(f"wrote {args.out} ({config.n_bins} bins of {config.bin_width_ticks} ps)")
    return 0


def _fit_from_csv(args, doc):
    tau_ps, _, g2, sigma = correlator.read_histogram_csv(args.input)
    spacing = np.diff(tau_ps)
    if spacing.size and not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise UserError("histogram CSV bins are not uniformly spaced")
    bin_width_s = (spacing[0] if spacing.size else 1.0) * 1e-12
    fit = estimator.fit_g2(tau_ps * 1e-12, g2, sigma, bin_width_s, **presets.fit_from_document(doc))
    return fit, tau_ps, g2


def _report(record: dict, path, *summary: str) -> int:
    """Print the record and any summary lines; write the record as JSON to ``path`` if given."""
    print(estimator.format_record(record), *summary, sep="\n")
    if path:
        estimator.dump_json(record, path)
        print(f"wrote {path}")
    return 0


def cmd_range(args) -> int:
    doc = _resolve_document(args)
    medium = presets.medium_from_document(doc)
    _check_outputs(args.out, source=args.input)
    fit, _, _ = _fit_from_csv(args, doc)
    record = estimator.fit_to_dict(fit)
    distance, distance_err = estimator.estimate_range(fit, medium)
    record.update(distance_m=distance, distance_err_m=distance_err,
                  refractive_index=medium.refractive_index)
    return _report(record, args.out, f"d = {distance:.6f} +/- {distance_err:.6f} m")


def cmd_snr(args) -> int:
    _check_outputs(args.out, source=args.input)
    dt_s = args.dt_ms * 1e-3
    if args.input is None:
        if args.v2 is None or args.tauc_ns is None:
            raise UserError("prediction mode needs --v2 and --tauc-ns")
        predicted = estimator.snr_predict(args.rate_hz, args.v2, args.tauc_ns * 1e-9, dt_s)
        record = {
            "predicted_snr": predicted,
            "rate_hz": args.rate_hz,
            "v2": args.v2,
            "coherence_time_s": args.tauc_ns * 1e-9,
            "integration_time_s": dt_s,
        }
    else:
        fit, tau_ps, g2 = _fit_from_csv(args, {})
        report = estimator.snr_measure(tau_ps * 1e-12, g2, fit, args.rate_hz, dt_s)
        record = dataclasses.asdict(report)
    return _report(record, args.out)


def cmd_convert(args) -> int:
    _check_outputs(args.out, source=args.input)
    streams, header = tagio.read_tags(args.input)
    if args.to == "text":
        tagio.write_text_tags(streams, header["resolution_ps"], args.out)
    else:
        tagio.write_tags(streams, header["resolution_ps"], args.out, rounding="exact")
    total = sum(len(s) for s in streams)
    print(f"converted {total} events on {header['channel_count']} channels to {args.to}: {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (UserError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
