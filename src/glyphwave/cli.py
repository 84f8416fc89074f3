"""Command line front end.

Subcommands cover the whole path: encode (strip image), frame (bit/pause
dump), transmit (waveform to WAV), channel (noise simulation), receive
(decode WAV back to DSL text), and selftest (canonical round trips).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import framing, modem, pipeline, raster
from .glyphs import DEFAULT_DIMS, bitmap_of
from .notation import canonical_messages, parse_dsl, print_dsl


def _build_config(args) -> modem.ModemConfig:
    overrides = {}
    if getattr(args, "scheme", None):
        overrides["scheme"] = args.scheme
    if getattr(args, "config", None):
        return modem.load_config(args.config, **overrides)
    return modem.ModemConfig(**overrides)


def _cmd_encode(args) -> int:
    msg = parse_dsl(args.dsl)
    glyphs = pipeline.message_glyphs(msg)
    strip = raster.compose_strip([bitmap_of(g, DEFAULT_DIMS) for g in glyphs], gap=args.gap)
    Path(args.out).write_bytes(raster.export_pbm(strip))
    height, width = strip.shape
    print(f"wrote {width}x{height} strip to {args.out}")
    return 0


def _cmd_frame(args) -> int:
    frame = pipeline.message_frame(parse_dsl(args.dsl), repetition=args.rep)
    print(framing.frame_to_text(frame))
    return 0


def _cmd_transmit(args) -> int:
    cfg = _build_config(args)
    wave = pipeline.transmit(args.dsl, cfg, repetition=args.rep)
    modem.write_wav(args.out, wave)
    print(f"wrote {len(wave.samples)} samples ({wave.duration_s:.2f} s) to {args.out}")
    return 0


def _cmd_channel(args) -> int:
    wave = modem.read_wav(args.wav)
    ch = pipeline.ChannelConfig(snr_db=args.snr, gain=args.gain, seed=args.seed)
    modem.write_wav(args.out, pipeline.apply_channel(wave, ch))
    label = "noiseless" if args.snr is None else f"{args.snr} dB"
    print(f"applied channel ({label}, gain {args.gain}) -> {args.out}")
    return 0


def _format_report(report: pipeline.DecodeReport) -> str:
    lines = [
        f"decoded: {report.dsl_text}",
        f"grid: {report.dims[0]}x{report.dims[1]}  glyphs: {report.n_glyphs}  "
        f"repetition: {report.repetition}",
        f"corrected bits: {report.corrected_bits}  vote ties: {report.tie_flags}",
        "glyph  distance  runner_up",
    ]
    for g, d, runner in report.per_glyph:
        lines.append(f"{g.value:<12s} {d:>3d} {runner:>6d}")
    return "\n".join(lines) + "\n"


def _cmd_receive(args) -> int:
    cfg = _build_config(args)
    try:
        report = pipeline.receive(modem.read_wav(args.wav), cfg)
    except ValueError as err:
        print(f"decode failed: {err}", file=sys.stderr)
        return 1
    if args.report:
        Path(args.report).write_text(_format_report(report))
    print(report.dsl_text)
    return 0 if report.clean() else 2


def _cmd_selftest(args) -> int:
    ok = True
    for name, msg in canonical_messages().items():
        expected = print_dsl(msg)
        for scheme in modem.SCHEMES:
            cfg = modem.ModemConfig(scheme=scheme)
            try:
                report = pipeline.receive(pipeline.transmit(expected, cfg, repetition=1), cfg)
                passed = report.dsl_text == expected and report.clean()
                detail = "" if passed else f" (got {report.dsl_text!r})"
            except ValueError as err:
                passed, detail = False, f" ({err})"
            ok &= passed
            print(f"{name:<10s} {scheme}  {'ok' if passed else 'FAIL' + detail}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="glyphwave",
        description="Geometric symbol messages over simulated carrier waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="render a message as a PBM strip image")
    p.add_argument("dsl")
    p.add_argument("--out", required=True)
    p.add_argument("--gap", type=int, default=1, help="white columns between glyphs")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("frame", help="print the framed bit/pause dump")
    p.add_argument("dsl")
    p.add_argument("--rep", type=int, default=1)
    p.set_defaults(func=_cmd_frame)

    p = sub.add_parser("transmit", help="modulate a message into a WAV file")
    p.add_argument("dsl")
    p.add_argument("--scheme", choices=modem.SCHEMES)
    p.add_argument("--rep", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="modem config file (key = value lines)")
    p.set_defaults(func=_cmd_transmit)

    p = sub.add_parser("channel", help="apply gain and seeded noise to a WAV file")
    p.add_argument("wav")
    p.add_argument("--snr", type=float, default=None, help="SNR in dB (omit for noiseless)")
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("receive", help="decode a WAV file back to DSL text")
    p.add_argument("wav")
    p.add_argument("--scheme", choices=modem.SCHEMES)
    p.add_argument("--config")
    p.add_argument("--report", help="write a diagnostic report to this file")
    p.set_defaults(func=_cmd_receive)

    p = sub.add_parser("selftest", help="run the canonical-message round-trip suite")
    p.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
