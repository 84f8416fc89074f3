"""Closed-loop measurement of one workload: one message in flight at a time.

Each attempt transmits a message, passes it through the channel (noisy-fast
only), receives it and checks the result against the benchmark's own
expectation. A run repeats the workload's fixed pass of messages until its
time is up, so every decode ratio is exact for a seed. See README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import glyphwave
import glyphwave.cli
import workloads as W
from tracing import LayerStats, Tracer, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = ROOT / "tests" / "golden"

SETUP_PROBES = 5
# Ten decodes beyond p90 need at least a hundred timed decodes.
MIN_DECODES = 100

# The canonical messages of the golden frame dumps, spelled as a user would.
CANONICAL = {
    "riemann": "riemann",
    "spacetime": "spacetime",
    "em": "em",
    "primer": "vector@p vector form@p form tensor(2,3) spacetime em riemann",
}

END_TO_END = {
    "setup_s": "s",
    "encode_ms_p50": "ms",
    "encode_ms_p90": "ms",
    "decode_ms_p50": "ms",
    "decode_ms_p90": "ms",
    "msgs_per_s": "1/s",
    "decode_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Receive failures tallied by the traced stage they escaped from and their
# class; anything else lands in "other".
FAILS = (
    "demodulate.NoSignalError",
    "demodulate.AmbiguousPauseError",
    "demodulate.DesyncError",
    "infer_grid.InconsistentFrameError",
    "infer_grid.NonPrimeDimensionsError",
    "infer_grid.RepetitionMismatchError",
    "receive.UnrecoverableMessageError",
    "parse_glyphs.UngrammaticalGlyphsError",
    "check.wrong_text",
    "other",
)

_TIMED = (
    "framing.infer_grid",
    "framing.copy_payloads",
    "framing.majority_vote",
    "pipeline.recognize_glyph",
    "pipeline.parse_glyphs_to_message",
    "notation.print_dsl",
    "notation.parse_dsl",
    "glyphs.glyph_sequence",
    "glyphs.bitmap_of",
    "raster.serialize_glyph",
    "framing.frame_message",
    "modem.modulate",
    "pipeline.apply_channel",
    "pipeline.transmit",
    "pipeline.receive",
)
_CALLED = (
    "framing.infer_grid",
    "pipeline.recognize_glyph",
    "glyphs.bitmap_of",
    "raster.serialize_glyph",
)

PER_LAYER = {
    "modem.demodulate.self_ms": "ms",
    "modem.demodulate.ns_per_sample": "ns",
    "modem.demodulate.samples": "count",
    "modem.demodulate.us_per_run": "us",
    "modem.demodulate.runs": "count",
    **{f"{name}.ms": "ms" for name in _TIMED},
    **{f"{name}.calls": "count" for name in _CALLED},
    "pipeline.transmit.self_ms": "ms",
    "pipeline.receive.self_ms": "ms",
    "pipeline.recognize_glyph.inexact_ratio": "ratio",
    "framing.frame_message.elements": "count",
    "modem.modulate.samples": "count",
    "framing.majority_vote.corrected_bits": "count",
    "framing.majority_vote.ties": "count",
    "framing.copy_agreement_ratio": "ratio",
    **{f"pipeline.receive.fail.{label}": "count" for label in FAILS},
    **{f"pipeline.receive.ok_ratio.{point}": "ratio" for point in W.noisy_points()},
    "trace.overhead_ratio": "ratio",
}


class CheckFailure(Exception):
    """The program produced a wrong output; the run is not a measurement."""


@dataclass
class Attempt:
    encode_ns: int
    decode_ns: int
    ok: bool
    outcome: str  # decoded text or the error class
    error: ValueError | None
    samples: int  # received samples


def attempt(trial: W.Trial) -> Attempt:
    """One transmit -> channel -> receive, timed and checked.

    Calls go through the package attributes so the traced run's wrappers
    see them.
    """
    clock = time.perf_counter_ns
    t0 = clock()
    wave = glyphwave.transmit(trial.text, trial.cfg, W.REPETITION)
    t1 = clock()
    if len(wave.samples) != trial.samples:
        raise CheckFailure(
            f"message {trial.index}: transmit gave {len(wave.samples)} samples, "
            f"the duration law wants {trial.samples}"
        )
    if trial.channel is not None:
        wave = W.inject(glyphwave.apply_channel(wave, trial.channel), trial.fault)
    t2 = clock()
    error = None
    try:
        outcome = glyphwave.receive(wave, trial.cfg).dsl_text
    except ValueError as err:
        # Kept past the except block, the traceback would tie the failed
        # decode's arrays into a reference cycle and inflate peak memory.
        outcome, error = type(err).__name__, err.with_traceback(None)
    t3 = clock()
    ok = error is None and outcome == trial.expected
    if not ok and trial.channel is None:
        raise CheckFailure(
            f"message {trial.index} ({trial.scheme}) {trial.text!r}: expected "
            f"{trial.expected!r}, got {outcome!r}"
        )
    return Attempt(t1 - t0, t3 - t2, ok, outcome, error, len(wave.samples))


@dataclass
class Run:
    encode_ms: list[float] = field(default_factory=list)
    decode_ms: list[float] = field(default_factory=list)  # correct decodes only
    attempts: int = 0
    ok: int = 0
    wrong: int = 0
    passes: int = 0
    wall_s: float = 0.0
    outcomes: list[str] = field(default_factory=list)  # first pass, in order
    fails: Counter = field(default_factory=Counter)
    point_tries: Counter = field(default_factory=Counter)
    point_ok: Counter = field(default_factory=Counter)


def run_passes(
    trials, seconds: float, min_decodes: int = 0, tracer=None, stats=None, run=None
) -> Run:
    """Whole passes over trials until seconds have passed and min_decodes
    correct decodes are timed (giving up on the latter at 4x seconds).

    With seconds 0 this is exactly one pass; pass run to add to it.
    """
    run = Run() if run is None else run
    start = time.perf_counter()
    while True:
        for trial in trials:
            if tracer is not None:
                tracer.message = run.attempts
                first = len(tracer.spans)
            a = attempt(trial)
            run.attempts += 1
            run.encode_ms.append(a.encode_ns / 1e6)
            point = f"{trial.scheme}.{trial.point}"
            run.point_tries[point] += 1
            if a.ok:
                run.ok += 1
                run.point_ok[point] += 1
                run.decode_ms.append(a.decode_ns / 1e6)
            elif a.error is None:
                run.wrong += 1
            if run.passes == 0:
                run.outcomes.append(a.outcome)
            if stats is not None:
                stage = stats.add_message(tracer, first, a.error, trial, a.samples)
                if a.error is not None:
                    label = f"{stage}.{type(a.error).__name__}"
                    run.fails[label if label in FAILS else "other"] += 1
                elif not a.ok:
                    run.fails["check.wrong_text"] += 1
        run.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(run.decode_ms) >= min_decodes or elapsed >= 4 * seconds):
            break
    run.wall_s += time.perf_counter() - start
    return run


def check_golden() -> None:
    """The CLI frame dump of each canonical message equals its golden file."""
    for name, text in CANONICAL.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = glyphwave.cli.main(["frame", text])
        want = (GOLDEN / f"{name}.frame.txt").read_text()
        if code != 0 or buf.getvalue() != want:
            raise CheckFailure(f"frame dump of {name} differs from {GOLDEN / name}.frame.txt")


def probe_spec(workload: str, trial: W.Trial) -> str:
    ch = trial.channel
    return json.dumps(
        {
            "workload": workload,
            "scheme": trial.scheme,
            "text": trial.text,
            "expected": trial.expected,
            "channel": None if ch is None else [ch.snr_db, ch.gain, ch.seed],
            "fault": trial.fault,
        }
    )


def setup_seconds(workload: str, trial: W.Trial, probes: int = SETUP_PROBES) -> float:
    """Median wall time of fresh interpreters that import glyphwave and
    complete the first message's round trip (probe.py)."""
    spec = probe_spec(workload, trial)
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), spec],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise CheckFailure(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def _p90(values) -> float:
    return float(np.percentile(values, 90))


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    if not run.decode_ms:
        raise CheckFailure("no message decoded correctly; decode latency is undefined")
    values = {
        "setup_s": setup_s,
        "encode_ms_p50": statistics.median(run.encode_ms),
        "encode_ms_p90": _p90(run.encode_ms),
        "decode_ms_p50": statistics.median(run.decode_ms),
        "decode_ms_p90": _p90(run.decode_ms),
        "msgs_per_s": run.ok / run.wall_s,
        "decode_ok_ratio": run.ok / run.attempts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def layer_metrics(stats: LayerStats, run: Run, overhead: float) -> dict:
    demod = stats.calls["modem.demodulate"]
    vote = stats.calls["framing.majority_vote"]
    frames = stats.calls["framing.frame_message"]
    values = {
        "modem.demodulate.self_ms": stats.own_ms("modem.demodulate"),
        "modem.demodulate.ns_per_sample": median(stats.demod_per_sample),
        "modem.demodulate.samples": stats.counts["demod.samples"] / max(demod, 1),
        "modem.demodulate.us_per_run": median(stats.demod_per_run),
        "modem.demodulate.runs": stats.counts["demod.runs"] / max(demod, 1),
        **{f"{name}.ms": stats.ms(name) for name in _TIMED},
        **{f"{name}.calls": stats.per_message(name) for name in _CALLED},
        "pipeline.transmit.self_ms": stats.own_ms("pipeline.transmit"),
        "pipeline.receive.self_ms": stats.own_ms("pipeline.receive"),
        "pipeline.recognize_glyph.inexact_ratio": stats.counts["recognize.inexact"]
        / max(stats.calls["pipeline.recognize_glyph"], 1),
        "framing.frame_message.elements": stats.counts["frame.elements"] / max(frames, 1),
        "modem.modulate.samples": stats.counts["modulate.samples"]
        / max(stats.calls["modem.modulate"], 1),
        "framing.majority_vote.corrected_bits": stats.counts["vote.corrected"] / max(vote, 1),
        "framing.majority_vote.ties": stats.counts["vote.ties"] / max(vote, 1),
        "framing.copy_agreement_ratio": stats.counts["vote.agreeing"]
        / max(stats.counts["vote.copies"], 1),
        **{f"pipeline.receive.fail.{k}": run.fails[k] / run.passes for k in FAILS},
        **{
            f"pipeline.receive.ok_ratio.{p}": run.point_ok[p] / run.point_tries[p]
            if run.point_tries[p]
            else 0.0
            for p in W.noisy_points()
        },
        "trace.overhead_ratio": overhead,
    }
    return {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, Run]:
    """Run one workload; returns (metrics, details for the record, last run)."""
    check_golden()
    trials = W.build_trials(workload, seed)
    for scheme in W.SCHEMES:  # warm every config before timing
        attempt(next(t for t in trials if t.scheme == scheme))

    if not trace:
        setup_s = setup_seconds(workload, trials[0])
        run = run_passes(trials, seconds, MIN_DECODES)
        details = {"passes": run.passes, "attempts": run.attempts, "decodes_timed": len(run.decode_ms)}
        return end_to_end_metrics(run, setup_s), details, run

    # Untraced and traced passes alternate, so machine drift during the run
    # falls on both sides of the overhead comparison alike.
    base, run = Run(), Run()
    tracer, stats = Tracer(), LayerStats()
    start = time.perf_counter()
    while run.passes == 0 or time.perf_counter() - start < seconds:
        run_passes(trials, 0, run=base)
        with tracer.installed():
            run_passes(trials, 0, tracer=tracer, stats=stats, run=run)
    if run.outcomes != base.outcomes:
        raise CheckFailure("the traced run decoded differently from the untraced run")
    overhead = (run.wall_s / run.attempts) / (base.wall_s / base.attempts) - 1
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-seed{seed}.spans.jsonl")
    details = {
        "passes": run.passes,
        "attempts": run.attempts,
        "untraced_attempts": base.attempts,
        "spans": len(tracer.spans),
    }
    run.attempts += base.attempts
    run.wrong += base.wrong
    return layer_metrics(stats, run, overhead), details, run


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(workload, seed, trace)
    try:
        metrics, details, run = measure(workload, seed, seconds, trace)
    except CheckFailure as err:
        print(f"check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "details": details, "metrics": metrics}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env, "details": details}))
    print(
        json.dumps(
            {"correct": True, "attempted": run.attempts, "failed": run.wrong, "metrics": metrics}
        )
    )
    return 0
