"""Spans around the package's public functions, recorded from outside.

A wrapper replaces a function at the module attribute its caller resolves
(for example `glyphwave.pipeline.demodulate`, which `receive` calls), so the
spans nest under the real transmit and receive calls without any change to
the package. Each span records its name, start, end, parent and message id;
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Spans the wrappers may attach a small observation to, computed after the
# span has ended so it costs the traced function nothing.
_NOTES = {
    "modem.modulate": lambda args, result: len(result.samples),
    "pipeline.recognize_glyph": lambda args, result: result[1],
    "framing.majority_vote": lambda args, result: (args[0], result[0], len(result[1])),
}

# (module, attribute, span name). The first three are the benchmark's own
# calls; the rest are what transmit, receive and demodulate call.
TARGETS = (
    ("glyphwave", "transmit", "pipeline.transmit"),
    ("glyphwave", "apply_channel", "pipeline.apply_channel"),
    ("glyphwave", "receive", "pipeline.receive"),
    ("glyphwave.pipeline", "parse_dsl", "notation.parse_dsl"),
    ("glyphwave.pipeline", "glyph_sequence", "glyphs.glyph_sequence"),
    ("glyphwave.pipeline", "bitmap_of", "glyphs.bitmap_of"),
    ("glyphwave.pipeline", "serialize_glyph", "raster.serialize_glyph"),
    ("glyphwave.pipeline", "frame_message", "framing.frame_message"),
    ("glyphwave.pipeline", "modulate", "modem.modulate"),
    ("glyphwave.pipeline", "demodulate", "modem.demodulate"),
    ("glyphwave.modem", "infer_grid", "framing.infer_grid"),
    ("glyphwave.pipeline", "infer_grid", "framing.infer_grid"),
    ("glyphwave.pipeline", "copy_payloads", "framing.copy_payloads"),
    ("glyphwave.pipeline", "majority_vote", "framing.majority_vote"),
    ("glyphwave.pipeline", "recognize_glyph", "pipeline.recognize_glyph"),
    ("glyphwave.pipeline", "parse_glyphs_to_message", "pipeline.parse_glyphs_to_message"),
    ("glyphwave.pipeline", "print_dsl", "notation.print_dsl"),
)

# Span name -> stage label used in the failure tallies.
STAGES = {
    "modem.demodulate": "demodulate",
    "framing.infer_grid": "infer_grid",
    "framing.copy_payloads": "copy_payloads",
    "framing.majority_vote": "majority_vote",
    "pipeline.recognize_glyph": "recognize_glyph",
    "pipeline.parse_glyphs_to_message": "parse_glyphs",
    "pipeline.receive": "receive",
}

NAME, START, END, PARENT, MESSAGE, ERROR, NOTE = range(7)


class Tracer:
    """In-memory span recorder; one message is in flight at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.message = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.message, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[ERROR] = err
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every target the package still has for its traced wrapper."""
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                module = importlib.import_module(mod_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Spans as JSON lines, after add_message has seen them: name, start
        and end in ns from the first span, parent index, message id, error
        class or null."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w") as f:
            for s in self.spans:
                row = [s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[MESSAGE], s[ERROR]]
                f.write(json.dumps(row) + "\n")


def median(xs) -> float:
    """Median, or 0 for a layer the workload never reached."""
    return float(statistics.median(xs)) if xs else 0.0


class LayerStats:
    """Per-layer totals, folded in one message at a time."""

    def __init__(self):
        self.messages = 0
        self.incl_ms = defaultdict(list)  # name -> per-message inclusive ms
        self.self_ms = defaultdict(list)  # name -> per-message self ms
        self.calls = Counter()
        self.counts = Counter()
        self.demod_per_sample: list[float] = []
        self.demod_per_run: list[float] = []

    def add_message(self, tracer: Tracer, first: int, escaped, trial, samples: int):
        """Fold spans[first:] (one message) in; escaped is receive's error or None.

        Work counts that the benchmark's own model predicts (runs and frame
        elements of the trial) are taken from the trial, so they do not
        depend on the package's frame representation; samples is the length
        of the waveform handed to receive.

        Returns the stage the escaped error came from, or None. Exception
        objects and observations are dropped afterwards so their memory is
        freed.
        """
        spans = tracer.spans[first:]
        self.messages += 1
        child = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= first:
                child[s[PARENT] - first] += s[END] - s[START]
        incl, own = Counter(), Counter()
        for i, s in enumerate(spans):
            incl[s[NAME]] += s[END] - s[START]
            own[s[NAME]] += s[END] - s[START] - child[i]
            self.calls[s[NAME]] += 1
            self._observe(s)
        for name in incl:
            self.incl_ms[name].append(incl[name] / 1e6)
            self.self_ms[name].append(own[name] / 1e6)
        if "framing.frame_message" in own:
            self.counts["frame.elements"] += trial.elements
        if "modem.demodulate" in own:
            demod_ns = own["modem.demodulate"]
            self.counts["demod.samples"] += samples
            self.counts["demod.runs"] += trial.runs
            self.demod_per_sample.append(demod_ns / max(samples, 1))
            self.demod_per_run.append(demod_ns / 1e3 / trial.runs)

        stage = None
        if escaped is not None:
            raisers = [s for s in spans if s[ERROR] is escaped]
            innermost = max(raisers, key=lambda s: s[START]) if raisers else None
            stage = STAGES.get(innermost[NAME], "other") if innermost else "other"
        for s in spans:
            if s[ERROR] is not None:
                s[ERROR] = type(s[ERROR]).__name__
            s[NOTE] = None
        return stage

    def _observe(self, s):
        note = s[NOTE]
        if note is None:
            return
        name = s[NAME]
        if name == "modem.modulate":
            self.counts["modulate.samples"] += note
        elif name == "pipeline.recognize_glyph":
            self.counts["recognize.inexact"] += note > 0
        elif name == "framing.majority_vote":
            copies, vote, ties = note
            stack, voted = np.asarray(copies), np.asarray(vote)
            differs = stack != voted
            self.counts["vote.corrected"] += int(differs.any(axis=0).sum())
            self.counts["vote.ties"] += ties
            self.counts["vote.copies"] += len(stack)
            self.counts["vote.agreeing"] += int((~differs.any(axis=1)).sum())

    # --- metric views ---------------------------------------------------

    def ms(self, name: str) -> float:
        """Median over messages that called it of the time inside name."""
        return median(self.incl_ms.get(name))

    def own_ms(self, name: str) -> float:
        return median(self.self_ms.get(name))

    def per_message(self, name: str) -> float:
        return self.calls[name] / max(self.messages, 1)
