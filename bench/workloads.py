"""Seeded inputs, expected outputs and fault injection for the benchmark.

Everything the benchmark checks against is derived here, from the
benchmark's own symbol model and printer, never from `receive`. A trial is
one message: the DSL text sent, the text a correct decode must print, the
modem config, the transmitted sample count the duration law predicts, and
for the noisy workload the channel point and an optional one-copy fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from glyphwave import ChannelConfig, ModemConfig, Waveform, transmit

SCHEMES = ("ask", "fsk", "psk")
WORKLOADS = ("wide-clean", "dense-clean", "noisy-fast")
REPETITION = 3
WIDTH, HEIGHT = 5, 7


def wide_config(scheme: str) -> ModemConfig:
    """The library default: 48 kHz, 480 samples per bit."""
    return ModemConfig(scheme=scheme)


def dense_config(scheme: str) -> ModemConfig:
    """8 kHz at 8 samples per bit: almost no per-sample work per bit."""
    return ModemConfig(
        scheme=scheme,
        sample_rate=8000,
        bit_duration=8,
        carrier_hz=1000.0,
        freq0_hz=1000.0,
        freq1_hz=2000.0,
        pause_row=8,
        pause_glyph=24,
        pause_message=56,
    )


def noisy_config(scheme: str) -> ModemConfig:
    """The test suite's fast config: 96 samples per bit."""
    return ModemConfig(
        scheme=scheme,
        bit_duration=96,
        carrier_hz=3000.0,
        freq0_hz=2000.0,
        freq1_hz=3000.0,
        pause_row=96,
        pause_glyph=288,
        pause_message=672,
    )


CONFIGS = {"wide-clean": wide_config, "dense-clean": dense_config, "noisy-fast": noisy_config}

# --- the benchmark's own symbol model --------------------------------------
# A symbol is (kind, r, s, at_point) with kind in tensor/affinity/spacetime/em.

EM = ("em", 0, 0, False)
# tensor(0,2) form tensor(0,2) linearizes to the same glyphs as em, and the
# receiver reads it as em: the documented wire-image collision.
EM_COLLISION = (("tensor", 0, 2, False), ("tensor", 0, 1, False), ("tensor", 0, 2, False))


def glyph_count(sym: tuple) -> int:
    kind, r, s, at_point = sym
    if kind == "spacetime":
        return 10
    if kind == "em":
        return 16
    return 3 + r + s + int(at_point)


def message_glyph_count(symbols: tuple) -> int:
    """Glyphs of a message: its symbols plus one blank between neighbours."""
    return sum(glyph_count(s) for s in symbols) + len(symbols) - 1


def token(sym: tuple) -> str:
    """Canonical DSL token of one symbol."""
    kind, r, s, at_point = sym
    if kind in ("spacetime", "em"):
        return kind
    if kind == "affinity":
        return f"affinity({r},{s})"
    suffix = "@p" if at_point else ""
    if (r, s) == (1, 0):
        return "vector" + suffix
    if (r, s) == (0, 1):
        return "form" + suffix
    return f"tensor({r},{s}){suffix}"


def expected_reading(symbols: tuple) -> str:
    """What a correct receiver prints: canonical tokens, collisions read as em."""
    out, i = [], 0
    while i < len(symbols):
        if tuple(symbols[i : i + 3]) == EM_COLLISION:
            out.append("em")
            i += 3
        else:
            out.append(token(symbols[i]))
            i += 1
    return " ".join(out)


def transmitted_samples(n_glyphs: int, cfg: ModemConfig, repetition: int = REPETITION) -> int:
    """Duration law: every bit is one bit_duration, every pause its configured length."""
    per_copy = (
        n_glyphs * HEIGHT * WIDTH * cfg.bit_duration
        + n_glyphs * (HEIGHT - 1) * cfg.pause_row
        + (n_glyphs - 1) * cfg.pause_glyph
    )
    return repetition * per_copy + (repetition - 1) * cfg.pause_message


# --- trials ----------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    index: int
    text: str
    expected: str
    scheme: str
    cfg: ModemConfig
    samples: int
    runs: int
    elements: int
    point: str = "clean"
    channel: ChannelConfig | None = None
    fault: tuple[str, int, int] | None = None


def _trial(index, symbols, text, cfg, **extra) -> Trial:
    n = message_glyph_count(symbols)
    runs = REPETITION * n * HEIGHT
    pauses = REPETITION * (n * (HEIGHT - 1) + n - 1) + REPETITION - 1
    return Trial(
        index=index,
        text=text,
        expected=expected_reading(symbols),
        scheme=cfg.scheme,
        cfg=cfg,
        samples=transmitted_samples(n, cfg),
        runs=runs,
        elements=runs + pauses,
        **extra,
    )


def wide_trials(seed: int) -> list[Trial]:
    """"em" once per scheme; the input does not depend on the seed."""
    return [_trial(i, (EM,), "em", wide_config(s)) for i, s in enumerate(SCHEMES)]


DENSE_SYMBOLS = 8
DENSE_GLYPHS = 64
DENSE_MESSAGES = 24


def _random_symbol(rng: np.random.Generator) -> tuple[tuple, str]:
    """One symbol and the token that spells it; every token kind occurs."""
    roll = int(rng.integers(0, 10))
    if roll < 4:
        r, s = ((1, 0), (0, 1))[roll // 2]
        sym = ("tensor", r, s, bool(roll % 2))
        return sym, token(sym)
    if roll == 4:
        return ("tensor", 1, 3, False), "riemann"
    if roll == 5:
        return ("spacetime", 0, 0, False), "spacetime"
    if roll == 6:
        return EM, "em"
    r, s = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    if roll == 7 and r + s >= 1:
        sym = ("affinity", r, s, False)
    else:
        sym = ("tensor", r, s, roll == 9)
    return sym, token(sym)


def dense_message(rng: np.random.Generator, collision: bool) -> tuple[tuple, str]:
    """Eight symbols of exactly DENSE_GLYPHS glyphs, so every message costs alike.

    With collision set, three of the symbols are tensor(0,2) form tensor(0,2).
    """
    while True:
        drawn = [_random_symbol(rng) for _ in range(DENSE_SYMBOLS - 3 * collision)]
        if collision:
            at = int(rng.integers(0, len(drawn) + 1))
            drawn[at:at] = [(sym, token(sym)) for sym in EM_COLLISION]
        symbols = tuple(sym for sym, _ in drawn)
        if message_glyph_count(symbols) == DENSE_GLYPHS:
            return symbols, " ".join(tok for _, tok in drawn)


def dense_trials(seed: int) -> list[Trial]:
    rng = np.random.default_rng([seed, 2])
    trials = []
    for i in range(DENSE_MESSAGES):
        symbols, text = dense_message(rng, collision=i == 1)
        trials.append(_trial(i, symbols, text, dense_config(SCHEMES[i % 3])))
    return trials


# Noise points bracket each scheme's cliff for "em" at repetition 3 with the
# fast config; faulted messages sit at the scheme's highest point, so a
# failure there is the fault's doing.
SNR_POINTS = {"ask": (20, 15), "fsk": (10, 5), "psk": (15, 10, 5)}
FAULTS = ("dropout", "click", "truncate")
PER_SCHEME = 48
FAULTS_PER_KIND = 4
DROPOUT_SAMPLES = 300
CLICK_SAMPLES = 60
TRUNCATE_SHARE = 0.1


def noisy_points() -> list[str]:
    """Every scheme/point label the noisy workload reports, in a fixed order."""
    return [
        f"{scheme}.{label}"
        for scheme in SCHEMES
        for label in [f"snr{p}" for p in SNR_POINTS[scheme]] + list(FAULTS)
    ]


def silences(x: np.ndarray, min_len: int) -> list[tuple[int, int]]:
    """[start, stop) of every run of exact zeros at least min_len long."""
    edges = np.diff(np.concatenate([[0], (x == 0).astype(np.int8), [0]]))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return [(int(a), int(b)) for a, b in zip(starts, stops) if b - a >= min_len]


def copy_spans(clean: np.ndarray, cfg: ModemConfig) -> list[tuple[int, int]]:
    """Copies of a clean waveform, split at its message-length silences."""
    cut = (cfg.pause_glyph + cfg.pause_message) // 2
    bounds = [0]
    for a, b in silences(clean, cut):
        bounds += [a, b]
    bounds.append(len(clean))
    return list(zip(bounds[::2], bounds[1::2]))


def place_fault(kind: str, clean: np.ndarray, cfg: ModemConfig, rng) -> tuple[str, int, int]:
    """Pick [start, stop) for one fault, entirely inside one copy."""
    if kind == "truncate":
        cut = int(round(len(clean) * (1 - TRUNCATE_SHARE)))
        return kind, cut, len(clean)
    copies = copy_spans(clean, cfg)
    c0, c1 = copies[int(rng.integers(0, len(copies)))]
    inner = silences(clean[c0:c1], cfg.pause_row // 2)
    if kind == "click":
        a, b = inner[int(rng.integers(0, len(inner)))]
        start = c0 + a + int(rng.integers(0, b - a - CLICK_SAMPLES + 1))
        return kind, start, start + CLICK_SAMPLES
    # dropout: inside one run, the stretch of carrier between two pauses
    bounds = [0] + [edge for span in inner for edge in span] + [c1 - c0]
    runs = list(zip(bounds[::2], bounds[1::2]))
    a, b = runs[int(rng.integers(0, len(runs)))]
    start = c0 + a + int(rng.integers(0, b - a - DROPOUT_SAMPLES + 1))
    return kind, start, start + DROPOUT_SAMPLES


def inject(wave: Waveform, fault: tuple[str, int, int] | None) -> Waveform:
    """Apply a placed fault to a received waveform (after the channel)."""
    if fault is None:
        return wave
    kind, start, stop = fault
    if kind == "truncate":
        return Waveform(wave.samples[:start], wave.sample_rate)
    samples = wave.samples.copy()
    if kind == "dropout":
        samples[start:stop] = 0.0
    else:
        samples[start:stop] += 1.0
    return Waveform(samples, wave.sample_rate)


def noisy_trials(seed: int) -> list[Trial]:
    """A balanced, seeded pass: schemes rotate ask, fsk, psk.

    Per scheme, PER_SCHEME messages: FAULTS_PER_KIND of each fault kind and
    the rest split evenly over its noise points. Faults are placed on the
    noiseless transmit of "em".
    """
    rng = np.random.default_rng([seed, 3])
    clean = {s: transmit("em", noisy_config(s), REPETITION).samples for s in SCHEMES}
    labels = {}
    for scheme in SCHEMES:
        points = SNR_POINTS[scheme]
        unfaulted = PER_SCHEME - FAULTS_PER_KIND * len(FAULTS)
        per_point = unfaulted // len(points)
        plan = [("snr", p) for p in points for _ in range(per_point)]
        plan += [(kind, points[0]) for kind in FAULTS for _ in range(FAULTS_PER_KIND)]
        assert len(plan) == PER_SCHEME
        labels[scheme] = [plan[i] for i in rng.permutation(len(plan))]

    trials = []
    for i in range(PER_SCHEME * len(SCHEMES)):
        scheme = SCHEMES[i % 3]
        cfg = noisy_config(scheme)
        kind, snr = labels[scheme][i // 3]
        channel = ChannelConfig(
            snr_db=float(snr), gain=float(rng.uniform(0.5, 1.0)), seed=int(rng.integers(2**31))
        )
        fault = None if kind == "snr" else place_fault(kind, clean[scheme], cfg, rng)
        point = f"snr{snr}" if kind == "snr" else kind
        trials.append(_trial(i, (EM,), "em", cfg, point=point, channel=channel, fault=fault))
    return trials


def build_trials(workload: str, seed: int) -> list[Trial]:
    """The fixed input sequence of one workload pass for a seed."""
    build = {"wide-clean": wide_trials, "dense-clean": dense_trials, "noisy-fast": noisy_trials}
    return build[workload](seed)
