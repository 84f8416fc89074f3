"""End-to-end transmitter and receiver.

Transmit: DSL text -> symbols -> glyph run (symbols joined by one blank
cell) -> the glyphs' rows of the registry's (n_glyphs, height, width)
pixel array -> framed bits -> waveform. Receive walks the same path
backwards, voting across repeated copies, matching each recovered payload
to the nearest canonical glyph, and re-parsing glyphs into symbols in one
linear pass. A simulated channel applies gain and seeded white Gaussian
noise at a given SNR so receiver behavior can be studied reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framing import BitFrame, LengthMismatchError, frame_message, majority_vote, read_frame
from .glyphs import DEFAULT_DIMS, Glyph, glyph_pixels, glyph_sequence
from .modem import ModemConfig, Waveform, demodulate, modulate
from .notation import MAXWELL, SPACETIME, Message, SymbolKind, SymbolSpec, parse_dsl, print_dsl


class AmbiguousGlyphError(ValueError):
    """Two canonical glyphs are equally near; refusing to guess."""


class UngrammaticalGlyphsError(ValueError):
    """Glyph run matches no symbol linearization; carries the offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (glyph {offset})")
        self.offset = offset


class UnrecoverableMessageError(ValueError):
    """One or more glyph payloads could not be recognized."""

    def __init__(self, failures: list[tuple[int, Exception]]):
        positions = ", ".join(str(i) for i, _ in failures)
        super().__init__(f"unrecoverable glyphs at positions {positions}")
        self.failures = failures


# A registry's rows are in tuple(Glyph) order.
_GLYPHS = tuple(Glyph)
_ROW_OF = {g: i for i, g in enumerate(_GLYPHS)}

# At or below this SNR the noise scale 10 ** (-snr_db / 20) overflows a float.
_MIN_SNR_DB = -20 * math.log10(np.finfo(float).max)


@dataclass(frozen=True)
class ChannelConfig:
    """Additive white Gaussian noise channel with scalar gain.

    snr_db of None means noiseless; the noise level is referenced to the
    root-mean-square of the non-silent part of the (gain-scaled) signal,
    and a fixed seed reproduces the identical noise realization.
    """

    snr_db: float | None = None
    gain: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.snr_db is not None and not _MIN_SNR_DB < self.snr_db < math.inf:
            raise ValueError(
                f"snr_db must be finite and above {_MIN_SNR_DB:g} or None, got {self.snr_db}"
            )
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ValueError(f"gain must be finite and positive, got {self.gain}")


def _rms(x: np.ndarray) -> float:
    """Root-mean-square of x, computed in x's own memory. The squares are
    taken at the exact power-of-two scale that brings the peak into
    [0.5, 1): they cannot overflow or underflow, and where the plain
    formula's do neither, the result equals it bit for bit."""
    np.abs(x, out=x)
    e = np.frexp(x.max())[1]
    np.square(np.ldexp(x, -e, out=x), out=x)
    return float(np.ldexp(np.sqrt(np.mean(x)), e))


def apply_channel(wave: Waveform, ch: ChannelConfig) -> Waveform:
    """Scale by gain and add seeded white Gaussian noise at the set SNR.

    Output that overflows is refused with a ValueError naming the gain, and
    the SNR when noise is added; numpy's overflow warnings are silenced
    because this one check on the output covers them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = float(ch.gain) * wave.samples
        if ch.snr_db is not None:
            # Pauses are exact zeros before noise; dilate the non-zero mask 8
            # samples each way so in-carrier zero crossings do not bias the
            # reference RMS: or-ing in the mask shifted by +k, then by -k, adds
            # the offsets ±k, and ±1, ±2, ±4, ±1 reach every offset up to 8.
            # Past the ends counts as zero.
            active = out != 0
            for k in (1, 2, 4, 1):
                active[k:] |= active[:-k]
                active[:-k] |= active[k:]
            if np.any(active):
                signal_rms = _rms(out[active])
                sigma = signal_rms * 10 ** (-ch.snr_db / 20)
                noisy = np.random.default_rng(ch.seed).normal(0.0, sigma, len(out))
                noisy += out
                out = noisy
    if not np.all(np.isfinite(out)):
        at = "" if ch.snr_db is None else f" at snr_db {ch.snr_db:g}"
        raise ValueError(f"gain {ch.gain:g}{at} overflows the waveform: output must be finite")
    return Waveform._trusted(out, wave.sample_rate)


def recognize_glyphs(
    payloads: np.ndarray, dims: tuple[int, int] = DEFAULT_DIMS
) -> tuple[list[tuple[Glyph, int, int]], list[tuple[int, AmbiguousGlyphError]]]:
    """Nearest canonical glyph of every row of a (n_glyphs, width * height)
    payload by Hamming distance, with the runner-up distance.

    Returns the matches of the recognized rows and, in row order, an
    AmbiguousGlyphError for each row with a tie for nearest, rather than
    a guess.
    """
    pixels = glyph_pixels(dims)
    width, height = dims
    if payloads.shape[1] != width * height:
        raise LengthMismatchError(
            f"payload has {payloads.shape[1]} bits, grid wants {width * height}"
        )
    dist = (payloads[:, None, :] != pixels.reshape(len(_GLYPHS), -1)).sum(axis=2)
    order = np.argsort(dist, axis=1, kind="stable")[:, :2]
    best, second = np.take_along_axis(dist, order, axis=1).T.tolist()
    matches, failures = [], []
    for row, (g, d, runner) in enumerate(zip(order[:, 0].tolist(), best, second)):
        if d == runner:
            failures.append((row, AmbiguousGlyphError(f"payload is {d} flips from two glyphs")))
        else:
            matches.append((_GLYPHS[g], d, runner))
    return matches, failures


# The fixed patterns, in the precedence they take over a bracket group.
_PATTERNS = tuple((tuple(glyph_sequence(spec)), spec) for spec in (SPACETIME, MAXWELL))
_BRACKETS = (Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN)
_ARROWS, _TILDES = (Glyph.ARROW_UP, Glyph.ARROW_DOWN), (Glyph.TILDE_UPPER, Glyph.TILDE_LOWER)


def _parse_tensor_group(glyphs: tuple[Glyph, ...], at: int) -> tuple[int, SymbolSpec | str]:
    """The bracket group at `at` as (end, symbol), or (offset, reason)."""
    n = len(glyphs)
    for k, want in enumerate(_BRACKETS):
        if at + k >= n or glyphs[at + k] is not want:
            return at + k, f"expected {want.value} in bracket group"
    i, r, s = at + 3, 0, 0
    affinity = i < n and glyphs[i] in _TILDES
    up, down = _TILDES if affinity else _ARROWS
    while i < n and glyphs[i] is up:
        r, i = r + 1, i + 1
    while i < n and glyphs[i] is down:
        s, i = s + 1, i + 1
    at_point = not affinity and i < n and glyphs[i] is Glyph.POINT_DOT
    i += at_point
    try:
        return i, SymbolSpec(SymbolKind.TENSOR, r, s, at_point=at_point, affinity=affinity)
    except ValueError as err:
        return at, str(err)


def parse_glyphs_to_message(glyphs: list[Glyph]) -> Message:
    """Invert the glyph linearization back into symbols, in linear time.

    A forward pass lists the readings at each symbol start reachable from
    glyph 0, fixed patterns before the bracket group. A backward pass keeps
    at each start the first reading whose tail parses (so a point-marked
    group right after the em pattern falls back to the generic reading),
    else the deepest failure: the greatest offset, and on a tie the first
    found, the bracket group's own failure before its readings' tails.
    """
    glyphs, n = tuple(glyphs), len(glyphs)
    if not n:
        raise UngrammaticalGlyphsError("empty glyph run", 0)
    table = {}  # start: (readings as (end, symbol), bracket group failure or None)
    todo = {0}
    while todo:
        at = todo.pop()
        readings = [(at + len(p), spec) for p, spec in _PATTERNS if glyphs[at : at + len(p)] == p]
        end, group = _parse_tensor_group(glyphs, at)
        if isinstance(group, str):
            table[at] = readings, (end, group)
        else:
            table[at] = readings + [(end, group)], None
        ends = [end for end, _ in table[at][0] if end + 1 < n and glyphs[end] is Glyph.BLANK]
        todo.update(end + 1 for end in ends if end + 1 not in table)

    chosen: dict[int, tuple[int, SymbolSpec]] = {}
    failed: dict[int, tuple[int, str]] = {}
    for at in sorted(table, reverse=True):
        readings, deepest = table[at]
        for end, spec in readings:
            if end == n or end + 1 in chosen:  # a start only past a separator blank
                chosen[at] = end, spec
                break
            if glyphs[end] is not Glyph.BLANK:
                tail = end, "expected blank separator between symbols"
            elif end + 1 == n:
                tail = end, "dangling separator at end of message"
            else:
                tail = failed[end + 1]
            if deepest is None or tail[0] > deepest[0]:
                deepest = tail
        else:
            failed[at] = deepest
    if 0 in failed:
        offset, reason = failed[0]
        raise UngrammaticalGlyphsError(reason, offset)
    symbols, at = [], 0
    while at < n:
        end, spec = chosen[at]
        symbols.append(spec)
        at = end + 1
    return Message(tuple(symbols))


def message_glyphs(msg: Message) -> list[Glyph]:
    """Linearize a whole message: symbols joined by one blank cell."""
    out: list[Glyph] = []
    for i, spec in enumerate(msg):
        if i:
            out.append(Glyph.BLANK)
        out.extend(glyph_sequence(spec))
    return out


def message_frame(
    msg: Message, repetition: int = 1, dims: tuple[int, int] = DEFAULT_DIMS
) -> BitFrame:
    """Frame a message's glyphs, gathered as rows of the registry's pixel array."""
    rows = [_ROW_OF[g] for g in message_glyphs(msg)]
    return frame_message(glyph_pixels(dims)[rows], repetition, dims)


def transmit(
    dsl: str,
    cfg: ModemConfig | None = None,
    repetition: int = 3,
    dims: tuple[int, int] = DEFAULT_DIMS,
) -> Waveform:
    """DSL text straight to waveform with the shared default pipeline."""
    cfg = cfg or ModemConfig()
    frame = message_frame(parse_dsl(dsl), repetition, dims)
    return modulate(frame, cfg)


@dataclass(frozen=True)
class DecodeReport:
    """Everything the receiver learned, including per-glyph confidence."""

    message: Message
    dsl_text: str
    dims: tuple[int, int]
    n_glyphs: int
    repetition: int
    per_glyph: tuple[tuple[Glyph, int, int], ...]
    corrected_bits: int
    tie_flags: int

    def clean(self) -> bool:
        return (
            self.corrected_bits == 0
            and self.tie_flags == 0
            and all(d == 0 for _, d, _ in self.per_glyph)
        )


def receive(wave: Waveform, cfg: ModemConfig | None = None) -> DecodeReport:
    """Full decode: demodulate, vote across copies, recognize, re-parse."""
    cfg = cfg or ModemConfig()
    info, payloads = read_frame(demodulate(wave, cfg))
    vote = majority_vote(payloads)
    corrected = int((payloads != vote.payload).any(axis=0).sum())
    dims = (info.width, info.height)
    per_glyph, failures = recognize_glyphs(vote.payload.reshape(info.n_glyphs, -1), dims)
    if failures:
        raise UnrecoverableMessageError(failures)

    message = parse_glyphs_to_message([g for g, _, _ in per_glyph])
    return DecodeReport(
        message=message,
        dsl_text=print_dsl(message),
        dims=dims,
        n_glyphs=info.n_glyphs,
        repetition=info.repetition,
        per_glyph=tuple(per_glyph),
        corrected_bits=corrected,
        tie_flags=len(vote.tie_positions),
    )
