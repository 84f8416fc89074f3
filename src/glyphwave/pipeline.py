"""End-to-end transmitter and receiver.

Transmit: DSL text -> symbols -> glyph run (symbols joined by one blank
cell) -> bitmaps -> framed bits -> waveform. Receive walks the same path
backwards, voting across repeated copies, matching each recovered payload
to the nearest canonical glyph, and re-parsing glyphs into symbols. A
simulated channel applies gain and seeded white Gaussian noise at a given
signal-to-noise ratio so receiver behavior can be studied reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framing import BitFrame, LengthMismatchError, frame_message, majority_vote, read_frame
from .glyphs import DEFAULT_DIMS, Glyph, bitmap_of, glyph_sequence, registry_for
from .modem import ModemConfig, Waveform, demodulate, modulate
from .notation import MAXWELL, SPACETIME, Message, SymbolKind, SymbolSpec, parse_dsl, print_dsl
from .raster import serialize_glyph


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
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite or None, got {self.snr_db}")
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ValueError(f"gain must be finite and positive, got {self.gain}")


def apply_channel(wave: Waveform, ch: ChannelConfig) -> Waveform:
    """Scale by gain and add seeded white Gaussian noise at the set SNR."""
    out = ch.gain * wave.samples
    if ch.snr_db is None:
        return Waveform(out, wave.sample_rate)
    # Pauses are exact zeros before noise; dilate the non-zero mask 8 samples
    # each way so in-carrier zero crossings do not bias the reference RMS.
    # counts[i + 17] - counts[i] is the number of non-zero samples in
    # [i - 8, i + 8], counted exactly at any length.
    padded = np.concatenate([np.zeros(9, bool), out != 0, np.zeros(8, bool)])
    counts = np.cumsum(padded)
    active = counts[17:] - counts[:-17] > 0
    if not np.any(active):
        return Waveform(out, wave.sample_rate)
    signal_rms = float(np.sqrt(np.mean(out[active] ** 2)))
    sigma = signal_rms * 10 ** (-ch.snr_db / 20)
    rng = np.random.default_rng(ch.seed)
    return Waveform(out + rng.normal(0.0, sigma, len(out)), wave.sample_rate)


def recognize_glyphs(
    payloads: np.ndarray, dims: tuple[int, int] = DEFAULT_DIMS
) -> tuple[list[tuple[Glyph, int, int]], list[tuple[int, AmbiguousGlyphError]]]:
    """Nearest canonical glyph of every row of a (n_glyphs, width * height)
    payload by Hamming distance, with the runner-up distance.

    Returns the matches of the recognized rows and, in row order, an
    AmbiguousGlyphError for each row with a tie for nearest, rather than
    a guess.
    """
    table = registry_for(dims)
    width, height = dims
    if payloads.shape[1] != width * height:
        raise LengthMismatchError(
            f"payload has {payloads.shape[1]} bits, grid wants {width * height}"
        )
    glyphs = list(table)
    pixels = np.array([bm.pixels for bm in table.values()], dtype=np.uint8)
    dist = (payloads[:, None, :] != pixels).sum(axis=2)
    order = np.argsort(dist, axis=1, kind="stable")[:, :2]
    best, second = np.take_along_axis(dist, order, axis=1).T.tolist()
    matches, failures = [], []
    for row, (g, d, runner) in enumerate(zip(order[:, 0].tolist(), best, second)):
        if d == runner:
            failures.append((row, AmbiguousGlyphError(f"payload is {d} flips from two glyphs")))
        else:
            matches.append((glyphs[g], d, runner))
    return matches, failures


def recognize_glyph(
    bits: tuple[int, ...], dims: tuple[int, int] = DEFAULT_DIMS
) -> tuple[Glyph, int, int]:
    """Nearest canonical glyph by Hamming distance, with the runner-up.

    A tie for nearest raises AmbiguousGlyphError rather than guessing.
    """
    matches, failures = recognize_glyphs(np.asarray(bits).reshape(1, -1), dims)
    if failures:
        raise failures[0][1]
    return matches[0]


_SPACETIME_PATTERN = tuple(glyph_sequence(SPACETIME))
_MAXWELL_PATTERN = tuple(glyph_sequence(MAXWELL))


def _parse_tensor_group(glyphs: tuple[Glyph, ...], at: int) -> tuple[SymbolSpec, int]:
    n = len(glyphs)
    for k, want in enumerate((Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN)):
        if at + k >= n or glyphs[at + k] is not want:
            raise UngrammaticalGlyphsError(f"expected {want.value} in bracket group", at + k)
    i = at + 3
    r = s = 0
    affinity = at_point = False
    if i < n and glyphs[i] in (Glyph.TILDE_UPPER, Glyph.TILDE_LOWER):
        affinity = True
        up, down = Glyph.TILDE_UPPER, Glyph.TILDE_LOWER
    else:
        up, down = Glyph.ARROW_UP, Glyph.ARROW_DOWN
    while i < n and glyphs[i] is up:
        r, i = r + 1, i + 1
    while i < n and glyphs[i] is down:
        s, i = s + 1, i + 1
    if not affinity and i < n and glyphs[i] is Glyph.POINT_DOT:
        at_point, i = True, i + 1
    try:
        spec = SymbolSpec(SymbolKind.TENSOR, r, s, at_point=at_point, affinity=affinity)
    except ValueError as err:
        reason = str(err)
    else:
        return spec, i
    # Raised outside the handler, so the error has no __context__ whose
    # traceback holds this frame and, through it, the caller's.
    raise UngrammaticalGlyphsError(reason, at)


def _parse_symbols(glyphs: tuple[Glyph, ...], at: int) -> list[SymbolSpec]:
    """Parse symbols from `at` to the end, separator blanks between them.

    The fixed spacetime and electromagnetic patterns take precedence, but
    the parser backtracks to a generic reading when a fixed match leaves
    an unparseable tail (a point-marked group right after the pattern,
    for instance).
    """
    candidates: list[tuple[SymbolSpec, int]] = []
    if glyphs[at : at + len(_SPACETIME_PATTERN)] == _SPACETIME_PATTERN:
        candidates.append((SPACETIME, at + len(_SPACETIME_PATTERN)))
    if glyphs[at : at + len(_MAXWELL_PATTERN)] == _MAXWELL_PATTERN:
        candidates.append((MAXWELL, at + len(_MAXWELL_PATTERN)))
    # Kept errors drop their tracebacks: a traceback holds its frames, and
    # through them the caller's, so keeping it would pin receive's arrays
    # in a reference cycle until the cyclic collector runs.
    deepest: UngrammaticalGlyphsError | None = None
    try:
        candidates.append(_parse_tensor_group(glyphs, at))
    except UngrammaticalGlyphsError as err:
        deepest = err.with_traceback(None)

    for spec, end in candidates:
        try:
            if end == len(glyphs):
                return [spec]
            if glyphs[end] is not Glyph.BLANK:
                raise UngrammaticalGlyphsError("expected blank separator between symbols", end)
            if end + 1 == len(glyphs):
                raise UngrammaticalGlyphsError("dangling separator at end of message", end)
            return [spec] + _parse_symbols(glyphs, end + 1)
        except UngrammaticalGlyphsError as err:
            if deepest is None or err.offset > deepest.offset:
                deepest = err.with_traceback(None)
    if deepest is None:
        deepest = UngrammaticalGlyphsError("empty glyph run", at)
    # The raised error's traceback holds this frame; drop the frame's own
    # reference to the error so the two form no cycle.
    try:
        raise deepest
    finally:
        del deepest


def parse_glyphs_to_message(glyphs: list[Glyph]) -> Message:
    """Invert the glyph linearization back into symbols."""
    if not glyphs:
        raise UngrammaticalGlyphsError("empty glyph run", 0)
    return Message(tuple(_parse_symbols(tuple(glyphs), 0)))


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
    glyphs = message_glyphs(msg)
    bits_of = {g: serialize_glyph(bitmap_of(g, dims)) for g in dict.fromkeys(glyphs)}
    return frame_message([bits_of[g] for g in glyphs], repetition, dims)


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
    voted = np.array(vote.payload)
    corrected = int((payloads != voted).any(axis=0).sum())
    dims = (info.width, info.height)
    per_glyph, failures = recognize_glyphs(voted.reshape(info.n_glyphs, -1), dims)
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
