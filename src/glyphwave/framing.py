"""Self-delimiting bit/pause stream for glyph payloads.

The wire shape is runs of bits separated by typed pauses: a row pause
between the rows of one glyph, a longer glyph pause between glyphs, and a
still longer message pause between whole repeated copies. Prime grid
sides mean the receiver can rebuild the rectangle from run lengths alone,
and repetition plus per-bit majority voting buys error tolerance without
any code overhead in the payload itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence, Union

import numpy as np

from .glyphs import is_prime
from .raster import GlyphBits


class PauseKind(Enum):
    ROW = "row"
    GLYPH = "glyph"
    MESSAGE = "message"


@dataclass(frozen=True)
class Run:
    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("a run carries at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("run bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(self.bits))


@dataclass(frozen=True)
class Pause:
    kind: PauseKind


FrameElement = Union[Run, Pause]


@dataclass(frozen=True)
class BitFrame:
    """Framed message: runs of bits and typed pauses, in wire order."""

    elements: tuple[FrameElement, ...]

    def runs(self) -> list[Run]:
        return [e for e in self.elements if isinstance(e, Run)]


class DimensionMismatchError(ValueError):
    """Glyph bits do not match the declared grid dimensions."""


class InconsistentFrameError(ValueError):
    """Run lengths or block heights disagree within one frame."""


class NonPrimeDimensionsError(ValueError):
    """Observed grid sides are not both prime."""


class LengthMismatchError(ValueError):
    """Payload copies (or payload vs grid) differ in length."""


class RepetitionMismatchError(ValueError):
    """Repeated copies disagree structurally; carries a best-effort payload."""

    def __init__(self, message: str, corrected_payload: tuple[int, ...] | None = None):
        super().__init__(message)
        self.corrected_payload = corrected_payload


class GridInfo(NamedTuple):
    width: int
    height: int
    n_glyphs: int
    repetition: int


def frame_message(
    glyph_bits: Sequence[GlyphBits], repetition: int, dims: tuple[int, int]
) -> BitFrame:
    """Frame serialized glyphs for transmission.

    Each glyph becomes height runs of width bits joined by row pauses;
    glyphs are joined by glyph pauses and the whole payload is repeated
    with message pauses between copies.
    """
    width, height = dims
    if repetition < 1:
        raise ValueError("repetition must be at least 1")
    if not glyph_bits:
        raise ValueError("nothing to frame")
    if not (is_prime(width) and is_prime(height)):
        raise NonPrimeDimensionsError(f"{width}x{height} is not a prime pair")
    for gb in glyph_bits:
        if gb.height != height or gb.width != width:
            raise DimensionMismatchError(
                f"glyph bits are {gb.width}x{gb.height}, frame wants {width}x{height}"
            )

    copy: list[FrameElement] = []
    for gi, gb in enumerate(glyph_bits):
        if gi:
            copy.append(Pause(PauseKind.GLYPH))
        for ri, row in enumerate(gb.rows):
            if ri:
                copy.append(Pause(PauseKind.ROW))
            copy.append(Run(row))

    elements: list[FrameElement] = []
    for ci in range(repetition):
        if ci:
            elements.append(Pause(PauseKind.MESSAGE))
        elements.extend(copy)
    return BitFrame(tuple(elements))


def read_frame(frame: BitFrame | Sequence[FrameElement]) -> tuple[GridInfo, np.ndarray]:
    """Validate the frame structure in one walk and return its payloads.

    Runs must alternate with pauses; row pauses separate the rows of one
    glyph block, glyph pauses the blocks, message pauses the copies. Pause
    structure is authoritative; the prime factorization of the per-glyph
    bit count is re-checked as an independent verification and any
    disagreement is an error rather than a reinterpretation. The payloads
    are a uint8 array of shape (repetition, n_glyphs * width * height),
    one row of flat bits per copy in transmission order.
    """
    elements = frame.elements if isinstance(frame, BitFrame) else tuple(frame)
    if not elements:
        raise InconsistentFrameError("empty frame")
    if not isinstance(elements[0], Run) or not isinstance(elements[-1], Run):
        raise InconsistentFrameError("frame must start and end with a run")
    rows: list[tuple[int, ...]] = []
    heights: set[int] = set()  # runs per glyph block
    counts = [1]  # glyph blocks per copy
    block = 0
    prev_run = False
    for e in elements:
        if isinstance(e, Run):
            if prev_run:
                raise InconsistentFrameError("adjacent runs without a pause")
            rows.append(e.bits)
            block += 1
            prev_run = True
        else:
            if not prev_run:
                raise InconsistentFrameError("adjacent pauses")
            if e.kind is not PauseKind.ROW:
                heights.add(block)
                block = 0
                if e.kind is PauseKind.MESSAGE:
                    counts.append(1)
                else:
                    counts[-1] += 1
            prev_run = False
    heights.add(block)

    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InconsistentFrameError(f"mixed run lengths {sorted(widths)}")
    width = widths.pop()
    if len(heights) != 1:
        raise InconsistentFrameError(f"mixed glyph block heights {sorted(heights)}")
    height = heights.pop()

    if not is_prime(width) or not is_prime(height):
        raise NonPrimeDimensionsError(f"observed grid {width}x{height} is not a prime pair")

    bits = np.array(rows, dtype=np.uint8).reshape(-1)
    n_glyphs = counts[0]
    if any(c != n_glyphs for c in counts):
        # Vote over the copies that share the most common glyph count.
        common = Counter(counts).most_common(1)[0][0]
        copies = np.split(bits, np.cumsum(counts)[:-1] * width * height)
        good = [c for c, n in zip(copies, counts) if n == common]
        raise RepetitionMismatchError(
            f"copies disagree on glyph count: {counts}",
            corrected_payload=majority_vote(good).payload,
        )

    per_glyph = width * height
    if prime_pair_factorization(per_glyph) != tuple(sorted((width, height))):
        raise NonPrimeDimensionsError(
            f"per-glyph bit count {per_glyph} does not factor as {width}x{height}"
        )
    info = GridInfo(width, height, n_glyphs, len(counts))
    return info, bits.reshape(len(counts), -1)


def infer_grid(frame: BitFrame | Sequence[FrameElement]) -> GridInfo:
    """Recover (width, height, n_glyphs, repetition) from frame structure."""
    return read_frame(frame)[0]


def prime_pair_factorization(n: int) -> tuple[int, int]:
    """The unique ordered prime pair (p, q), p <= q, with p*q = n."""
    factors = []
    d, m = 2, n
    while d * d <= m:
        while m % d == 0:
            factors.append(d)
            m //= d
        d += 1
    if m > 1:
        factors.append(m)
    if len(factors) != 2:
        raise NonPrimeDimensionsError(f"{n} is not a product of exactly two primes")
    return (factors[0], factors[1])


class MajorityResult(NamedTuple):
    payload: tuple[int, ...]
    tie_positions: tuple[int, ...]


def majority_vote(copies: Sequence[Sequence[int]]) -> MajorityResult:
    """Per-bit majority over equal-length copies.

    An even split falls back to the first copy's bit and the position is
    flagged, so the result is deterministic and the tie is diagnosable.
    """
    if len(copies) == 0:
        raise ValueError("majority vote needs at least one copy")
    lengths = [len(c) for c in copies]
    if len(set(lengths)) != 1:
        raise LengthMismatchError(f"copy lengths differ: {lengths}")
    stack = np.asarray(copies, dtype=np.int64)
    twice_ones = 2 * stack.sum(axis=0)
    tie = twice_ones == len(stack)
    voted = np.where(tie, stack[0], twice_ones > len(stack))
    return MajorityResult(tuple(voted.tolist()), tuple(np.flatnonzero(tie).tolist()))


_PAUSE_TEXT = {PauseKind.ROW: "/", PauseKind.GLYPH: "//", PauseKind.MESSAGE: "///"}
_TEXT_PAUSE = {v: k for k, v in _PAUSE_TEXT.items()}


def frame_to_text(frame: BitFrame | Sequence[FrameElement]) -> str:
    """Compact dump: runs as 0/1 digits, pauses as /, //, ///."""
    elements = frame.elements if isinstance(frame, BitFrame) else tuple(frame)
    out = []
    for e in elements:
        if isinstance(e, Run):
            out.append("".join(str(b) for b in e.bits))
        else:
            out.append(_PAUSE_TEXT[e.kind])
    return "".join(out)


def frame_from_text(text: str) -> BitFrame:
    """Parse a frame_to_text dump back into a BitFrame."""
    text = text.strip()
    if not text:
        raise ValueError("empty frame dump")
    elements: list[FrameElement] = []
    i = 0
    while i < len(text):
        ch = text[i]
        j = i
        if ch == "/":
            while j < len(text) and text[j] == "/":
                j += 1
            slashes = text[i:j]
            if slashes not in _TEXT_PAUSE:
                raise ValueError(f"bad pause marker {slashes!r} at offset {i}")
            elements.append(Pause(_TEXT_PAUSE[slashes]))
        elif ch in "01":
            while j < len(text) and text[j] in "01":
                j += 1
            elements.append(Run(tuple(int(b) for b in text[i:j])))
        else:
            raise ValueError(f"unexpected character {ch!r} at offset {i}")
        i = j
    return BitFrame(tuple(elements))
