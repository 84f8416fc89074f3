"""Self-delimiting bit/pause stream for glyph payloads.

The wire shape is runs of bits separated by typed pauses: a row pause
between the rows of one glyph, a longer glyph pause between glyphs, and a
still longer message pause between whole repeated copies. Prime grid
sides mean the receiver can rebuild the rectangle from run lengths alone,
and repetition plus per-bit majority voting buys error tolerance without
any code overhead in the payload itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True)
class Pause:
    kind: PauseKind


_KINDS = tuple(PauseKind)
_ROW, _GLYPH, _MESSAGE = range(len(_KINDS))


@dataclass(frozen=True, eq=False)
class BitFrame:
    """Framed message in wire order, held as three read-only arrays.

    bits holds every run bit (uint8), run_lengths the length of each run
    (intp), and pause_kinds the kind of the pause after each run but the
    last, as an index into tuple(PauseKind) (int8). Runs and pauses
    alternate by construction; a frame with no runs is empty.
    """

    bits: np.ndarray
    run_lengths: np.ndarray
    pause_kinds: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        lengths = np.asarray(self.run_lengths)
        kinds = np.asarray(self.pause_kinds)
        if bits.ndim != 1 or lengths.ndim != 1 or kinds.ndim != 1:
            raise InconsistentFrameError("frame arrays must be one-dimensional")
        if len(kinds) != max(len(lengths) - 1, 0):
            raise InconsistentFrameError("runs and pauses must alternate")
        if (lengths < 1).any():
            raise ValueError("a run carries at least one bit")
        if lengths.sum() != len(bits):
            raise InconsistentFrameError("run lengths must add up to the bit count")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("run bits must be 0 or 1")
        if ((kinds < 0) | (kinds >= len(_KINDS))).any():
            raise ValueError(f"pause kinds must index {len(_KINDS)} kinds")
        for name, a, dtype in (
            ("bits", bits, np.uint8),
            ("run_lengths", lengths, np.intp),
            ("pause_kinds", kinds, np.int8),
        ):
            a = a.astype(dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        if not isinstance(other, BitFrame):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    @property
    def elements(self) -> tuple[Run | Pause, ...]:
        """The frame as Run and Pause objects in wire order (a derived view)."""
        out: list[Run | Pause] = []
        for i, run in enumerate(np.split(self.bits, np.cumsum(self.run_lengths))[:-1]):
            if i:
                out.append(Pause(_KINDS[self.pause_kinds[i - 1]]))
            out.append(Run(tuple(run.tolist())))
        return tuple(out)


class DimensionMismatchError(ValueError):
    """Glyph bits do not match the declared grid dimensions."""


class InconsistentFrameError(ValueError):
    """Run lengths or block heights disagree within one frame."""


class NonPrimeDimensionsError(ValueError):
    """Observed grid sides are not both prime."""


class LengthMismatchError(ValueError):
    """Payload copies (or payload vs grid) differ in length."""


class RepetitionMismatchError(ValueError):
    """Repeated copies disagree structurally."""


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

    per_copy = len(glyph_bits) * height
    rows = np.array([gb.rows for gb in glyph_bits], dtype=np.uint8)
    # Row pauses inside a glyph, a glyph pause after its last row, and the
    # last glyph pause of a copy turned into the message pause.
    kinds = np.full(per_copy, _ROW, dtype=np.int8)
    kinds[height - 1 :: height] = _GLYPH
    kinds[-1] = _MESSAGE
    return BitFrame(
        np.tile(rows.reshape(-1), repetition),
        np.full(per_copy * repetition, width),
        np.tile(kinds, repetition)[:-1],
    )


def read_frame(frame: BitFrame) -> tuple[GridInfo, np.ndarray]:
    """Validate the frame structure and return its payloads.

    Row pauses separate the rows of one glyph block, glyph pauses the
    blocks, message pauses the copies. Pause structure is authoritative:
    any disagreement is an error rather than a reinterpretation. The
    payloads are a uint8 array of shape (repetition, n_glyphs * width *
    height), one row of flat bits per copy in transmission order.
    """
    lengths, kinds = frame.run_lengths, frame.pause_kinds
    if not len(lengths):
        raise InconsistentFrameError("empty frame")
    # Pause i follows run i; a non-row pause closes a glyph block and a
    # message pause also closes a copy.
    breaks = np.flatnonzero(kinds != _ROW)
    heights = np.diff(breaks, prepend=-1, append=len(lengths) - 1)
    copy_ends = np.flatnonzero(kinds[breaks] == _MESSAGE)
    counts = np.diff(copy_ends, prepend=-1, append=len(breaks)).tolist()

    widths = np.unique(lengths).tolist()
    if len(widths) != 1:
        raise InconsistentFrameError(f"mixed run lengths {widths}")
    width = widths[0]
    heights = np.unique(heights).tolist()
    if len(heights) != 1:
        raise InconsistentFrameError(f"mixed glyph block heights {heights}")
    height = heights[0]

    if not is_prime(width) or not is_prime(height):
        raise NonPrimeDimensionsError(f"observed grid {width}x{height} is not a prime pair")

    n_glyphs = counts[0]
    if any(c != n_glyphs for c in counts):
        raise RepetitionMismatchError(f"copies disagree on glyph count: {counts}")
    return GridInfo(width, height, n_glyphs, len(counts)), frame.bits.reshape(len(counts), -1)


def infer_grid(frame: BitFrame) -> GridInfo:
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


def frame_to_text(frame: BitFrame) -> str:
    """Compact dump: runs as 0/1 digits, pauses as /, //, ///."""
    runs = np.split(frame.bits + ord("0"), np.cumsum(frame.run_lengths)[:-1])
    # A pause of kind k (in tuple(PauseKind) order) is k + 1 slashes.
    pauses = ["/" * (k + 1) for k in frame.pause_kinds.tolist()] + [""]
    return "".join(r.tobytes().decode() + p for r, p in zip(runs, pauses))


def frame_from_text(text: str) -> BitFrame:
    """Parse a frame_to_text dump back into a BitFrame."""
    text = text.strip()
    if not text:
        raise ValueError("empty frame dump")
    bad = re.search(r"[^01/]|/{4,}", text)
    if bad:
        what = "bad pause marker" if bad.group()[0] == "/" else "unexpected character"
        raise ValueError(f"{what} {bad.group()!r} at offset {bad.start()}")
    if text[0] == "/" or text[-1] == "/":
        raise InconsistentFrameError("frame must start and end with a run")
    runs = re.split("/+", text)
    bits = np.frombuffer("".join(runs).encode(), dtype=np.uint8) - ord("0")
    # One to three slashes mark the kinds in tuple(PauseKind) order.
    kinds = [len(p) - 1 for p in re.findall("/+", text)]
    return BitFrame(bits, [len(r) for r in runs], kinds)
