"""Self-delimiting bit/pause stream for glyph payloads.

The wire shape is runs of bits separated by typed pauses: a row pause
between the rows of one glyph, a longer glyph pause between glyphs, and a
still longer message pause between whole repeated copies. Prime grid
sides mean the receiver can rebuild the rectangle from run lengths alone,
and repetition plus per-bit majority voting buys error tolerance without
any code overhead in the payload itself.

A frame is held only as three arrays (see BitFrame), and frame_message
takes glyph pixels only as one (n_glyphs, height, width) array. A BitFrame
built directly checks its arrays. frame_message checks only the caller's
pixels (0 or 1), since the runs, lengths and pause kinds it derives from
them are valid by construction. The text dump is only written
(frame_to_text); nothing in the package reads one back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .glyphs import is_prime


class PauseKind(Enum):
    ROW = "row"
    GLYPH = "glyph"
    MESSAGE = "message"


_KINDS = tuple(PauseKind)
_ROW, _GLYPH, _MESSAGE = range(len(_KINDS))


@dataclass(frozen=True, eq=False)
class BitFrame:
    """Framed message in wire order, held as three read-only arrays.

    bits holds every run bit (uint8), run_lengths the length of each run
    (intp), and pause_kinds the kind of the pause after each run but the
    last, as an index into tuple(PauseKind) (int8). Runs and pauses
    alternate by construction; a frame with no runs is empty.

    Direct construction checks its arrays and stores read-only copies of
    the field dtypes. The package's own builders, frame_message and
    modem.demodulate, use _trusted instead: their arrays are valid and of
    the field dtypes by construction, and nothing else holds them.
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
        self._store(bits.astype(np.uint8), lengths.astype(np.intp), kinds.astype(np.int8))

    @classmethod
    def _trusted(cls, bits, run_lengths, pause_kinds) -> BitFrame:
        """The frame of valid arrays of the field dtypes, unchecked."""
        frame = object.__new__(cls)
        frame._store(bits, run_lengths, pause_kinds)
        return frame

    def _store(self, *arrays: np.ndarray) -> None:
        """Keep the arrays, made read-only, as the fields in declaration order."""
        for name, a in zip(("bits", "run_lengths", "pause_kinds"), arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        if not isinstance(other, BitFrame):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


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


def frame_message(glyph_bits: np.ndarray, repetition: int, dims: tuple[int, int]) -> BitFrame:
    """Frame glyph pixels for transmission.

    glyph_bits is a (n_glyphs, height, width) array of 0/1 pixels, or
    anything np.asarray makes one of. Each glyph becomes height runs of
    width bits joined by row pauses; glyphs are joined by glyph pauses and
    the whole payload is repeated with message pauses between copies.

    Pixels other than 0 or 1 raise ValueError; they are checked once,
    before tiling, and the frame built from them is not checked again.
    """
    width, height = dims
    try:
        repetition = operator.index(repetition)
    except TypeError:
        raise ValueError(f"repetition must be an integer, got {repetition!r}") from None
    if repetition < 1:
        raise ValueError("repetition must be at least 1")
    pixels = np.asarray(glyph_bits)
    if not pixels.size:
        raise ValueError("nothing to frame")
    if not (is_prime(width) and is_prime(height)):
        raise NonPrimeDimensionsError(f"{width}x{height} is not a prime pair")
    if pixels.ndim != 3:
        raise DimensionMismatchError(
            f"glyph bits must be a (n_glyphs, height, width) array, got shape {pixels.shape}"
        )
    if pixels.shape[1:] != (height, width):
        got = f"{pixels.shape[2]}x{pixels.shape[1]}"
        raise DimensionMismatchError(f"glyph bits are {got}, frame wants {width}x{height}")
    if not ((pixels == 0) | (pixels == 1)).all():
        raise ValueError("run bits must be 0 or 1")

    per_copy = len(pixels) * height
    # Row pauses inside a glyph, a glyph pause after its last row, and the
    # last glyph pause of a copy turned into the message pause.
    kinds = np.full(per_copy, _ROW, dtype=np.int8)
    kinds[height - 1 :: height] = _GLYPH
    kinds[-1] = _MESSAGE
    # np.tile copies, so the frame shares no memory with the caller's pixels.
    return BitFrame._trusted(
        np.tile(pixels.reshape(-1).astype(np.uint8, copy=False), repetition),
        np.full(per_copy * repetition, width, dtype=np.intp),
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


class MajorityResult(NamedTuple):
    payload: np.ndarray
    tie_positions: np.ndarray


def majority_vote(copies: Sequence[Sequence[int]] | np.ndarray) -> MajorityResult:
    """Per-bit majority over equal-length copies.

    The voted payload is a uint8 array and the tie positions an intp
    array. An even split falls back to the first copy's bit and the
    position is flagged, so the result is deterministic and the tie is
    diagnosable.
    """
    if len(copies) == 0:
        raise ValueError("majority vote needs at least one copy")
    lengths = [len(c) for c in copies]
    if len(set(lengths)) != 1:
        raise LengthMismatchError(f"copy lengths differ: {lengths}")
    stack = np.asarray(copies, dtype=np.int64)
    twice_ones = 2 * stack.sum(axis=0)
    tie = twice_ones == len(stack)
    voted = np.where(tie, stack[0], twice_ones > len(stack)).astype(np.uint8)
    return MajorityResult(voted, np.flatnonzero(tie))


def frame_to_text(frame: BitFrame) -> str:
    """Compact dump: runs as 0/1 digits, pauses as /, //, ///."""
    runs = np.split(frame.bits + ord("0"), np.cumsum(frame.run_lengths)[:-1])
    # A pause of kind k (in tuple(PauseKind) order) is k + 1 slashes.
    pauses = ["/" * (k + 1) for k in frame.pause_kinds.tolist()] + [""]
    return "".join(r.tobytes().decode() + p for r, p in zip(runs, pauses))
