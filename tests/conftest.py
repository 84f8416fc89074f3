import re

import numpy as np
import pytest

from glyphwave.framing import BitFrame, PauseKind, frame_to_text
from glyphwave.modem import ModemConfig


def fast_config(scheme: str = "fsk", **overrides) -> ModemConfig:
    """Short-bit config for round-trip heavy tests; same invariants as defaults."""
    params = dict(
        scheme=scheme,
        bit_duration=96,
        carrier_hz=3000.0,
        freq0_hz=2000.0,
        freq1_hz=3000.0,
        pause_row=96,
        pause_glyph=288,
        pause_message=672,
    )
    params.update(overrides)
    return ModemConfig(**params)


def random_glyph_bits(rng: np.random.Generator, dims=(5, 7)) -> np.ndarray:
    """A (height, width) uint8 array of random pixels, drawn row by row."""
    width, height = dims
    return np.array([rng.integers(0, 2, width) for _ in range(height)], dtype=np.uint8)


_PAUSES = {"/" * (i + 1): kind for i, kind in enumerate(PauseKind)}


def frame_elements(frame: BitFrame) -> list:
    """The frame in wire order, parsed from its text dump: each run as a
    tuple of bits, each pause as its PauseKind. References that walk a
    frame element by element take their runs and pauses from here."""
    return [
        _PAUSES[token] if token[0] == "/" else tuple(map(int, token))
        for token in re.findall(r"[01]+|/+", frame_to_text(frame))
    ]


def middle_run_bit_flipped(frame: BitFrame, offset: int) -> BitFrame:
    """The frame with bit `offset` of its middle run inverted."""
    bits = frame.bits.copy()
    bits[frame.run_lengths[: len(frame.run_lengths) // 2].sum() + offset] ^= 1
    return BitFrame(bits, frame.run_lengths, frame.pause_kinds)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
