import numpy as np
import pytest

from glyphwave.framing import BitFrame
from glyphwave.modem import ModemConfig
from glyphwave.raster import GlyphBits


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


def random_glyph_bits(rng: np.random.Generator, dims=(5, 7)) -> GlyphBits:
    width, height = dims
    rows = tuple(tuple(int(b) for b in rng.integers(0, 2, width)) for _ in range(height))
    return GlyphBits(rows)


def middle_run_bit_flipped(frame: BitFrame, offset: int) -> BitFrame:
    """The frame with bit `offset` of its middle run inverted."""
    bits = frame.bits.copy()
    bits[frame.run_lengths[: len(frame.run_lengths) // 2].sum() + offset] ^= 1
    return BitFrame(bits, frame.run_lengths, frame.pause_kinds)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
