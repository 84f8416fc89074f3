import re

import numpy as np
import pytest

from glyphwave import glyphs
from glyphwave.framing import (
    BitFrame,
    InconsistentFrameError,
    NonPrimeDimensionsError,
    PauseKind,
    frame_to_text,
)
from glyphwave.glyphs import _ART_5X7, DEFAULT_DIMS, Glyph, glyph_pixels
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


def min_pairwise_hamming(dims: tuple[int, int] = DEFAULT_DIMS) -> int:
    """Smallest Hamming distance over all unordered glyph pairs at dims."""
    flat = glyph_pixels(dims).reshape(len(Glyph), -1)
    dist = (flat[:, None] != flat).sum(axis=2)
    return int(dist[np.triu_indices(len(Glyph), 1)].min())


def art_pixels(art: tuple[str, ...]) -> np.ndarray:
    """The (height, width) uint8 pixels of rows of '#' (black) and '.'
    (white), read character by character."""
    return np.array([[1 if ch == "#" else 0 for ch in line] for line in art], dtype=np.uint8)


def canonical_art() -> dict:
    """The 5x7 art of every glyph, in tuple(Glyph) order: the drawn arts,
    and arrow-down and tilde-lower as their partners' rows reversed."""
    mirrors = {Glyph.ARROW_DOWN: Glyph.ARROW_UP, Glyph.TILDE_LOWER: Glyph.TILDE_UPPER}
    return {g: _ART_5X7[g] if g in _ART_5X7 else _ART_5X7[mirrors[g]][::-1] for g in Glyph}


_PAUSES = {"/" * (i + 1): kind for i, kind in enumerate(PauseKind)}


def frame_elements(frame: BitFrame) -> list:
    """The frame in wire order, parsed from its text dump: each run as a
    tuple of bits, each pause as its PauseKind. References that walk a
    frame element by element take their runs and pauses from here."""
    return [
        _PAUSES[token] if token[0] == "/" else tuple(map(int, token))
        for token in re.findall(r"[01]+|/+", frame_to_text(frame))
    ]


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


def middle_run_bit_flipped(frame: BitFrame, offset: int) -> BitFrame:
    """The frame with bit `offset` of its middle run inverted."""
    bits = frame.bits.copy()
    bits[frame.run_lengths[: len(frame.run_lengths) // 2].sum() + offset] ^= 1
    return BitFrame(bits, frame.run_lengths, frame.pause_kinds)


@pytest.fixture
def registries(monkeypatch):
    """A test's own copy of the glyph registries, so the registries it
    installs or replaces with register_table go when it ends."""
    monkeypatch.setattr(glyphs, "_REGISTRIES", dict(glyphs._REGISTRIES))


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
