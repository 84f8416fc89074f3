"""Glyph bitmaps to bit rows, strip images, and PBM export.

Serialization is row-major, top row first, left to right within a row,
1 = black. Strip images juxtapose glyph bitmaps horizontally with a
configurable all-white gap; the gap is a display nicety only and never
enters the transmitted bit stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .glyphs import Glyph, GlyphBitmap


class MixedDimensionsError(ValueError):
    """Glyphs of differing grid sizes cannot share one strip."""


@dataclass(frozen=True)
class GlyphBits:
    """Bits of one glyph, split by row."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def height(self) -> int:
        return len(self.rows)

    def flatten(self) -> tuple[int, ...]:
        return tuple(b for row in self.rows for b in row)


@dataclass(frozen=True)
class Image:
    """Arbitrary-size row-major black and white image."""

    width: int
    height: int
    pixels: tuple[bool, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image must be at least 1x1")
        if len(self.pixels) != self.width * self.height:
            raise ValueError("pixel count does not match width x height")

    def row(self, y: int) -> tuple[bool, ...]:
        return self.pixels[y * self.width : (y + 1) * self.width]


def serialize_glyph(bm: GlyphBitmap, glyph_id: Glyph | None = None) -> GlyphBits:
    """Transcribe a bitmap into bit rows, top to bottom.

    glyph_id is accepted for existing callers and ignored: the bits depend
    on the bitmap alone.
    """
    rows = tuple(tuple(int(p) for p in bm.row(y)) for y in range(bm.height))
    return GlyphBits(rows)


def deserialize_glyph(bits: tuple[int, ...], dims: tuple[int, int]) -> GlyphBitmap:
    """Rebuild the bitmap from a flat payload; inverse of serialize_glyph."""
    width, height = dims
    if len(bits) != width * height:
        raise ValueError(f"payload has {len(bits)} bits, expected {width * height}")
    return GlyphBitmap(width, height, tuple(bool(b) for b in bits))


def compose_strip(bitmaps: list[GlyphBitmap], gap: int = 1) -> Image:
    """Lay glyph bitmaps left to right with all-white gap columns between."""
    if not bitmaps:
        raise ValueError("nothing to compose")
    if gap < 0:
        raise ValueError("gap must be non-negative")
    height = bitmaps[0].height
    for bm in bitmaps:
        if (bm.width, bm.height) != (bitmaps[0].width, bitmaps[0].height):
            raise MixedDimensionsError(
                f"got {bm.width}x{bm.height} next to {bitmaps[0].width}x{bitmaps[0].height}"
            )
    width = sum(bm.width for bm in bitmaps) + gap * (len(bitmaps) - 1)
    pixels = []
    for y in range(height):
        for i, bm in enumerate(bitmaps):
            if i:
                pixels.extend([False] * gap)
            pixels.extend(bm.row(y))
    return Image(width, height, tuple(pixels))


def export_pbm(img: Image | GlyphBitmap) -> bytes:
    """Plain-text PBM (P1): '1' is black. Byte-stable for equal inputs."""
    lines = [f"P1\n{img.width} {img.height}\n"]
    for y in range(img.height):
        lines.append(" ".join("1" if p else "0" for p in img.row(y)) + "\n")
    return "".join(lines).encode("ascii")
