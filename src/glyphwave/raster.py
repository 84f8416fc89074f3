"""Glyph strip images and PBM export.

Strip images juxtapose glyph bitmaps horizontally with a configurable
all-white gap, row-major and 1 = black in the export; the gap is a display
nicety only and never enters the transmitted bit stream, which takes its
pixels from the glyph registry's pixel matrix (glyphs.glyph_pixels).
"""

from __future__ import annotations

from dataclasses import dataclass

from .glyphs import GlyphBitmap


class MixedDimensionsError(ValueError):
    """Glyphs of differing grid sizes cannot share one strip."""


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
