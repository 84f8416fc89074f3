"""Glyph strip images and PBM export.

A strip is a (height, total width) uint8 array that juxtaposes glyph
bitmaps horizontally with a configurable all-white gap, 1 = black; the
gap is a display nicety only and never enters the transmitted bit stream,
which takes its pixels from the glyph registry (glyphs.glyph_pixels).
"""

from __future__ import annotations

import numpy as np


class MixedDimensionsError(ValueError):
    """Glyphs of differing grid sizes cannot share one strip."""


def _size(shape: tuple[int, ...]) -> str:
    """A (height, width) shape as 'WxH'."""
    return "x".join(map(str, shape[::-1]))


def compose_strip(bitmaps: list[np.ndarray], gap: int = 1) -> np.ndarray:
    """Lay (height, width) glyph bitmaps left to right with all-white gap
    columns between, as one (height, total width) uint8 array."""
    if not bitmaps:
        raise ValueError("nothing to compose")
    if gap < 0:
        raise ValueError("gap must be non-negative")
    shape = np.shape(bitmaps[0])
    for bm in bitmaps:
        if np.shape(bm) != shape:
            raise MixedDimensionsError(f"got {_size(np.shape(bm))} next to {_size(shape)}")
    height, width = shape
    strip = np.zeros((height, len(bitmaps) * (width + gap) - gap), dtype=np.uint8)
    for i, bm in enumerate(bitmaps):
        strip[:, i * (width + gap) : i * (width + gap) + width] = bm
    return strip


def export_pbm(img: np.ndarray) -> bytes:
    """Plain-text PBM (P1) of a 2-D array of 0/1 pixels: '1' is black.
    Byte-stable for equal inputs."""
    img = np.asarray(img)
    if img.ndim != 2 or not img.size:
        raise ValueError(f"image must be a 2-D array of at least 1x1 pixels, got shape {img.shape}")
    height, width = img.shape
    rows = "".join(" ".join(map(str, row)) + "\n" for row in (img != 0).astype(np.uint8).tolist())
    return f"P1\n{width} {height}\n{rows}".encode("ascii")
