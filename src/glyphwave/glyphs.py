"""Atomic glyph alphabet and its pixel bitmaps.

Every symbol linearizes to a run of glyphs from a closed 8-mark alphabet;
each glyph owns one canonical width x height bitmap (5x7 by default).
Grid sides are prime so a flattened payload factors back into its
rectangle unambiguously. Alternative prime-pair grids can be installed as
additional registries; there is no automatic rescaling.

Installing a registry (the default table at import, then register_table)
also builds its pixel matrix: one read-only uint8 row of width x height
pixels per glyph, in table order. The transmitter gathers its glyphs'
rows from that matrix and the recognizer compares payloads with it, so
neither rebuilds bitmaps per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .notation import SymbolKind, SymbolSpec

DEFAULT_DIMS = (5, 7)


class Glyph(Enum):
    LPAREN = "lparen"
    RPAREN = "rparen"
    ARROW_UP = "arrow_up"
    ARROW_DOWN = "arrow_down"
    POINT_DOT = "point_dot"
    TILDE_UPPER = "tilde_upper"
    TILDE_LOWER = "tilde_lower"
    BLANK = "blank"


class UnsupportedDimensionsError(LookupError, ValueError):
    """No glyph registry installed for the requested grid dimensions.

    Also a ValueError: a received frame on a prime grid with no registry
    is bad input, and the receiver's every refusal is a ValueError.
    """


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GlyphBitmap:
    """Row-major boolean pixel grid, True = black. Sides are prime, >= 3."""

    width: int
    height: int
    pixels: tuple[bool, ...]

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise ValueError("grid sides must be at least 3")
        if not (is_prime(self.width) and is_prime(self.height)):
            raise ValueError(f"grid sides must be prime, got {self.width}x{self.height}")
        if len(self.pixels) != self.width * self.height:
            raise ValueError("pixel count does not match width x height")
        object.__setattr__(self, "pixels", tuple(bool(p) for p in self.pixels))

    def row(self, y: int) -> tuple[bool, ...]:
        return self.pixels[y * self.width : (y + 1) * self.width]

    def flipped_vertical(self) -> "GlyphBitmap":
        rows = [self.row(y) for y in reversed(range(self.height))]
        return GlyphBitmap(self.width, self.height, tuple(p for r in rows for p in r))


def bitmap_from_art(art: tuple[str, ...]) -> GlyphBitmap:
    """Build a bitmap from rows of '#' (black) and '.' (white)."""
    height = len(art)
    width = len(art[0])
    pixels = []
    for line in art:
        if len(line) != width or set(line) - {"#", "."}:
            raise ValueError(f"bad art row {line!r}")
        pixels.extend(ch == "#" for ch in line)
    return GlyphBitmap(width, height, tuple(pixels))


# Canonical 5x7 pixel art. Arrow-down and tilde-lower are vertical mirrors
# of their partners, built below rather than drawn twice.
_ART_5X7 = {
    Glyph.LPAREN: (
        "..#..",
        ".#...",
        "#....",
        "#....",
        "#....",
        ".#...",
        "..#..",
    ),
    Glyph.RPAREN: (
        "..#..",
        "...#.",
        "....#",
        "....#",
        "....#",
        "...#.",
        "..#..",
    ),
    Glyph.ARROW_UP: (
        "..#..",
        ".###.",
        "#.#.#",
        "..#..",
        "..#..",
        "..#..",
        "..#..",
    ),
    Glyph.POINT_DOT: (
        ".....",
        ".###.",
        "#...#",
        "#.#.#",
        "#...#",
        ".###.",
        ".....",
    ),
    Glyph.TILDE_UPPER: (
        ".#..#",
        "#.#.#",
        "#..#.",
        ".....",
        ".....",
        ".....",
        ".....",
    ),
    Glyph.BLANK: (
        ".....",
        ".....",
        ".....",
        ".....",
        ".....",
        ".....",
        ".....",
    ),
}


def _build_default_table() -> dict[Glyph, GlyphBitmap]:
    table = {g: bitmap_from_art(art) for g, art in _ART_5X7.items()}
    table[Glyph.ARROW_DOWN] = table[Glyph.ARROW_UP].flipped_vertical()
    table[Glyph.TILDE_LOWER] = table[Glyph.TILDE_UPPER].flipped_vertical()
    return table


class _Registry(NamedTuple):
    table: Mapping[Glyph, GlyphBitmap]
    pixels: np.ndarray  # (len(table), width * height) uint8, table order


def _registry(table: dict[Glyph, GlyphBitmap]) -> _Registry:
    pixels = np.array([bm.pixels for bm in table.values()], dtype=np.uint8)
    pixels.flags.writeable = False
    return _Registry(MappingProxyType(dict(table)), pixels)


_REGISTRIES: dict[tuple[int, int], _Registry] = {DEFAULT_DIMS: _registry(_build_default_table())}


def register_table(dims: tuple[int, int], table: dict[Glyph, GlyphBitmap]) -> None:
    """Install a glyph table for an alternative prime-pair grid."""
    width, height = dims
    missing = set(Glyph) - set(table)
    if missing:
        raise ValueError(f"table is missing glyphs: {sorted(g.value for g in missing)}")
    for g, bm in table.items():
        if (bm.width, bm.height) != (width, height):
            raise ValueError(f"bitmap for {g.value} is {bm.width}x{bm.height}, not {width}x{height}")
    _REGISTRIES[(width, height)] = _registry(table)


def unregister_table(dims: tuple[int, int]) -> None:
    if dims == DEFAULT_DIMS:
        raise ValueError("the default registry cannot be removed")
    _REGISTRIES.pop(dims, None)


def _installed(dims: tuple[int, int]) -> _Registry:
    try:
        return _REGISTRIES[tuple(dims)]
    except KeyError:
        raise UnsupportedDimensionsError(f"no glyph registry for {dims[0]}x{dims[1]}") from None


def registry_for(dims: tuple[int, int]) -> Mapping[Glyph, GlyphBitmap]:
    """The installed glyph table at dims, read-only."""
    return _installed(dims).table


def glyph_pixels(dims: tuple[int, int]) -> tuple[tuple[Glyph, ...], np.ndarray]:
    """The glyphs of the registry at dims and its read-only pixel matrix.

    Row i of the (n_glyphs, width * height) uint8 matrix is the row-major
    bitmap of glyph i, 1 = black.
    """
    table, pixels = _installed(dims)
    return tuple(table), pixels


def bitmap_of(glyph: Glyph, dims: tuple[int, int] = DEFAULT_DIMS) -> GlyphBitmap:
    """Canonical bitmap of one glyph at the given grid size (pure lookup)."""
    return registry_for(dims)[glyph]


def hamming(a: GlyphBitmap, b: GlyphBitmap) -> int:
    return sum(pa != pb for pa, pb in zip(a.pixels, b.pixels))


def min_pairwise_hamming(dims: tuple[int, int] = DEFAULT_DIMS) -> int:
    """Smallest Hamming distance over all unordered glyph pairs at dims."""
    table = registry_for(dims)
    glyphs = list(table)
    return min(
        hamming(table[glyphs[i]], table[glyphs[j]])
        for i in range(len(glyphs))
        for j in range(i + 1, len(glyphs))
    )


def glyph_sequence(spec: SymbolSpec) -> list[Glyph]:
    """Deterministic linearization of one symbol into glyphs.

    Tensor objects: bracket group, then up marks, down marks, optional
    point dot (tildes replace arrows for affinities). The spacetime
    manifold is a fixed nested-bracket run; the electromagnetic triplet
    is its three tensor groups joined by blank cells.
    """
    if spec.kind is SymbolKind.SPACETIME:
        return [
            Glyph.LPAREN,
            Glyph.LPAREN,
            Glyph.BLANK,
            Glyph.RPAREN,
            Glyph.LPAREN,
            Glyph.BLANK,
            Glyph.RPAREN,
            Glyph.ARROW_DOWN,
            Glyph.ARROW_DOWN,
            Glyph.RPAREN,
        ]
    if spec.kind is SymbolKind.MAXWELL:
        two_form = glyph_sequence(SymbolSpec(SymbolKind.TENSOR, 0, 2))
        one_form = glyph_sequence(SymbolSpec(SymbolKind.TENSOR, 0, 1))
        return two_form + [Glyph.BLANK] + one_form + [Glyph.BLANK] + two_form
    up = Glyph.TILDE_UPPER if spec.affinity else Glyph.ARROW_UP
    down = Glyph.TILDE_LOWER if spec.affinity else Glyph.ARROW_DOWN
    seq = [Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN]
    seq.extend([up] * spec.contra_rank)
    seq.extend([down] * spec.co_rank)
    if spec.at_point:
        seq.append(Glyph.POINT_DOT)
    return seq
