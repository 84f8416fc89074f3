"""Atomic glyph alphabet and its pixel bitmaps.

Every symbol linearizes to a run of glyphs from a closed 8-mark alphabet;
each glyph owns one canonical width x height bitmap (5x7 by default).
Grid sides are prime so a flattened payload factors back into its
rectangle unambiguously. Alternative prime-pair grids can be installed as
additional registries; there is no automatic rescaling.

A registry (the default table at import, then register_table) is held
as one read-only (len(Glyph), height, width) uint8 array, 1 = black, its
rows in tuple(Glyph) order. The transmitter gathers its glyphs' rows
from that array and the recognizer compares payloads with it, so neither
rebuilds bitmaps per message.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

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


def bitmap_from_art(art: tuple[str, ...]) -> np.ndarray:
    """A (height, width) uint8 bitmap from rows of '#' (black) and '.' (white)."""
    width = len(art[0])
    for line in art:
        if len(line) != width or set(line) - {"#", "."}:
            raise ValueError(f"bad art row {line!r}")
    return np.array([[ch == "#" for ch in line] for line in art], dtype=np.uint8)


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


def _build_default_table() -> dict[Glyph, np.ndarray]:
    table = {g: bitmap_from_art(art) for g, art in _ART_5X7.items()}
    table[Glyph.ARROW_DOWN] = table[Glyph.ARROW_UP][::-1]
    table[Glyph.TILDE_LOWER] = table[Glyph.TILDE_UPPER][::-1]
    return table


def _registry(dims: tuple[int, int], table: Mapping[Glyph, np.typing.ArrayLike]) -> np.ndarray:
    """The read-only (len(Glyph), height, width) uint8 array of a checked table."""
    width, height = dims
    if width < 3 or height < 3:
        raise ValueError("grid sides must be at least 3")
    if not (is_prime(width) and is_prime(height)):
        raise ValueError(f"grid sides must be prime, got {width}x{height}")
    missing = set(Glyph) - set(table)
    if missing:
        raise ValueError(f"table is missing glyphs: {sorted(g.value for g in missing)}")
    pixels = np.empty((len(Glyph), height, width), dtype=np.uint8)
    for i, g in enumerate(Glyph):
        bitmap = np.asarray(table[g])
        if bitmap.shape != (height, width):
            got = "x".join(map(str, bitmap.shape[::-1]))
            raise ValueError(f"bitmap for {g.value} is {got}, not {width}x{height}")
        pixels[i] = bitmap != 0
    pixels.flags.writeable = False
    return pixels


_REGISTRIES = {DEFAULT_DIMS: _registry(DEFAULT_DIMS, _build_default_table())}


def register_table(dims: tuple[int, int], table: Mapping[Glyph, np.typing.ArrayLike]) -> None:
    """Install a glyph table for an alternative prime-pair grid.

    Every glyph needs a (height, width) bitmap; a non-zero pixel is black.
    """
    _REGISTRIES[tuple(dims)] = _registry(dims, table)


def glyph_pixels(dims: tuple[int, int]) -> np.ndarray:
    """The registry at dims: a read-only (len(Glyph), height, width) uint8
    array whose row i is the bitmap of tuple(Glyph)[i], 1 = black."""
    try:
        return _REGISTRIES[tuple(dims)]
    except KeyError:
        raise UnsupportedDimensionsError(f"no glyph registry for {dims[0]}x{dims[1]}") from None


def bitmap_of(glyph: Glyph, dims: tuple[int, int] = DEFAULT_DIMS) -> np.ndarray:
    """Canonical (height, width) bitmap of one glyph at dims, read-only."""
    return glyph_pixels(dims)[tuple(Glyph).index(glyph)]


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
