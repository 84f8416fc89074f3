import numpy as np
import pytest

from glyphwave.framing import frame_message, read_frame
from glyphwave.glyphs import Glyph, GlyphBitmap, bitmap_of, glyph_pixels
from glyphwave.notation import tensor
from glyphwave.pipeline import message_glyphs
from glyphwave.notation import Message
from glyphwave.raster import (
    Image,
    MixedDimensionsError,
    compose_strip,
    export_pbm,
)


def pixel_row(g: Glyph) -> np.ndarray:
    """Glyph g's row of the registry's pixel matrix."""
    glyphs, pixels = glyph_pixels((5, 7))
    return pixels[glyphs.index(g)]


def framed_payload(bm: GlyphBitmap) -> np.ndarray:
    """The bits a frame of one bitmap carries, read back from the frame."""
    frame = frame_message(np.reshape(bm.pixels, (1, bm.height, bm.width)), 1, (5, 7))
    return read_frame(frame)[1][0]


class TestSerialize:
    """Glyph bits are row-major, top row first, 1 = black: the registry's
    pixel matrix holds them and frames carry them."""

    def test_blank_all_zero(self):
        bits = pixel_row(Glyph.BLANK)
        assert bits.reshape(7, 5).tolist() == [[0, 0, 0, 0, 0]] * 7
        assert len(bits) == 35

    def test_all_black(self):
        assert framed_payload(GlyphBitmap(5, 7, (True,) * 35)).tolist() == [1] * 35

    def test_lparen_rows(self):
        rows = pixel_row(Glyph.LPAREN).reshape(7, 5)
        assert rows[0].tolist() == [0, 0, 1, 0, 0]
        assert rows[1].tolist() == [0, 1, 0, 0, 0]

    def test_every_canonical_glyph_is_35_bits(self):
        for g in Glyph:
            assert pixel_row(g).tolist() == list(bitmap_of(g).pixels)
            assert len(pixel_row(g)) == 35

    def test_bijectivity_random_grids(self, rng):
        for _ in range(200):
            pixels = tuple(bool(b) for b in rng.integers(0, 2, 35))
            bm = GlyphBitmap(5, 7, pixels)
            assert GlyphBitmap(5, 7, tuple(framed_payload(bm))) == bm

    def test_deserialize_length_check(self):
        with pytest.raises(ValueError):
            GlyphBitmap(5, 7, (0,) * 34)


class TestCompose:
    def test_single_glyph_identity(self):
        bm = bitmap_of(Glyph.ARROW_UP)
        img = compose_strip([bm], gap=3)
        assert (img.width, img.height) == (5, 7)
        assert img.pixels == bm.pixels

    def test_two_blanks_all_white(self):
        img = compose_strip([bitmap_of(Glyph.BLANK)] * 2, gap=1)
        assert (img.width, img.height) == (11, 7)
        assert img.pixels == (False,) * 77

    def test_riemann_strip_width(self):
        glyphs = message_glyphs(Message((tensor(1, 3),)))
        assert len(glyphs) == 7
        img = compose_strip([bitmap_of(g) for g in glyphs], gap=1)
        assert (img.width, img.height) == (41, 7)

    def test_crop_recovers_each_glyph(self):
        glyphs = [Glyph.LPAREN, Glyph.ARROW_UP, Glyph.POINT_DOT]
        gap = 2
        img = compose_strip([bitmap_of(g) for g in glyphs], gap=gap)
        for i, g in enumerate(glyphs):
            x0 = i * (5 + gap)
            cropped = tuple(
                img.pixels[y * img.width + x0 + x] for y in range(7) for x in range(5)
            )
            assert cropped == bitmap_of(g).pixels

    def test_mixed_dimensions_rejected(self):
        small = GlyphBitmap(3, 3, (False,) * 9)
        with pytest.raises(MixedDimensionsError):
            compose_strip([bitmap_of(Glyph.BLANK), small])

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            compose_strip([bitmap_of(Glyph.BLANK)], gap=-1)


class TestPbm:
    def test_one_pixel_white(self):
        assert export_pbm(Image(1, 1, (False,))) == b"P1\n1 1\n0\n"

    def test_one_pixel_black(self):
        assert export_pbm(Image(1, 1, (True,))) == b"P1\n1 1\n1\n"

    def test_blank_glyph(self):
        data = export_pbm(bitmap_of(Glyph.BLANK))
        assert data == b"P1\n5 7\n" + b"0 0 0 0 0\n" * 7

    def test_byte_stable(self):
        img = compose_strip([bitmap_of(Glyph.LPAREN), bitmap_of(Glyph.RPAREN)])
        assert export_pbm(img) == export_pbm(img)
