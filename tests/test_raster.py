import numpy as np
import pytest

from glyphwave.framing import LengthMismatchError, frame_message, read_frame
from glyphwave.glyphs import Glyph, bitmap_of, glyph_pixels
from glyphwave.notation import Message, tensor
from glyphwave.pipeline import message_glyphs, recognize_glyphs
from glyphwave.raster import MixedDimensionsError, compose_strip, export_pbm


def pixel_row(g: Glyph) -> np.ndarray:
    """Glyph g's registry row, flattened row-major."""
    return glyph_pixels((5, 7))[tuple(Glyph).index(g)].reshape(-1)


def framed_payload(bm: np.ndarray) -> np.ndarray:
    """The bits a frame of one (7, 5) bitmap carries, read back from the frame."""
    frame = frame_message(bm[None], 1, (5, 7))
    return read_frame(frame)[1][0]


class TestSerialize:
    """Glyph bits are row-major, top row first, 1 = black: the registry's
    pixel array holds them and frames carry them."""

    def test_blank_all_zero(self):
        bits = pixel_row(Glyph.BLANK)
        assert bits.reshape(7, 5).tolist() == [[0, 0, 0, 0, 0]] * 7
        assert len(bits) == 35

    def test_all_black(self):
        assert framed_payload(np.ones((7, 5), dtype=np.uint8)).tolist() == [1] * 35

    def test_lparen_rows(self):
        rows = pixel_row(Glyph.LPAREN).reshape(7, 5)
        assert rows[0].tolist() == [0, 0, 1, 0, 0]
        assert rows[1].tolist() == [0, 1, 0, 0, 0]

    def test_every_canonical_glyph_is_35_bits(self):
        for g in Glyph:
            assert pixel_row(g).tolist() == bitmap_of(g).reshape(-1).tolist()
            assert framed_payload(bitmap_of(g)).tolist() == pixel_row(g).tolist()
            assert len(pixel_row(g)) == 35

    def test_bijectivity_random_grids(self, rng):
        for _ in range(200):
            bm = rng.integers(0, 2, (7, 5)).astype(np.uint8)
            assert np.array_equal(framed_payload(bm).reshape(7, 5), bm)

    def test_deserialize_length_check(self):
        with pytest.raises(LengthMismatchError, match="^payload has 34 bits, grid wants 35$"):
            recognize_glyphs(np.zeros((1, 34), dtype=np.uint8))


class TestCompose:
    def test_single_glyph_identity(self):
        bm = bitmap_of(Glyph.ARROW_UP)
        img = compose_strip([bm], gap=3)
        assert img.shape == (7, 5) and img.dtype == np.uint8
        assert np.array_equal(img, bm)

    def test_two_blanks_all_white(self):
        img = compose_strip([bitmap_of(Glyph.BLANK)] * 2, gap=1)
        assert img.shape == (7, 11)
        assert not img.any()

    def test_riemann_strip_width(self):
        glyphs = message_glyphs(Message((tensor(1, 3),)))
        assert len(glyphs) == 7
        img = compose_strip([bitmap_of(g) for g in glyphs], gap=1)
        assert img.shape == (7, 41)

    def test_crop_recovers_each_glyph(self):
        glyphs = [Glyph.LPAREN, Glyph.ARROW_UP, Glyph.POINT_DOT]
        gap = 2
        img = compose_strip([bitmap_of(g) for g in glyphs], gap=gap)
        assert img.shape == (7, 3 * 5 + 2 * gap)
        for i, g in enumerate(glyphs):
            x0 = i * (5 + gap)
            cropped = [[img[y, x0 + x] for x in range(5)] for y in range(7)]
            assert cropped == bitmap_of(g).tolist()
            assert not img[:, x0 + 5 : x0 + 5 + gap].any()

    def test_mixed_dimensions_rejected(self):
        small = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(MixedDimensionsError, match="^got 3x3 next to 5x7$"):
            compose_strip([bitmap_of(Glyph.BLANK), small])
        with pytest.raises(MixedDimensionsError, match="^got 7x5 next to 5x7$"):
            compose_strip([bitmap_of(Glyph.BLANK), bitmap_of(Glyph.BLANK).T])

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            compose_strip([bitmap_of(Glyph.BLANK)], gap=-1)


class TestPbm:
    def test_one_pixel_white(self):
        assert export_pbm(np.zeros((1, 1), dtype=np.uint8)) == b"P1\n1 1\n0\n"

    def test_one_pixel_black(self):
        assert export_pbm(np.ones((1, 1), dtype=np.uint8)) == b"P1\n1 1\n1\n"

    def test_blank_glyph(self):
        data = export_pbm(bitmap_of(Glyph.BLANK))
        assert data == b"P1\n5 7\n" + b"0 0 0 0 0\n" * 7

    def test_byte_stable(self):
        img = compose_strip([bitmap_of(Glyph.LPAREN), bitmap_of(Glyph.RPAREN)])
        assert export_pbm(img) == export_pbm(img)

    def test_rows_top_first_width_before_height(self):
        img = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.uint8)
        assert export_pbm(img) == b"P1\n3 2\n1 0 0\n0 0 1\n"

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (7, 0), (1, 7, 5), (35,)])
    def test_empty_or_not_two_dimensional_refused(self, shape):
        want = rf"^image must be a 2-D array of at least 1x1 pixels, got shape \({shape[0]},"
        with pytest.raises(ValueError, match=want):
            export_pbm(np.zeros(shape, dtype=np.uint8))
