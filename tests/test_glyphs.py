from itertools import combinations

import numpy as np
import pytest

from conftest import art_pixels, canonical_art, min_pairwise_hamming
from glyphwave.glyphs import (
    DEFAULT_DIMS,
    Glyph,
    UnsupportedDimensionsError,
    _build_default_table,
    bitmap_from_art,
    bitmap_of,
    glyph_pixels,
    glyph_sequence,
    is_prime,
    register_table,
)
from glyphwave.notation import MAXWELL, SPACETIME, affinity, tensor


def art_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Hamming distance of two arts, counted character by character."""
    return sum(pa != pb for pa, pb in zip("".join(a), "".join(b)))


def blank_table(dims: tuple[int, int]) -> dict:
    """Every glyph as the all-white (height, width) bitmap of dims."""
    width, height = dims
    return {g: np.zeros((height, width), dtype=np.uint8) for g in Glyph}


class TestBitmaps:
    def test_blank_is_all_white(self):
        bm = bitmap_of(Glyph.BLANK)
        assert bm.shape == (7, 5) and bm.dtype == np.uint8
        assert not bm.any()

    def test_lparen_transcription(self):
        bm = bitmap_of(Glyph.LPAREN)
        assert bm[0].tolist() == [0, 0, 1, 0, 0]
        assert bm[1].tolist() == [0, 1, 0, 0, 0]
        assert bm[2].tolist() == [1, 0, 0, 0, 0]

    def test_mirror_laws(self):
        assert np.array_equal(bitmap_of(Glyph.ARROW_UP)[::-1], bitmap_of(Glyph.ARROW_DOWN))
        assert np.array_equal(bitmap_of(Glyph.TILDE_UPPER)[::-1], bitmap_of(Glyph.TILDE_LOWER))

    def test_pure_lookup(self):
        pixels = glyph_pixels(DEFAULT_DIMS)
        for i, (g, art) in enumerate(canonical_art().items()):
            assert np.array_equal(bitmap_of(g), art_pixels(art)), g
            assert np.array_equal(bitmap_of(g), pixels[i]), g
            assert np.shares_memory(bitmap_of(g), pixels), g

    def test_non_prime_sides_rejected(self):
        for side in ((4, 7), (5, 9)):
            with pytest.raises(ValueError, match=r"^grid sides must be prime, got \d+x\d+$"):
                register_table(side, blank_table(side))
        with pytest.raises(UnsupportedDimensionsError):
            glyph_pixels((4, 7))

    def test_side_below_three_rejected(self):
        for side in ((2, 7), (7, 2), (2, 2)):
            with pytest.raises(ValueError, match="^grid sides must be at least 3$"):
                register_table(side, blank_table(side))

    def test_non_zero_pixel_reads_as_black(self, registries):
        table = blank_table((3, 3))
        table[Glyph.POINT_DOT] = [[0, 0, 0], [0, 2, 0], [0, 0, 0]]
        table[Glyph.LPAREN] = np.full((3, 3), -1.5)
        register_table((3, 3), table)
        assert bitmap_of(Glyph.POINT_DOT, (3, 3)).tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert bitmap_of(Glyph.LPAREN, (3, 3)).tolist() == [[1] * 3] * 3
        assert glyph_pixels((3, 3)).dtype == np.uint8

    def test_results_are_read_only(self):
        pixels = glyph_pixels(DEFAULT_DIMS)
        assert pixels.shape == (len(Glyph), 7, 5) and pixels.dtype == np.uint8
        for a in (pixels, bitmap_of(Glyph.BLANK)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1
        assert not bitmap_of(Glyph.BLANK).any()

    def test_art_is_checked(self):
        assert bitmap_from_art(("#.", ".#")).tolist() == [[1, 0], [0, 1]]
        for art in (("#.", "#"), ("#.", "#x")):
            with pytest.raises(ValueError, match="^bad art row"):
                bitmap_from_art(art)


class TestDistances:
    def test_min_pairwise_at_least_three(self):
        assert min_pairwise_hamming(DEFAULT_DIMS) >= 3

    def test_exhaustive_pairs_match_min(self):
        arts = canonical_art()
        pairs = list(combinations(Glyph, 2))
        assert len(pairs) == 28
        dists = [art_distance(arts[a], arts[b]) for a, b in pairs]
        assert min(dists) == min_pairwise_hamming(DEFAULT_DIMS)
        assert all(d >= 3 for d in dists)

    def test_blank_distance_is_popcount(self):
        blank = bitmap_of(Glyph.BLANK)
        for g, art in canonical_art().items():
            bm = bitmap_of(g)
            assert (blank != bm).sum() == bm.sum() == "".join(art).count("#"), g

    def test_degenerate_registry_reports_zero(self, registries):
        dot = bitmap_of(Glyph.POINT_DOT)
        table = {g: dot for g in Glyph}
        register_table((5, 7), table)
        assert min_pairwise_hamming((5, 7)) == 0
        register_table((5, 7), _build_default_table())
        assert min_pairwise_hamming((5, 7)) >= 3

    def test_unsupported_dims(self):
        with pytest.raises(UnsupportedDimensionsError):
            bitmap_of(Glyph.BLANK, (3, 5))
        with pytest.raises(UnsupportedDimensionsError):
            min_pairwise_hamming((3, 5))


class TestAlternativeRegistry:
    def test_register_and_use(self, registries):
        with pytest.raises(UnsupportedDimensionsError):
            bitmap_of(Glyph.BLANK, (3, 3))
        art3 = {g: bitmap_from_art(("###", "#.#", "###")) for g in Glyph}
        art3[Glyph.BLANK] = bitmap_from_art(("...", "...", "..."))
        register_table((3, 3), art3)
        assert bitmap_of(Glyph.BLANK, (3, 3)).tolist() == [[0] * 3] * 3
        assert bitmap_of(Glyph.LPAREN, (3, 3)).tolist() == [[1, 1, 1], [1, 0, 1], [1, 1, 1]]
        assert min_pairwise_hamming((3, 3)) == 0

    def test_register_validates_dims(self):
        bad = {g: bitmap_of(g) for g in Glyph}
        with pytest.raises(ValueError, match="^bitmap for lparen is 5x7, not 3x3$"):
            register_table((3, 3), bad)
        bad = blank_table((3, 3))
        bad[Glyph.BLANK] = np.zeros(9, dtype=np.uint8)
        with pytest.raises(ValueError, match="^bitmap for blank is 9, not 3x3$"):
            register_table((3, 3), bad)
        with pytest.raises(UnsupportedDimensionsError):
            glyph_pixels((3, 3))

    def test_register_requires_all_glyphs(self):
        with pytest.raises(ValueError, match="^table is missing glyphs"):
            register_table((3, 3), {Glyph.BLANK: bitmap_from_art(("...", "...", "..."))})

    def test_list_dims_reach_the_tuple_keyed_registry(self, registries):
        register_table([3, 3], blank_table((3, 3)))
        assert glyph_pixels([3, 3]) is glyph_pixels((3, 3))


class TestSequences:
    def test_vector_at_point(self):
        assert glyph_sequence(tensor(1, 0, at_point=True)) == [
            Glyph.LPAREN,
            Glyph.BLANK,
            Glyph.RPAREN,
            Glyph.ARROW_UP,
            Glyph.POINT_DOT,
        ]

    def test_form(self):
        assert glyph_sequence(tensor(0, 1)) == [
            Glyph.LPAREN,
            Glyph.BLANK,
            Glyph.RPAREN,
            Glyph.ARROW_DOWN,
        ]

    def test_affinity_uses_tildes(self):
        assert glyph_sequence(affinity(1, 2)) == [
            Glyph.LPAREN,
            Glyph.BLANK,
            Glyph.RPAREN,
            Glyph.TILDE_UPPER,
            Glyph.TILDE_LOWER,
            Glyph.TILDE_LOWER,
        ]

    def test_spacetime_nested_brackets(self):
        seq = glyph_sequence(SPACETIME)
        assert len(seq) == 10
        assert seq[0] == seq[1] == Glyph.LPAREN
        assert seq[-1] == Glyph.RPAREN
        assert seq.count(Glyph.ARROW_DOWN) == 2

    def test_maxwell_triplet_structure(self):
        seq = glyph_sequence(MAXWELL)
        two_form = glyph_sequence(tensor(0, 2))
        one_form = glyph_sequence(tensor(0, 1))
        assert seq == two_form + [Glyph.BLANK] + one_form + [Glyph.BLANK] + two_form
        assert len(seq) == 16

    def test_length_law(self):
        for r in range(4):
            for s in range(4):
                for at_p in (False, True):
                    spec = tensor(r, s, at_point=at_p)
                    assert len(glyph_sequence(spec)) == 3 + r + s + (1 if at_p else 0)

    def test_mark_count_law(self):
        for r in range(4):
            for s in range(4):
                seq = glyph_sequence(tensor(r, s))
                assert seq.count(Glyph.ARROW_UP) == r
                assert seq.count(Glyph.ARROW_DOWN) == s
                if r + s:
                    tilded = glyph_sequence(affinity(r, s))
                    assert tilded.count(Glyph.TILDE_UPPER) == r
                    assert tilded.count(Glyph.TILDE_LOWER) == s


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
