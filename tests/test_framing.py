import pytest

from conftest import random_glyph_bits
from glyphwave.framing import (
    BitFrame,
    DimensionMismatchError,
    GridInfo,
    InconsistentFrameError,
    LengthMismatchError,
    NonPrimeDimensionsError,
    Pause,
    PauseKind,
    RepetitionMismatchError,
    Run,
    frame_from_text,
    frame_message,
    frame_to_text,
    infer_grid,
    majority_vote,
    prime_pair_factorization,
    read_frame,
)
from glyphwave.glyphs import Glyph, bitmap_of
from glyphwave.notation import canonical_messages
from glyphwave.pipeline import message_frame
from glyphwave.raster import serialize_glyph


def glyph_bits(g: Glyph):
    return serialize_glyph(bitmap_of(g))


def walk_counts(frame: BitFrame):
    """Independent structural walk: run/bit/pause tallies."""
    runs = bits = row_p = glyph_p = msg_p = 0
    for e in frame.elements:
        if isinstance(e, Run):
            runs += 1
            bits += len(e.bits)
        elif e.kind is PauseKind.ROW:
            row_p += 1
        elif e.kind is PauseKind.GLYPH:
            glyph_p += 1
        else:
            msg_p += 1
    return runs, bits, row_p, glyph_p, msg_p


class TestFrameMessage:
    def test_single_blank_glyph(self):
        frame = frame_message([glyph_bits(Glyph.BLANK)], 1, (5, 7))
        runs, bits, row_p, glyph_p, msg_p = walk_counts(frame)
        assert (runs, bits, row_p, glyph_p, msg_p) == (7, 35, 6, 0, 0)
        assert all(r.bits == (0, 0, 0, 0, 0) for r in frame.runs())

    def test_riemann_counts(self):
        frame = message_frame(canonical_messages()["riemann"], repetition=1)
        runs, bits, row_p, glyph_p, msg_p = walk_counts(frame)
        assert (runs, bits, row_p, glyph_p, msg_p) == (49, 245, 42, 6, 0)

    def test_repetition_three(self):
        one = message_frame(canonical_messages()["em"], repetition=1)
        three = message_frame(canonical_messages()["em"], repetition=3)
        _, bits1, *_ = walk_counts(one)
        _, bits3, _, _, msg_p = walk_counts(three)
        assert bits3 == 3 * bits1
        assert msg_p == 2
        _, copies = read_frame(three)
        assert copies.shape == (3, 16 * 35)
        assert (copies == copies[0]).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            frame_message([glyph_bits(Glyph.BLANK)], 1, (3, 7))

    def test_non_prime_dims(self):
        from glyphwave.raster import GlyphBits

        square = GlyphBits(((0, 0, 0, 0),) * 4)
        with pytest.raises(NonPrimeDimensionsError):
            frame_message([square], 1, (4, 4))

    def test_bad_repetition(self):
        with pytest.raises(ValueError):
            frame_message([glyph_bits(Glyph.BLANK)], 0, (5, 7))


class TestInferGrid:
    def test_single_glyph(self):
        frame = frame_message([glyph_bits(Glyph.ARROW_UP)], 1, (5, 7))
        assert infer_grid(frame) == GridInfo(5, 7, 1, 1)

    def test_em_triplet_threefold(self):
        frame = message_frame(canonical_messages()["em"], repetition=3)
        assert infer_grid(frame) == GridInfo(5, 7, 16, 3)

    def test_round_trip_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            rep = int(rng.integers(1, 4))
            bits = [random_glyph_bits(rng) for _ in range(n)]
            frame = frame_message(bits, rep, (5, 7))
            assert infer_grid(frame.elements) == GridInfo(5, 7, n, rep)

    def test_bit_conservation(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            rep = int(rng.integers(1, 4))
            frame = frame_message([random_glyph_bits(rng) for _ in range(n)], rep, (5, 7))
            info, copies = read_frame(frame)
            total = copies.size
            assert total == info.repetition * info.n_glyphs * info.width * info.height

    def test_composite_run_length_rejected(self):
        elements = (Run((0, 1, 0, 1)), Pause(PauseKind.ROW), Run((1, 0, 1, 0)))
        with pytest.raises(NonPrimeDimensionsError):
            infer_grid(elements)

    def test_mixed_run_lengths_rejected(self):
        elements = (Run((0, 1, 0)), Pause(PauseKind.ROW), Run((1, 0)))
        with pytest.raises(InconsistentFrameError):
            infer_grid(elements)

    def test_adjacent_runs_rejected(self):
        with pytest.raises(InconsistentFrameError):
            infer_grid((Run((0, 1)), Run((1, 0))))

    def test_pause_at_edge_rejected(self):
        with pytest.raises(InconsistentFrameError):
            infer_grid((Pause(PauseKind.ROW), Run((0, 1, 0))))

    def test_structural_repetition_mismatch(self):
        good = frame_message([glyph_bits(Glyph.LPAREN)] * 2, 1, (5, 7)).elements
        bad = frame_message([glyph_bits(Glyph.LPAREN)], 1, (5, 7)).elements
        sep = (Pause(PauseKind.MESSAGE),)
        flat = tuple(read_frame(good)[1][0].tolist())
        for elements in (good + sep + good + sep + bad, bad + sep + good + sep + good):
            with pytest.raises(RepetitionMismatchError) as exc:
                infer_grid(elements)
            assert exc.value.corrected_payload == flat


class TestMajorityVote:
    def test_single_copy_identity(self):
        payload = (0, 1, 1, 0, 1)
        result = majority_vote([payload])
        assert result.payload == payload
        assert result.tie_positions == ()

    def test_single_flip_recovered_everywhere(self):
        clean = tuple(int(b) for b in "10110011101010001110101010111000101")
        assert len(clean) == 35
        for pos in range(35):
            corrupt = list(clean)
            corrupt[pos] ^= 1
            result = majority_vote([clean, tuple(corrupt), clean])
            assert result.payload == clean
            assert result.tie_positions == ()

    def test_two_copy_tie_takes_first_and_flags(self):
        a = (0, 1, 0)
        b = (0, 0, 0)
        result = majority_vote([a, b])
        assert result.payload == a
        assert result.tie_positions == (1,)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            majority_vote([(0, 1), (0, 1, 1)])

    def test_no_copies(self):
        with pytest.raises(ValueError):
            majority_vote([])


class TestFactorization:
    def test_thirty_five(self):
        assert prime_pair_factorization(35) == (5, 7)

    def test_square_of_prime(self):
        assert prime_pair_factorization(9) == (3, 3)

    def test_rejects_non_semiprime(self):
        for n in (1, 5, 36, 30):
            with pytest.raises(NonPrimeDimensionsError):
                prime_pair_factorization(n)


class TestTextDump:
    def test_format(self):
        frame = frame_message([glyph_bits(Glyph.BLANK)], 2, (5, 7))
        text = frame_to_text(frame)
        assert text.startswith("00000/00000/")
        assert "///" in text
        assert set(text) <= {"0", "1", "/"}

    def test_round_trip(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            rep = int(rng.integers(1, 4))
            frame = frame_message([random_glyph_bits(rng) for _ in range(n)], rep, (5, 7))
            assert frame_from_text(frame_to_text(frame)) == frame

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            frame_from_text("00100/0a000")
        with pytest.raises(ValueError):
            frame_from_text("00100////00100")
        with pytest.raises(ValueError):
            frame_from_text("")
