import numpy as np
import pytest

from conftest import (
    fast_config,
    frame_elements,
    frame_from_text,
    prime_pair_factorization,
    random_glyph_bits,
)
from glyphwave.framing import (
    BitFrame,
    DimensionMismatchError,
    GridInfo,
    InconsistentFrameError,
    LengthMismatchError,
    NonPrimeDimensionsError,
    PauseKind,
    RepetitionMismatchError,
    frame_message,
    frame_to_text,
    majority_vote,
    read_frame,
)
from glyphwave.glyphs import Glyph, bitmap_of, is_prime
from glyphwave.modem import demodulate, modulate
from glyphwave.notation import canonical_messages
from glyphwave.pipeline import message_frame, transmit


def walk_counts(frame: BitFrame):
    """Independent structural walk: run/bit/pause tallies."""
    runs = bits = row_p = glyph_p = msg_p = 0
    for e in frame_elements(frame):
        if isinstance(e, tuple):
            runs += 1
            bits += len(e)
        elif e is PauseKind.ROW:
            row_p += 1
        elif e is PauseKind.GLYPH:
            glyph_p += 1
        else:
            msg_p += 1
    return runs, bits, row_p, glyph_p, msg_p


class TestFrameMessage:
    def test_single_blank_glyph(self):
        frame = frame_message([bitmap_of(Glyph.BLANK)], 1, (5, 7))
        runs, bits, row_p, glyph_p, msg_p = walk_counts(frame)
        assert (runs, bits, row_p, glyph_p, msg_p) == (7, 35, 6, 0, 0)
        assert (frame.run_lengths == 5).all() and not frame.bits.any()

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
            frame_message([bitmap_of(Glyph.BLANK)], 1, (3, 7))

    def test_dimension_mismatch_names_the_first_glyph_off_the_grid(self):
        cases = [
            ((2, 7, 3), "glyph bits are 3x7, frame wants 5x7"),
            ((2, 5, 7), "glyph bits are 7x5, frame wants 5x7"),
        ]
        rank = "glyph bits must be a (n_glyphs, height, width) array, got shape "
        # One glyph, not stacked; a flat payload; one stack too many.
        cases += [(shape, rank + str(shape)) for shape in ((7, 5), (35,), (1, 1, 7, 5))]
        for shape, want in cases:
            with pytest.raises(DimensionMismatchError) as exc:
                frame_message(np.zeros(shape, dtype=np.uint8), 1, (5, 7))
            assert str(exc.value) == want

    def test_nested_list_frames_like_its_array(self, rng):
        pixels = np.array([random_glyph_bits(rng) for _ in range(4)])
        assert pixels.dtype == np.uint8
        for rep in (1, 2, 3):
            want = frame_message(pixels, rep, (5, 7))
            assert frame_message(pixels.tolist(), rep, (5, 7)) == want
            assert frame_message(list(pixels), rep, (5, 7)) == want

    def test_pixels_must_be_bits(self):
        with pytest.raises(ValueError, match="run bits must be 0 or 1"):
            frame_message(np.full((1, 7, 5), 2, np.uint8), 1, (5, 7))

    def test_nothing_to_frame(self):
        for empty in ([], np.zeros((0, 7, 5), dtype=np.uint8)):
            with pytest.raises(ValueError, match="^nothing to frame$"):
                frame_message(empty, 1, (5, 7))

    def test_non_prime_dims(self):
        with pytest.raises(NonPrimeDimensionsError):
            frame_message(np.zeros((1, 4, 4), dtype=np.uint8), 1, (4, 4))

    def test_bad_repetition(self):
        with pytest.raises(ValueError):
            frame_message([bitmap_of(Glyph.BLANK)], 0, (5, 7))

    def test_non_integer_repetition(self):
        blank = [bitmap_of(Glyph.BLANK)]
        for repetition, shown in ((2.5, "2.5"), ("3", "'3'")):
            want = f"^repetition must be an integer, got {shown}$"
            with pytest.raises(ValueError, match=want):
                frame_message(blank, repetition, (5, 7))
            with pytest.raises(ValueError, match=want):
                transmit("em", fast_config("fsk"), repetition)
        assert frame_message(blank, np.int64(2), (5, 7)) == frame_message(blank, 2, (5, 7))


class TestInferGrid:
    def test_single_glyph(self):
        frame = frame_message([bitmap_of(Glyph.ARROW_UP)], 1, (5, 7))
        assert read_frame(frame)[0] == GridInfo(5, 7, 1, 1)

    def test_em_triplet_threefold(self):
        frame = message_frame(canonical_messages()["em"], repetition=3)
        assert read_frame(frame)[0] == GridInfo(5, 7, 16, 3)

    def test_round_trip_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            rep = int(rng.integers(1, 4))
            bits = [random_glyph_bits(rng) for _ in range(n)]
            frame = frame_message(bits, rep, (5, 7))
            assert read_frame(frame)[0] == GridInfo(5, 7, n, rep)

    def test_bit_conservation(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            rep = int(rng.integers(1, 4))
            frame = frame_message([random_glyph_bits(rng) for _ in range(n)], rep, (5, 7))
            info, copies = read_frame(frame)
            total = copies.size
            assert total == info.repetition * info.n_glyphs * info.width * info.height

    def test_composite_run_length_rejected(self):
        with pytest.raises(NonPrimeDimensionsError):
            read_frame(frame_from_text("0101/1010"))

    def test_mixed_run_lengths_rejected(self):
        with pytest.raises(InconsistentFrameError, match=r"mixed run lengths \[2, 3\]"):
            read_frame(frame_from_text("010/10"))

    def test_adjacent_runs_rejected(self):
        # Two runs with no pause between them: the pause array is short.
        with pytest.raises(InconsistentFrameError):
            BitFrame([0, 1, 1, 0], [2, 2], [])

    def test_pause_at_edge_rejected(self):
        for text in ("/010", "010/", "010/010//"):
            with pytest.raises(InconsistentFrameError, match="start and end with a run"):
                frame_from_text(text)

    def test_structural_repetition_mismatch(self):
        good = frame_to_text(frame_message([bitmap_of(Glyph.LPAREN)] * 2, 1, (5, 7)))
        bad = frame_to_text(frame_message([bitmap_of(Glyph.LPAREN)], 1, (5, 7)))
        for copies, counts in (((good, good, bad), "[2, 2, 1]"), ((bad, good, good), "[1, 2, 2]")):
            with pytest.raises(RepetitionMismatchError) as exc:
                read_frame(frame_from_text("///".join(copies)))
            assert str(exc.value) == f"copies disagree on glyph count: {counts}"


class TestMajorityVote:
    def test_single_copy_identity(self):
        payload = (0, 1, 1, 0, 1)
        result = majority_vote([payload])
        assert result.payload.tolist() == list(payload)
        assert result.tie_positions.tolist() == []

    def test_result_is_arrays(self):
        for copies in ([(0, 1, 1), (0, 0, 1)], np.array([[0, 1, 1]] * 3, dtype=np.uint8)):
            result = majority_vote(copies)
            assert result.payload.dtype == np.uint8 and result.payload.shape == (3,)
            assert result.tie_positions.dtype == np.intp

    def test_single_flip_recovered_everywhere(self):
        clean = tuple(int(b) for b in "10110011101010001110101010111000101")
        assert len(clean) == 35
        for pos in range(35):
            corrupt = list(clean)
            corrupt[pos] ^= 1
            result = majority_vote([clean, tuple(corrupt), clean])
            assert result.payload.tolist() == list(clean)
            assert result.tie_positions.tolist() == []

    def test_two_copy_tie_takes_first_and_flags(self):
        a = (0, 1, 0)
        b = (0, 0, 0)
        result = majority_vote([a, b])
        assert result.payload.tolist() == list(a)
        assert result.tie_positions.tolist() == [1]

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
        frame = frame_message([bitmap_of(Glyph.BLANK)], 2, (5, 7))
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


def walk_read_frame(frame: BitFrame):
    """Reference: the element-by-element read_frame the arrays replaced."""
    elements = frame_elements(frame)
    if not elements:
        raise InconsistentFrameError("empty frame")
    if not isinstance(elements[0], tuple) or not isinstance(elements[-1], tuple):
        raise InconsistentFrameError("frame must start and end with a run")
    rows = []
    heights = set()
    counts = [1]
    block = 0
    prev_run = False
    for e in elements:
        if isinstance(e, tuple):
            if prev_run:
                raise InconsistentFrameError("adjacent runs without a pause")
            rows.append(e)
            block += 1
            prev_run = True
        else:
            if not prev_run:
                raise InconsistentFrameError("adjacent pauses")
            if e is not PauseKind.ROW:
                heights.add(block)
                block = 0
                if e is PauseKind.MESSAGE:
                    counts.append(1)
                else:
                    counts[-1] += 1
            prev_run = False
    heights.add(block)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InconsistentFrameError(f"mixed run lengths {sorted(widths)}")
    width = widths.pop()
    if len(heights) != 1:
        raise InconsistentFrameError(f"mixed glyph block heights {sorted(heights)}")
    height = heights.pop()
    if not is_prime(width) or not is_prime(height):
        raise NonPrimeDimensionsError(f"observed grid {width}x{height} is not a prime pair")
    bits = np.array(rows, dtype=np.uint8).reshape(-1)
    n_glyphs = counts[0]
    if any(c != n_glyphs for c in counts):
        raise RepetitionMismatchError(f"copies disagree on glyph count: {counts}")
    per_glyph = width * height
    if prime_pair_factorization(per_glyph) != tuple(sorted((width, height))):
        raise NonPrimeDimensionsError(
            f"per-glyph bit count {per_glyph} does not factor as {width}x{height}"
        )
    return GridInfo(width, height, n_glyphs, len(counts)), bits.reshape(len(counts), -1)


def read_outcome(read, frame):
    try:
        info, payloads = read(frame)
    except ValueError as err:
        return type(err), str(err)
    return info, payloads.dtype, payloads.tolist()


def frame_dump(copies) -> str:
    """Dump of copies -> glyph blocks -> row strings."""
    return "///".join("//".join("/".join(block) for block in copy) for copy in copies)


def bit_string(rng, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, n))


def random_copies(rng, counts, width, height):
    return [[[bit_string(rng, width) for _ in range(height)] for _ in range(c)] for c in counts]


PRIME_SIDES = [(5, 7), (3, 5), (2, 3), (7, 5), (3, 3), (2, 2)]
NON_PRIME_SIDES = [(4, 7), (5, 6), (1, 5), (5, 1), (9, 4), (6, 6)]


def case_frame(rng, case):
    """A random frame dump of one case, and the outcome class read_frame gives."""
    n, rep = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    sides = NON_PRIME_SIDES if case == "non-prime sides" else PRIME_SIDES
    width, height = sides[int(rng.integers(len(sides)))]
    counts = [n] * rep
    if case.startswith("count mismatch"):
        counts = [n] * max(rep, 2)
        other = [c for c in range(1, 6) if c != n]
        counts[0 if case.endswith("first") else -1] = other[int(rng.integers(len(other)))]
    elif case == "mixed heights":
        counts = [max(n, 2)] * rep
    copies = random_copies(rng, counts, width, height)
    ci = int(rng.integers(len(copies)))
    block = copies[ci][int(rng.integers(len(copies[ci])))]
    if case == "mixed widths":
        k = int(rng.integers(height))
        block[k] = block[k][:-1] if width > 2 and rng.integers(2) else block[k] + "1"
    elif case == "mixed heights":
        if rng.integers(2):
            block.pop()
        else:
            block.append(block[0])
    want = {
        "valid": GridInfo,
        "mixed widths": InconsistentFrameError,
        "mixed heights": InconsistentFrameError,
        "non-prime sides": NonPrimeDimensionsError,
    }.get(case, RepetitionMismatchError)
    return frame_dump(copies), want


def random_structure(rng, max_runs=14, max_bits=8):
    """Any run lengths and pause kinds: structure read_frame mostly rejects."""
    n = int(rng.integers(1, max_runs + 1))
    lengths = rng.integers(1, max_bits + 1, n)
    return BitFrame(rng.integers(0, 2, lengths.sum()), lengths, rng.integers(0, 3, n - 1))


class TestAgainstElementWalk:
    @pytest.mark.parametrize(
        "case",
        [
            "valid",
            "mixed widths",
            "mixed heights",
            "non-prime sides",
            "count mismatch first",
            "count mismatch last",
        ],
    )
    def test_read_frame_matches_walk(self, rng, case):
        for _ in range(40):
            text, want = case_frame(rng, case)
            frame = frame_from_text(text)
            got = read_outcome(read_frame, frame)
            assert got == read_outcome(walk_read_frame, frame), text
            assert got[0] is want or type(got[0]) is want, (text, got[:2])
            assert frame_from_text(frame_to_text(frame)) == frame
            assert frame_to_text(frame) == text

    def test_random_structure_matches_walk(self, rng):
        for _ in range(200):
            frame = random_structure(rng)
            assert read_outcome(read_frame, frame) == read_outcome(walk_read_frame, frame)
            assert frame_from_text(frame_to_text(frame)) == frame

    @pytest.mark.parametrize("scheme", ["ask", "fsk", "psk"])
    def test_modem_round_trip(self, rng, scheme):
        cfg = fast_config(scheme)
        frames = [random_structure(rng) for _ in range(8)]
        frames += [frame_from_text(case_frame(rng, "valid")[0]) for _ in range(4)]
        for frame in frames:
            assert demodulate(modulate(frame, cfg), cfg) == frame


class TestBitFrame:
    def test_rejects_inconsistent_arrays(self):
        bad = [
            ([0, 1, 1, 0], [2, 2], []),  # two runs, no pause between
            ([0, 1], [2], [0]),  # a pause after the last run
            ([0, 1, 1], [2], []),  # lengths short of the bits
            ([0, 1], [3], []),  # lengths past the bits
            ([0, 1], [2, 0], [0]),  # an empty run
            ([0, 2], [2], []),  # a bit that is not 0 or 1
            ([0, 1], [1, 1], [3]),  # no fourth pause kind
            ([0, 1], [1, 1], [-1]),
            ([[0, 1]], [2], []),  # not flat
        ]
        for args in bad:
            with pytest.raises(ValueError):
                BitFrame(*args)

    def test_arrays_are_read_only(self):
        frame = frame_from_text("01/1//0")
        assert frame.bits.dtype == np.uint8 and frame.pause_kinds.dtype == np.int8
        assert frame.run_lengths.dtype == np.intp
        for a in (frame.bits, frame.run_lengths, frame.pause_kinds):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_equality_compares_every_array(self):
        assert frame_from_text("01/1//0") == frame_from_text("01/1//0")
        for other in ("0/11//0", "01//1//0", "01/1//1"):
            assert frame_from_text("01/1//0") != frame_from_text(other)

    def test_empty_frame(self):
        empty = BitFrame([], [], [])
        assert frame_to_text(empty) == ""
        assert empty == BitFrame(np.zeros(0, np.uint8), [], [])
        with pytest.raises(InconsistentFrameError, match="empty frame"):
            read_frame(empty)
