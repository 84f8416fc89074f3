"""The transmit path against the per-glyph path it replaced, and registry changes.

The package frames a message from rows gathered out of the registry's
pixel array and modulates with one np.take of chunk rows. The reference
reads each glyph's pixels from its art, one glyph at a time, stacks them
into one (n_glyphs, height, width) array to frame, and gathers the chunk
rows by fancy indexing. Frames and samples must be bitwise equal, the sign
of zero included.

Frames and waveforms the package builds itself skip the checks of the
BitFrame and Waveform constructors; they must equal what those checks
would have made of them.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import art_pixels, canonical_art, fast_config
from glyphwave.framing import BitFrame, frame_message, frame_to_text
from glyphwave.glyphs import (
    Glyph,
    UnsupportedDimensionsError,
    _build_default_table,
    bitmap_from_art,
    bitmap_of,
    glyph_pixels,
    register_table,
)
from glyphwave.modem import ModemConfig, Waveform, _bit_tables, demodulate, modulate
from glyphwave.notation import MAXWELL, SPACETIME, Message, affinity, canonical_messages, tensor
from glyphwave.pipeline import message_frame, message_glyphs, recognize_glyphs

GOLDEN = Path(__file__).parent / "golden"

# Eight distinct 3x3 arts in tuple(Glyph) order; blank stays all white.
ARTS_3X3 = dict(
    zip(
        Glyph,
        (
            ("#..", "#..", "#.."),
            ("..#", "..#", "..#"),
            (".#.", "###", ".#."),
            (".#.", ".#.", "###"),
            ("...", ".#.", "..."),
            ("#.#", ".#.", "..."),
            ("...", ".#.", "#.#"),
            ("...", "...", "..."),
        ),
    )
)


def reference_frame(msg, repetition, arts=None):
    """Frame a message from its glyphs' arts (the canonical 5x7 ones by
    default), each read into pixels on its own."""
    arts = arts or canonical_art()
    pixels = np.array([art_pixels(arts[g]) for g in message_glyphs(msg)])
    height, width = pixels.shape[1:]
    return frame_message(pixels, repetition, (width, height))


def reference_modulate(frame, cfg):
    """modulate with its chunk rows gathered by fancy indexing."""
    pause_samples = list(cfg.pause_samples.values())
    g = math.gcd(cfg.bit_duration, *pause_samples)
    k = cfg.bit_duration // g
    chunks = np.concatenate([_bit_tables(cfg).reshape(2 * k, g), np.zeros((1, g))])
    spans = np.zeros(max(2 * len(frame.run_lengths) - 1, 0), dtype=np.intp)
    spans[0::2] = frame.run_lengths * k
    spans[1::2] = np.array(pause_samples)[frame.pause_kinds] // g
    on = np.repeat(np.arange(len(spans)) % 2 == 0, spans)
    rows = np.full(len(on), 2 * k)
    rows[on] = (frame.bits.astype(np.intp)[:, None] * k + np.arange(k)).reshape(-1)
    return Waveform(chunks[rows].reshape(-1), cfg.sample_rate)


def dense_config(scheme):
    """8 kHz at 8 samples per bit, the densest config the receiver takes."""
    return ModemConfig(
        scheme=scheme,
        sample_rate=8000,
        bit_duration=8,
        carrier_hz=1000.0,
        freq0_hz=1000.0,
        freq1_hz=2000.0,
        pause_row=8,
        pause_glyph=24,
        pause_message=56,
    )


CONFIGS = [
    make(scheme)
    for make in (lambda s: ModemConfig(scheme=s), dense_config, fast_config)
    for scheme in ("ask", "fsk", "psk")
]


def random_message(rng, max_symbols):
    symbols = []
    for _ in range(int(rng.integers(1, max_symbols + 1))):
        roll = int(rng.integers(0, 6))
        r, s = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        if roll == 4:
            symbols.append(SPACETIME)
        elif roll == 5:
            symbols.append(MAXWELL)
        elif roll == 3 and r + s >= 1:
            symbols.append(affinity(r, s))
        else:
            symbols.append(tensor(r, s, at_point=bool(rng.integers(0, 2))))
    return Message(tuple(symbols))


def assert_same_samples(got, want):
    assert got.sample_rate == want.sample_rate
    assert got.samples.dtype == want.samples.dtype and got.samples.shape == want.samples.shape
    assert np.array_equal(got.samples, want.samples)
    assert np.array_equal(np.signbit(got.samples), np.signbit(want.samples))


class TestReferencePath:
    def test_frames_and_samples_match_the_per_glyph_path(self):
        rng = np.random.default_rng(1413)
        for i in range(1080):
            # Each message is framed at every repetition, and modulated at
            # one of them under one config: over the run every repetition
            # meets every config 40 times.
            msg = random_message(rng, 3)
            frames = [message_frame(msg, rep) for rep in (1, 2, 3)]
            for rep, frame in enumerate(frames, start=1):
                assert frame == reference_frame(msg, rep), (i, rep)
            cfg = CONFIGS[i % len(CONFIGS)]
            frame = frames[i // len(CONFIGS) % 3]
            assert_same_samples(modulate(frame, cfg), reference_modulate(frame, cfg))

    def test_on_off_keying_keeps_its_negative_zeros(self):
        frame = message_frame(canonical_messages()["riemann"], 2)
        for cfg in (ModemConfig(scheme="ask", amp0=0.0), fast_config("ask", amp0=0.0)):
            got = modulate(frame, cfg)
            assert np.signbit(got.samples[got.samples == 0]).any()
            assert_same_samples(got, reference_modulate(frame, cfg))

    def test_registered_three_by_three_table(self, registries):
        register_table((3, 3), {g: bitmap_from_art(art) for g, art in ARTS_3X3.items()})
        rng = np.random.default_rng(33)
        for i in range(60):
            msg = random_message(rng, 3)
            rep = 1 + i % 3
            frame = message_frame(msg, rep, dims=(3, 3))
            assert frame == reference_frame(msg, rep, ARTS_3X3), i
            cfg = CONFIGS[3 + i % 6]  # the dense and fast configs
            assert_same_samples(modulate(frame, cfg), reference_modulate(frame, cfg))


def assert_as_if_checked(frame):
    """The frame equals its arrays passed through BitFrame's checks: same
    values, dtypes and shapes, and every array read-only."""
    checked = BitFrame(frame.bits, frame.run_lengths, frame.pause_kinds)
    assert frame == checked
    for name in ("bits", "run_lengths", "pause_kinds"):
        got, want = getattr(frame, name), getattr(checked, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert not got.flags.writeable, name


class TestBuiltUnchecked:
    def test_frames_and_waveforms_equal_their_checked_construction(self):
        rng = np.random.default_rng(1616)
        pixels = glyph_pixels((5, 7))
        for i in range(12):
            msg = random_message(rng, 3)
            for rep in (1, 2, 3):
                frame = message_frame(msg, rep)
                assert_as_if_checked(frame)
                assert not np.shares_memory(frame.bits, pixels)
                for cfg in CONFIGS:
                    wave = modulate(frame, cfg)
                    samples = wave.samples
                    assert samples.dtype == np.float64 and samples.ndim == 1
                    assert np.isfinite(samples).all()
                    assert_same_samples(wave, Waveform(samples, cfg.sample_rate))
                    back = demodulate(wave, cfg)
                    assert_as_if_checked(back)
                    assert back == frame, (i, rep, cfg)


class TestRegistryChanges:
    def test_replaced_default_table_reaches_framing_and_recognition(self, registries):
        em = canonical_messages()["em"]
        dot = bitmap_of(Glyph.POINT_DOT)
        dot_pixels = dot.reshape(-1)
        register_table((5, 7), {g: dot for g in Glyph})
        frame = message_frame(em, 1)
        assert (frame.bits.reshape(16, 35) == dot_pixels).all()
        matches, failures = recognize_glyphs(dot_pixels[None], (5, 7))
        assert matches == []
        assert [str(err) for _, err in failures] == ["payload is 0 flips from two glyphs"]
        register_table((5, 7), _build_default_table())
        golden = (GOLDEN / "em.frame.txt").read_text()
        assert frame_to_text(message_frame(em, 1)) + "\n" == golden
        matches, failures = recognize_glyphs(dot_pixels[None], (5, 7))
        assert matches[0][:2] == (Glyph.POINT_DOT, 0) and not failures

    def test_unregistered_table_cannot_frame(self, registries):
        with pytest.raises(UnsupportedDimensionsError, match="^no glyph registry for 3x3$"):
            message_frame(canonical_messages()["em"], 1, dims=(3, 3))
        blank = bitmap_from_art(("...", "...", "..."))
        register_table((3, 3), {g: blank for g in Glyph})
        assert not message_frame(canonical_messages()["em"], 1, dims=(3, 3)).bits.any()

    def test_pixel_matrix_is_read_only(self, registries):
        pixels = glyph_pixels((5, 7))
        assert pixels.shape == (len(Glyph), 7, 5) and pixels.dtype == np.uint8
        for i, (g, art) in enumerate(canonical_art().items()):
            assert np.array_equal(pixels[i], art_pixels(art)), g
        for a in (pixels, bitmap_of(Glyph.BLANK)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1
        # The registry keeps its own copy of the caller's bitmaps.
        table = _build_default_table()
        register_table((5, 7), table)
        table[Glyph.BLANK][:] = 1
        assert not bitmap_of(Glyph.BLANK).any()
