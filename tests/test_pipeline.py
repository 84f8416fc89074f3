import math

import numpy as np
import pytest

import gc
import weakref

from conftest import fast_config, middle_run_bit_flipped
from glyphwave.framing import LengthMismatchError, frame_message, read_frame
from glyphwave.glyphs import Glyph, bitmap_of, registry_for
from glyphwave.modem import (
    AmbiguousPauseError,
    DesyncError,
    ModemConfig,
    NoSignalError,
    Waveform,
    demodulate,
    modulate,
)
from glyphwave.notation import DslSyntaxError, canonical_messages, parse_dsl, print_dsl
from glyphwave.pipeline import (
    AmbiguousGlyphError,
    ChannelConfig,
    UngrammaticalGlyphsError,
    UnrecoverableMessageError,
    apply_channel,
    message_frame,
    message_glyphs,
    parse_glyphs_to_message,
    receive,
    recognize_glyph,
    recognize_glyphs,
    transmit,
)
from glyphwave.raster import GlyphBits, serialize_glyph


def convolve_apply_channel(wave, ch):
    """Reference: the channel with its active mask from a float convolution."""
    out = ch.gain * wave.samples
    nonzero = (out != 0).astype(np.float64)
    active = np.convolve(nonzero, np.ones(17), mode="same") > 0
    if not np.any(active):
        return out
    signal_rms = float(np.sqrt(np.mean(out[active] ** 2)))
    sigma = signal_rms * 10 ** (-ch.snr_db / 20)
    rng = np.random.default_rng(ch.seed)
    return out + rng.normal(0.0, sigma, len(out))


def one_glyph_recognizer(bits, dims=(5, 7)):
    """Reference: nearest glyph of one payload, a tie raising."""
    table = registry_for(dims)
    pixels = np.array([bm.pixels for bm in table.values()], dtype=np.uint8)
    dist = (pixels != np.asarray(bits)).sum(axis=1)
    best, second = np.argsort(dist, kind="stable")[:2]
    if dist[best] == dist[second]:
        raise AmbiguousGlyphError(f"payload is {dist[best]} flips from two glyphs")
    return list(table)[best], int(dist[best]), int(dist[second])


def glyph_rows(payload) -> GlyphBits:
    return GlyphBits(tuple(tuple(payload[r * 5 : (r + 1) * 5]) for r in range(7)))


def halfway(a: Glyph, b: Glyph) -> tuple[int, ...]:
    """A payload as many flips from glyph a as from glyph b."""
    pa = serialize_glyph(bitmap_of(a)).flatten()
    pb = serialize_glyph(bitmap_of(b)).flatten()
    diff = [i for i in range(35) if pa[i] != pb[i]]
    payload = list(pa)
    for i in diff[: len(diff) // 2]:
        payload[i] = pb[i]
    return tuple(payload)


class TestChannel:
    def test_noiseless_identity(self):
        wave = transmit("vector", fast_config("psk"), repetition=1)
        out = apply_channel(wave, ChannelConfig())
        assert np.array_equal(out.samples, wave.samples)

    def test_gain_scaling(self):
        wave = transmit("vector", fast_config("psk"), repetition=1)
        out = apply_channel(wave, ChannelConfig(gain=0.25))
        assert np.array_equal(out.samples, 0.25 * wave.samples)

    def test_seed_determinism(self):
        wave = transmit("form", fast_config("fsk"), repetition=1)
        a = apply_channel(wave, ChannelConfig(snr_db=15, seed=7))
        b = apply_channel(wave, ChannelConfig(snr_db=15, seed=7))
        c = apply_channel(wave, ChannelConfig(snr_db=15, seed=8))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_empirical_snr_within_one_db(self):
        cfg = ModemConfig(scheme="psk")
        wave = transmit("em", cfg, repetition=1)
        ch = ChannelConfig(snr_db=40, seed=99)
        out = apply_channel(wave, ch)
        noise = out.samples - wave.samples
        active = np.abs(wave.samples) > 0
        measured = 20 * np.log10(
            np.sqrt(np.mean(wave.samples[active] ** 2))
            / np.sqrt(np.mean(noise[active] ** 2))
        )
        assert abs(measured - 40) < 1.0

    def test_short_waveforms_keep_their_length(self, rng):
        for n in range(1, 21):
            wave = Waveform(rng.uniform(-1, 1, n), 48000)
            out = apply_channel(wave, ChannelConfig(snr_db=10, seed=n))
            assert len(out.samples) == n
            assert not np.array_equal(out.samples, wave.samples)

    def test_active_mask_matches_convolution(self, rng):
        for _ in range(200):
            n = int(rng.integers(17, 400))
            x = np.where(rng.random(n) < rng.uniform(0.005, 0.2), rng.normal(0, 1, n), 0.0)
            ch = ChannelConfig(snr_db=float(rng.uniform(0, 30)), seed=int(rng.integers(2**31)))
            got = apply_channel(Waveform(x, 48000), ch).samples
            assert np.array_equal(got, convolve_apply_channel(Waveform(x, 48000), ch))

    def test_seeded_output_unchanged(self):
        for scheme in ("ask", "fsk", "psk"):
            wave = transmit("em", fast_config(scheme), repetition=3)
            ch = ChannelConfig(snr_db=12, gain=0.8, seed=31)
            got = apply_channel(wave, ch).samples
            want = convolve_apply_channel(wave, ch)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_gain_must_be_positive(self):
        with pytest.raises(ValueError):
            ChannelConfig(gain=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snr_db", math.nan),
            ("snr_db", math.inf),
            ("snr_db", -math.inf),
            ("gain", math.nan),
            ("gain", math.inf),
            ("gain", -math.inf),
        ],
    )
    def test_non_finite_values_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ChannelConfig(**{field: value})

    def test_finite_extremes_are_accepted(self):
        ch = ChannelConfig(snr_db=-40.0, gain=1e-6)
        assert (ch.snr_db, ch.gain) == (-40.0, 1e-6)


class TestRecognize:
    def test_exact_match_every_glyph(self):
        for g in Glyph:
            bits = serialize_glyph(bitmap_of(g)).flatten()
            found, dist, runner = recognize_glyph(bits)
            assert found is g
            assert dist == 0
            assert runner >= 3

    def test_blank_payload(self):
        found, dist, runner = recognize_glyph((0,) * 35)
        assert found is Glyph.BLANK and dist == 0 and runner >= 3

    def test_single_flip_tolerated(self):
        bits = list(serialize_glyph(bitmap_of(Glyph.LPAREN)).flatten())
        bits[17] ^= 1
        found, dist, runner = recognize_glyph(tuple(bits))
        assert found is Glyph.LPAREN
        assert dist == 1
        assert runner >= 2

    def test_equidistant_payload_refused(self):
        a = serialize_glyph(bitmap_of(Glyph.LPAREN)).flatten()
        b = serialize_glyph(bitmap_of(Glyph.RPAREN)).flatten()
        diff = [i for i in range(35) if a[i] != b[i]]
        payload = list(a)
        for i in diff[: len(diff) // 2]:
            payload[i] = b[i]
        with pytest.raises(AmbiguousGlyphError):
            recognize_glyph(tuple(payload))

    def test_batch_matches_one_glyph_recognizer(self, rng):
        glyphs = list(Glyph)
        payloads = [serialize_glyph(bitmap_of(g)).flatten() for g in glyphs]
        payloads += [halfway(a, b) for a in glyphs for b in glyphs if a is not b]
        payloads += [tuple(int(b) for b in rng.integers(0, 2, 35)) for _ in range(300)]
        order = rng.permutation(len(payloads))
        batch = np.array(payloads, dtype=np.uint8)[order]
        matches, failures = recognize_glyphs(batch)
        want_matches, want_failures = [], []
        for row, bits in enumerate(batch.tolist()):
            try:
                want_matches.append(one_glyph_recognizer(bits))
            except AmbiguousGlyphError as err:
                want_failures.append((row, str(err)))
        assert want_failures  # the halfway payloads tie
        assert matches == want_matches
        assert [(row, str(err)) for row, err in failures] == want_failures
        assert all(type(err) is AmbiguousGlyphError for _, err in failures)
        for bits in batch[:40].tolist():
            try:
                want = one_glyph_recognizer(bits)
            except AmbiguousGlyphError as err:
                with pytest.raises(AmbiguousGlyphError) as exc:
                    recognize_glyph(tuple(bits))
                assert str(exc.value) == str(err)
            else:
                assert recognize_glyph(tuple(bits)) == want

    def test_length_check(self):
        with pytest.raises(LengthMismatchError):
            recognize_glyph((0,) * 34)


class TestGlyphParsing:
    def test_bare_vector(self):
        msg = parse_glyphs_to_message(
            [Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN, Glyph.ARROW_UP]
        )
        assert print_dsl(msg) == "vector"

    def test_round_trip_canonical(self):
        for msg in canonical_messages().values():
            assert parse_glyphs_to_message(message_glyphs(msg)) == msg

    def test_round_trip_assorted(self):
        for dsl in (
            "tensor(0,0)",
            "tensor(0,0)@p",
            "affinity(2,1)",
            "spacetime spacetime",
            "em vector@p",
            "tensor(3,2)@p form affinity(0,2)",
        ):
            msg = parse_dsl(dsl)
            assert parse_glyphs_to_message(message_glyphs(msg)) == msg

    def test_lone_arrow_rejected(self):
        with pytest.raises(UngrammaticalGlyphsError) as exc:
            parse_glyphs_to_message([Glyph.ARROW_UP])
        assert exc.value.offset == 0

    def test_trailing_separator_rejected(self):
        with pytest.raises(UngrammaticalGlyphsError):
            parse_glyphs_to_message(
                [Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN, Glyph.BLANK]
            )

    def test_mixed_marks_rejected(self):
        with pytest.raises(UngrammaticalGlyphsError):
            parse_glyphs_to_message(
                [Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN, Glyph.TILDE_UPPER, Glyph.ARROW_DOWN]
            )

    def test_up_after_down_rejected(self):
        with pytest.raises(UngrammaticalGlyphsError):
            parse_glyphs_to_message(
                [Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN, Glyph.ARROW_DOWN, Glyph.ARROW_UP]
            )

    def test_em_shape_collision_prefers_fixed_pattern(self):
        # The three-symbol run (0,2) (0,1) (0,2) shares its glyph image
        # with the electromagnetic triplet; the fixed pattern wins.
        msg = parse_dsl("tensor(0,2) tensor(0,1) tensor(0,2)")
        assert parse_glyphs_to_message(message_glyphs(msg)) == parse_dsl("em")

    def test_overlapping_em_collision_reads_leftmost_em(self):
        # "tensor(0,2) form" followed by em's own glyphs holds two em-shaped
        # windows that overlap; the leftmost one is read as em.
        cfg = fast_config("fsk")
        report = receive(transmit("tensor(0,2) form em tensor(0,2)", cfg, repetition=1), cfg)
        assert report.dsl_text == "em form tensor(0,2) tensor(0,2)"

    def test_backtracking_past_fixed_pattern(self):
        # Same prefix, but the point dot on the tail forces the generic
        # reading; the parser must not commit to the fixed pattern.
        msg = parse_dsl("tensor(0,2) tensor(0,1) tensor(0,2)@p")
        assert parse_glyphs_to_message(message_glyphs(msg)) == msg


def resample(x, ratio):
    """x read every `ratio` samples by linear interpolation: a clock offset
    of ratio - 1 between transmitter and receiver."""
    n = int(len(x) / ratio)
    return np.interp(np.arange(n) * ratio, np.arange(len(x)), x)


def decoded_or_error(wave, cfg):
    try:
        return receive(wave, cfg).dsl_text
    except ValueError as err:
        return type(err)


# What receive makes of "em" at repetition 3 on the fast config with 25 dB
# of seeded noise and one more impairment. These are the receiver's present
# outcomes, pinned so that a change to them is made on purpose: amplitude
# keying has fixed bit thresholds, so a DC offset or a gain away from 1
# breaks it, while frequency and phase keying ride them out.
PINNED_IMPAIRMENTS = {
    "ask": {
        "dc offset 0.05": DesyncError,
        "dc offset 0.2": DesyncError,
        "gain 0.05": NoSignalError,
        "gain 0.2": AmbiguousPauseError,
        "gain 3": UngrammaticalGlyphsError,
        "shorter by 0.1 %": "em",
        "longer by 0.1 %": "em",
    },
    "fsk": {
        "dc offset 0.05": "em",
        "dc offset 0.2": "em",
        "gain 0.05": NoSignalError,
        "gain 0.2": "em",
        "gain 3": "em",
        "shorter by 0.1 %": "em",
        "longer by 0.1 %": "em",
    },
}
PINNED_IMPAIRMENTS["psk"] = PINNED_IMPAIRMENTS["fsk"]


class TestImpairments:
    @pytest.mark.parametrize("scheme", ["ask", "fsk", "psk"])
    def test_dc_offset_gain_and_clock_offset_pinned(self, scheme):
        cfg = fast_config(scheme)
        clean = transmit("em", cfg, repetition=3)
        x = apply_channel(clean, ChannelConfig(snr_db=25, seed=11)).samples
        rate = cfg.sample_rate
        waves = {
            "dc offset 0.05": Waveform(x + 0.05, rate),
            "dc offset 0.2": Waveform(x + 0.2, rate),
            "shorter by 0.1 %": Waveform(resample(x, 1.001), rate),
            "longer by 0.1 %": Waveform(resample(x, 0.999), rate),
        }
        for gain in (0.05, 0.2, 3):
            ch = ChannelConfig(snr_db=25, gain=gain, seed=11)
            waves[f"gain {gain}"] = apply_channel(clean, ch)
        got = {name: decoded_or_error(wave, cfg) for name, wave in waves.items()}
        assert got == PINNED_IMPAIRMENTS[scheme]


class TestTransmitReceive:
    def test_riemann_run_count(self):
        cfg = fast_config("fsk")
        frame = demodulate(transmit("riemann", cfg, repetition=1), cfg)
        assert len(frame.run_lengths) == 49

    def test_receive_leaves_no_reference_cycle(self):
        # A parser that keeps caught errors with their tracebacks holds
        # receive's frame, and so the waveform, until the cyclic collector
        # runs. "vector" raises nothing in the parser; "spacetime vector" does.
        # A bracket group with ten up-arrows fails: the parser raises the
        # error it kept, after SymbolSpec refused the rank.
        cfg = fast_config("fsk")
        too_many = [Glyph.LPAREN, Glyph.BLANK, Glyph.RPAREN] + [Glyph.ARROW_UP] * 10
        frame = frame_message([serialize_glyph(bitmap_of(g)) for g in too_many], 1, (5, 7))
        gc.disable()
        try:
            for dsl in ("vector", "spacetime vector"):
                wave = transmit(dsl, cfg, repetition=1)
                alive = weakref.ref(wave)
                assert receive(wave, cfg).dsl_text == dsl
                del wave
                assert alive() is None, dsl
            wave = modulate(frame, cfg)
            alive = weakref.ref(wave)
            try:
                receive(wave, cfg)
            except UngrammaticalGlyphsError as err:
                # SymbolSpec's ValueError would keep its frames as context
                assert err.__context__ is None
            else:
                pytest.fail("ten up-arrows decoded")
            del wave
            assert alive() is None, "failed decode"
        finally:
            gc.enable()

    def test_empty_dsl(self):
        with pytest.raises(DslSyntaxError):
            transmit("", fast_config("fsk"))

    def test_repetition_copies_identical(self):
        cfg = fast_config("fsk")
        frame = demodulate(transmit("em", cfg, repetition=3), cfg)
        _, copies = read_frame(frame)
        assert len(copies) == 3
        assert (copies == copies[0]).all()

    def test_spacetime_psk_clean(self):
        cfg = fast_config("psk")
        report = receive(transmit("spacetime", cfg, repetition=1), cfg)
        assert report.dsl_text == "spacetime"
        assert report.clean()
        assert report.dims == (5, 7)
        assert all(d == 0 for _, d, _ in report.per_glyph)

    def test_multi_symbol_every_scheme(self):
        dsl = "vector@p form tensor(2,3)"
        for scheme in ("ask", "fsk", "psk"):
            cfg = fast_config(scheme)
            report = receive(transmit(dsl, cfg, repetition=1), cfg)
            assert report.dsl_text == dsl
            assert report.clean()

    def test_noisy_fsk_with_repetition(self):
        cfg = fast_config("fsk")
        wave = transmit("em", cfg, repetition=3)
        noisy = apply_channel(wave, ChannelConfig(snr_db=20, seed=424242))
        report = receive(noisy, cfg)
        assert report.dsl_text == "em"
        assert report.repetition == 3

    def test_determinism_end_to_end(self):
        cfg = fast_config("fsk")
        a = apply_channel(transmit("em", cfg), ChannelConfig(snr_db=25, seed=5))
        b = apply_channel(transmit("em", cfg), ChannelConfig(snr_db=25, seed=5))
        assert np.array_equal(a.samples, b.samples)
        assert receive(a, cfg) == receive(b, cfg)

    def test_corrected_bits_reported(self):
        cfg = fast_config("fsk")
        frame = message_frame(parse_dsl("vector"), repetition=3)
        # flip one payload bit inside the middle copy
        wave = modulate(middle_run_bit_flipped(frame, 2), cfg)
        report = receive(wave, cfg)
        assert report.dsl_text == "vector"
        assert report.corrected_bits == 1
        assert report.tie_flags == 0

    def test_unrecoverable_glyph(self):
        several = [
            halfway(Glyph.LPAREN, Glyph.RPAREN),
            serialize_glyph(bitmap_of(Glyph.BLANK)).flatten(),
            halfway(Glyph.ARROW_UP, Glyph.ARROW_DOWN),
            halfway(Glyph.TILDE_UPPER, Glyph.POINT_DOT),  # nearest blank, no tie
        ]
        cases = [("fsk", [halfway(Glyph.LPAREN, Glyph.RPAREN)], 1, [0]), ("psk", several, 3, [0, 2])]
        for scheme, payloads, rep, positions in cases:
            cfg = fast_config(scheme)
            frame = frame_message([glyph_rows(p) for p in payloads], rep, (5, 7))
            with pytest.raises(UnrecoverableMessageError) as exc:
                receive(modulate(frame, cfg), cfg)
            want = []
            for gi, bits in enumerate(payloads):
                try:
                    one_glyph_recognizer(bits)
                except AmbiguousGlyphError as err:
                    want.append((gi, str(err)))
            assert [gi for gi, _ in want] == positions
            assert [(gi, str(err)) for gi, err in exc.value.failures] == want
            assert str(exc.value) == "unrecoverable glyphs at positions " + ", ".join(
                str(gi) for gi in positions
            )
