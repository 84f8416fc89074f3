import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    fast_config,
    frame_elements,
    frame_from_text,
    pcm_wav_bytes,
    random_glyph_bits,
)
from glyphwave.framing import (
    BitFrame,
    GridInfo,
    PauseKind,
    frame_message,
    read_frame,
)
from glyphwave.modem import (
    FULL_SCALE,
    PAUSE_TOLERANCE,
    SCHEMES,
    AmbiguousPauseError,
    ConfigInvalidError,
    DesyncError,
    ModemConfig,
    NoSignalError,
    Waveform,
    _active_segments,
    _bit_tables,
    _cum_rows,
    _first_hot,
    demodulate,
    load_config,
    modulate,
    read_wav,
    save_config,
    write_wav,
)
from glyphwave.pipeline import ChannelConfig, apply_channel, transmit


class TestConfigValidation:
    def test_defaults_valid_per_scheme(self):
        for scheme in ("ask", "fsk", "psk"):
            ModemConfig(scheme=scheme)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigInvalidError):
            ModemConfig(scheme="qam")

    def test_bit_duration_floor(self):
        with pytest.raises(ConfigInvalidError):
            ModemConfig(bit_duration=4)

    def test_nyquist(self):
        with pytest.raises(ConfigInvalidError):
            ModemConfig(scheme="psk", carrier_hz=24000.0)

    def test_fsk_tone_cycles(self):
        with pytest.raises(ConfigInvalidError):
            ModemConfig(scheme="fsk", freq0_hz=2410.0)  # 24.1 cycles per bit
        with pytest.raises(ConfigInvalidError):
            ModemConfig(scheme="fsk", freq0_hz=3600.0)  # equal tones

    def test_psk_carrier_cycles(self):
        with pytest.raises(ConfigInvalidError):
            ModemConfig(scheme="psk", carrier_hz=3050.0)

    def test_pause_ordering_and_ratio(self):
        with pytest.raises(ConfigInvalidError):
            ModemConfig(pause_row=1440, pause_glyph=480)
        with pytest.raises(ConfigInvalidError):
            ModemConfig(pause_row=480, pause_glyph=700, pause_message=3360)
        with pytest.raises(ConfigInvalidError):  # row pause shorter than one bit
            ModemConfig(pause_row=120, pause_glyph=360, pause_message=840)

    def test_ask_amplitudes(self):
        ModemConfig(scheme="ask", amp0=0.0)  # on-off keying stays constructible
        with pytest.raises(ConfigInvalidError):
            ModemConfig(scheme="ask", amp0=0.5, amp1=0.5)
        with pytest.raises(ConfigInvalidError):
            ModemConfig(scheme="ask", amp0=-0.1)

    @pytest.mark.parametrize(
        "amps",
        [{"amp1": math.inf}, {"amp0": math.nan}, {"amp1": math.nan}, {"amp0": -math.inf}],
        ids=["amp1-inf", "amp0-nan", "amp1-nan", "amp0--inf"],
    )
    def test_ask_amplitudes_must_be_finite(self, amps):
        with pytest.raises(ConfigInvalidError, match="^amplitudes must be finite$"):
            ModemConfig(scheme="ask", **amps)

    @pytest.mark.parametrize(
        "name, fields",
        [
            # ask has no whole-cycle rule, so only the sample counts are wrong
            (
                "bit_duration",
                dict(
                    scheme="ask",
                    bit_duration=96.5,
                    pause_row=193,
                    pause_glyph=579,
                    pause_message=1351,
                ),
            ),
            ("bit_duration", dict(bit_duration=math.inf)),
            ("sample_rate", dict(sample_rate=48000.0)),
            ("pause_glyph", dict(pause_glyph=1440.0)),
            ("pause_message", dict(pause_message="3360")),
        ],
        ids=["bit_duration-96.5", "bit_duration-inf", "sample_rate", "pause_glyph", "str"],
    )
    def test_sample_counts_must_be_integers(self, name, fields):
        with pytest.raises(ConfigInvalidError, match=f"^{name} must be an integer, got "):
            ModemConfig(**fields)

    def test_numpy_integer_sample_counts_pass_as_ints(self):
        counts = dict(
            sample_rate=np.int64(48000),
            bit_duration=np.int32(96),
            pause_row=np.uint16(96),
            pause_glyph=np.int64(288),
            pause_message=np.int16(672),
        )
        cfg = fast_config("psk", **counts)
        assert cfg == fast_config("psk")
        assert all(type(getattr(cfg, name)) is int for name in counts)
        assert np.array_equal(
            transmit("em", cfg, repetition=1).samples,
            transmit("em", fast_config("psk"), repetition=1).samples,
        )


def one_glyph_frame(bits=(0, 1) * 17 + (1,)):
    return frame_message(np.reshape(bits, (1, 7, 5)), 1, (5, 7))


def loop_modulate(frame, cfg):
    """Reference: modulate one frame element at a time."""
    table = _bit_tables(cfg)
    parts = []
    for e in frame_elements(frame):
        if isinstance(e, tuple):
            parts.append(table[np.asarray(e, dtype=np.intp)].reshape(-1))
        else:
            parts.append(np.zeros(cfg.pause_samples[e]))
    return np.concatenate(parts) if parts else np.zeros(0)


def random_run_frame(rng, max_runs=12, max_bits=13):
    """Runs of 1..max_bits random bits joined by random pause kinds."""
    bits, lengths, kinds = [], [], []
    for i in range(int(rng.integers(1, max_runs + 1))):
        if i:
            kinds.append(int(rng.integers(len(PauseKind))))
        n = int(rng.integers(1, max_bits + 1))
        lengths.append(n)
        bits += rng.integers(0, 2, n).tolist()
    return BitFrame(bits, lengths, kinds)


class TestModulate:
    def test_matches_per_element_loop(self, rng):
        frames = [
            BitFrame([], [], []),
            frame_from_text("1"),
            frame_from_text("0/1///1"),
            one_glyph_frame(),
        ] + [random_run_frame(rng) for _ in range(20)]
        configs = [fast_config(s) for s in ("ask", "fsk", "psk")]
        configs += [ModemConfig(scheme="ask", amp0=0.0), ModemConfig(scheme="psk")]
        # pauses that are not whole bits: 24- and 1-sample common divisors
        configs += [fast_config("psk", pause_row=120), fast_config("fsk", pause_row=97)]
        for cfg in configs:
            for frame in frames:
                got = modulate(frame, cfg).samples
                want = loop_modulate(frame, cfg)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
                # on-off keying has negative zeros inside its zero bits
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_on_off_keying_zero_bit_is_silence(self):
        cfg = ModemConfig(scheme="ask", amp0=0.0)
        frame = frame_from_text("010")
        wave = modulate(frame, cfg)
        bd = cfg.bit_duration
        assert not wave.samples[:bd].any()
        assert wave.samples[bd : 2 * bd].any()
        assert not wave.samples[2 * bd :].any()

    def test_ask_one_bit_rms(self):
        cfg = ModemConfig(scheme="ask", amp0=0.0, amp1=0.8)
        wave = modulate(frame_from_text("1"), cfg)
        rms = np.sqrt(np.mean(wave.samples**2))
        assert abs(rms - 0.8 / np.sqrt(2)) < 1e-9 * 0.8

    def test_duration_law_blank_glyph(self):
        cfg = ModemConfig()
        frame = one_glyph_frame()
        wave = modulate(frame, cfg)
        assert len(wave.samples) == 35 * 480 + 6 * 480 == 19680

    def test_duration_law_random_frames(self, rng):
        cfg = fast_config("psk")
        for _ in range(30):
            n = int(rng.integers(1, 4))
            rep = int(rng.integers(1, 3))
            frame = frame_message([random_glyph_bits(rng) for _ in range(n)], rep, (5, 7))
            # independent tally of the closed form
            expected = 0
            for e in frame_elements(frame):
                if isinstance(e, tuple):
                    expected += len(e) * cfg.bit_duration
                elif e is PauseKind.ROW:
                    expected += cfg.pause_row
                elif e is PauseKind.GLYPH:
                    expected += cfg.pause_glyph
                else:
                    expected += cfg.pause_message
            assert len(modulate(frame, cfg).samples) == expected

    def test_fsk_orthogonality(self):
        cfg = ModemConfig(scheme="fsk")
        t = np.arange(cfg.bit_duration) / cfg.sample_rate
        zero_bit = np.sin(2 * np.pi * cfg.freq0_hz * t)
        ref1 = np.sin(2 * np.pi * cfg.freq1_hz * t)
        cross = abs(np.dot(zero_bit, ref1)) / (cfg.bit_duration / 2)
        assert cross <= 1e-9


def zero_run_edges(frame, cfg):
    """Modulate the frame, then silence bit_duration // 16 samples at both
    ends of every run: each measured segment comes out shorter than its
    nominal slot grid, which the receiver fills with zeros."""
    wave = modulate(frame, cfg)
    cut = cfg.bit_duration // 16
    pos = 0
    for e in frame_elements(frame):
        if isinstance(e, tuple):
            end = pos + len(e) * cfg.bit_duration
            wave.samples[pos : pos + cut] = 0.0
            wave.samples[end - cut : end] = 0.0
            pos = end
        else:
            pos += cfg.pause_samples[e]
    return wave


def psk_tone(cfg, n):
    t = np.arange(n) / cfg.sample_rate
    return np.sin(2 * np.pi * cfg.carrier_hz * t)


def loop_active_segments(cum, cfg):
    """Reference: the segmentation with one slice and argmax per edge."""
    n = len(cum) - 1
    w = max(8, cfg.bit_duration // 2)
    bounds = np.append(np.arange(0, n, w), n)
    block_p = np.diff(cum[bounds]) / np.diff(bounds)
    floor_p = (cfg.peak_amplitude / 20) ** 2
    thr_p = floor_p
    lo = float(np.percentile(block_p, 5))
    hi = float(np.percentile(block_p, 90))
    if hi > 0 and lo < hi / 4:
        thr_p = max(floor_p, math.sqrt(max(lo, 0.0) * hi))
    edges = np.diff(np.concatenate(([0], (block_p > thr_p).astype(np.int8), [0])))
    coarse = zip(bounds[edges == 1].tolist(), bounds[edges == -1].tolist())
    sw = max(2, cfg.bit_duration // 24)
    cw = max(sw, cfg.bit_duration // 4)
    short = (cum[sw:] - cum[:-sw]) / sw > thr_p
    confirm = (cum[cw:] - cum[:-cw]) / cw > thr_p
    hot = short[: len(confirm)] & confirm
    hot_end = np.concatenate([np.zeros(cw, bool), short[cw - sw :] & confirm])
    starts, stops = [], []
    for s, e in coarse:
        a = max(s - w, 0)
        first = hot[a : s + w]
        i = int(first.argmax())
        starts.append(a + i if first[i] else s)
        a = max(e - w, 0)
        last = hot_end[a : e + w + 1]
        j = len(last) - 1 - int(last[::-1].argmax())
        stops.append(a + j if last[j] else e)
    starts, stops = np.array(starts, dtype=np.intp), np.array(stops, dtype=np.intp)
    keep = stops - starts >= cfg.bit_duration // 2
    return starts[keep], stops[keep]


def energy_cumsum(x):
    return np.concatenate([[0.0], np.cumsum(x * x)])


def matrix_active_segments(samples, cfg):
    """Reference: the edge search over whole matrices, testing both windows
    at every column of every edge's search window. Returns the starts and
    stops, and each side's short-window and confirm-window masks with
    their columns in search order (the stop side's reversed)."""
    w = max(8, cfg.bit_duration // 2)
    sw = max(2, cfg.bit_duration // 24)
    cw = max(sw, cfg.bit_duration // 4)
    m = len(samples)
    bounds = np.append(np.arange(-w, m + w, w), m + w)
    block_e = np.zeros(len(bounds) - 1)
    whole = m - m % w
    block_e[1 : 1 + whole // w] = np.square(samples[:whole]).reshape(-1, w).sum(axis=1)
    block_e[1 + whole // w] = np.square(samples[whole:]).sum()
    block_p = block_e / np.diff(bounds)
    floor_p = (cfg.peak_amplitude / 20) ** 2
    thr_p = floor_p
    lo, hi = np.percentile(block_p, [5, 90]).tolist()
    if hi > 0 and lo < hi / 4:
        thr_p = max(floor_p, math.sqrt(max(lo, 0.0) * hi))
    edges = np.diff(np.concatenate(([0], (block_p > thr_p).astype(np.int8), [0])))
    s, e = bounds[edges == 1], bounds[edges == -1]
    rows = np.arange(len(s))
    near = _cum_rows(samples, s - w, 2 * w + cw)
    at = near[:, : 2 * w]
    short = (near[:, sw : sw + 2 * w] - at) / sw > thr_p
    confirm = (near[:, cw : cw + 2 * w] - at) / cw > thr_p
    first = short & confirm
    i = first.argmax(axis=1)
    starts = np.where(first[rows, i], s - w + i, s)
    masks = [(short, confirm)]
    near = _cum_rows(samples, e - w - cw, 2 * w + cw + 1)
    at = near[:, cw:]
    short = ((at - near[:, cw - sw : cw - sw + 2 * w + 1]) / sw > thr_p)[:, ::-1]
    confirm = ((at - near[:, : 2 * w + 1]) / cw > thr_p)[:, ::-1]
    last = short & confirm
    j = last.argmax(axis=1)
    stops = np.where(last[rows, j], e + w - j, e)
    masks.append((short, confirm))
    keep = stops - starts >= cfg.bit_duration // 2
    return starts[keep], stops[keep], masks


def reference_demodulate(wave, cfg):
    """Reference: demodulate over whole-waveform temporaries, the padded
    copy of the samples and an index matrix of every bit slot."""
    bd = cfg.bit_duration
    pad = max(8, bd // 2)
    x = np.concatenate([np.zeros(pad), wave.samples, np.zeros(pad)])
    starts, stops = loop_active_segments(energy_cumsum(x), cfg)
    if not len(starts):
        raise NoSignalError("waveform carries no detectable signal")
    lengths = stops - starts
    nbits = np.maximum(1, np.rint(lengths / bd).astype(np.intp))
    desync = np.abs(lengths - nbits * bd) > 0.1 * nbits * bd
    gaps = starts[1:] - stops[:-1]
    durs = np.array(list(cfg.pause_samples.values()))
    dist = np.abs(gaps[:, None] - durs)
    fits = dist <= PAUSE_TOLERANCE * durs
    kinds = np.where(fits, dist, np.inf).argmin(axis=1)
    faults = np.concatenate(
        [2 * np.flatnonzero(desync), 2 * np.flatnonzero(~fits.any(axis=1)) + 1]
    )
    if len(faults):
        k = int(faults.min())
        i = k // 2
        if k % 2:
            at = max(int(stops[i]) - pad, 0)
            raise AmbiguousPauseError(
                f"silence of {gaps[i]} samples matches no configured pause at sample {at}"
            )
        at = max(int(starts[i]) - pad, 0)
        raise DesyncError(
            f"segment of {lengths[i]} samples is not close to {nbits[i]} bits at sample {at}"
        )
    excess = lengths - nbits * bd
    grid = starts + np.sign(excess) * (np.abs(excess) // 2)
    run = np.repeat(np.arange(len(starts)), nbits)
    nth = np.arange(len(run)) - np.repeat(np.cumsum(nbits) - nbits, nbits)
    idx = (grid[run] + nth * bd)[:, None] + np.arange(bd)
    slots = x.take(idx, mode="clip")
    slots[(idx < starts[run, None]) | (idx >= stops[run, None])] = 0.0
    t = np.arange(bd) / cfg.sample_rate
    if cfg.scheme == "ask":
        bits = np.mean(slots * slots, axis=1) > (cfg.amp0**2 + cfg.amp1**2) / 4
    elif cfg.scheme == "fsk":
        mags = []
        for f in (cfg.freq0_hz, cfg.freq1_hz):
            c = slots @ np.cos(2 * np.pi * f * t)
            s = slots @ np.sin(2 * np.pi * f * t)
            mags.append(c * c + s * s)
        bits = mags[1] > mags[0]
    else:
        bits = slots @ np.sin(2 * np.pi * cfg.carrier_hz * t) < 0
    return BitFrame(bits, nbits, kinds)


def demodulate_outcome(demod, wave, cfg):
    """The frame's arrays, or the class and message of the error raised."""
    try:
        frame = demod(wave, cfg)
    except ValueError as err:
        return type(err), str(err)
    return frame.bits.tolist(), frame.run_lengths.tolist(), frame.pause_kinds.tolist()


def dense_config(scheme):
    """8 samples per bit at 8 kHz: the smallest bit the config allows."""
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


class TestDemodulate:
    def test_edge_refinement_matches_per_segment_loop(self, rng):
        configs = [fast_config(s) for s in ("ask", "fsk", "psk")] + [ModemConfig(scheme="fsk")]
        # zero bits whose power sits between half and all of the floor
        # threshold: blocks holding a few of them read silent, windows not
        configs.append(fast_config("ask", amp0=0.09))
        clipped = 0
        for cfg in configs:
            w = max(8, cfg.bit_duration // 2)
            for _ in range(24):
                frame = random_run_frame(rng, max_bits=5)
                while len(frame.run_lengths) < 3:
                    frame = random_run_frame(rng, max_bits=5)
                x = modulate(frame, cfg).samples
                # start and end mid-run, so carrier fills the first and the
                # last block and both search windows reach past the waveform
                lead, trail = rng.integers(1, cfg.bit_duration, 2)
                x = x[int(lead) : -int(trail)]
                x = x + rng.normal(0, float(rng.uniform(0.01, 0.5)), len(x))
                at = int(rng.integers(len(x)))
                x[at : at + int(rng.integers(1, 40))] += rng.normal(0, 3)  # a click
                for pad in (0, w):
                    got = _active_segments(np.pad(x, pad), cfg)
                    # the reference reads the silence padding as samples
                    want = loop_active_segments(energy_cumsum(np.pad(x, pad + w)), cfg)
                    assert np.array_equal(got[0], want[0] - w)
                    assert np.array_equal(got[1], want[1] - w)
                    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
                    if not pad:
                        clipped += int(got[0][0] < w and got[1][-1] > len(x) - w)
            for x in (np.zeros(10 * cfg.bit_duration), rng.normal(0, 1e-3, 10 * cfg.bit_duration)):
                got = _active_segments(x, cfg)
                assert len(got[0]) == len(got[1]) == 0
        assert clipped >= 48

    def test_edge_search_matches_whole_matrix_reference(self, rng):
        # seeded noisy messages with a click, for the configs whose confirm
        # window is longer than the short one and the dense one, where the
        # two are the same length
        redone = tested = 0
        for make in (fast_config, dense_config, ModemConfig):
            for scheme in SCHEMES:
                cfg = make(scheme)
                bd = cfg.bit_duration
                for _ in range(2 if bd == 480 else 8):
                    glyphs = [random_glyph_bits(rng) for _ in range(int(rng.integers(1, 4)))]
                    x = modulate(frame_message(glyphs, 3, (5, 7)), cfg).samples
                    lead, trail = rng.integers(0, 2 * bd, 2)
                    x = x[int(lead) : len(x) - int(trail)] * rng.uniform(0.3, 1.5)
                    x = x + rng.normal(0, rng.uniform(0.05, 0.6), len(x))
                    at = int(rng.integers(len(x)))
                    x[at : at + int(rng.integers(1, bd))] += rng.normal(0, 2)
                    got = _active_segments(x, cfg)
                    *want, masks = matrix_active_segments(x, cfg)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b) and a.dtype == b.dtype
                    if make is dense_config:
                        continue
                    # an edge whose first short-window hit fails the confirm
                    # window takes the search over its whole row
                    for short, confirm in masks:
                        rows = np.arange(len(short))
                        i = short.argmax(axis=1)
                        hit = short[rows, i]
                        tested += int(hit.sum())
                        redone += int((hit & ~confirm[rows, i]).sum())
        assert redone >= 0.05 * tested, (redone, tested)

    def test_first_hot_matches_the_whole_row_search(self, rng):
        # random masks, also read reversed as the stop side reads them: rows
        # with no short hit, with no column where both hold, and with a
        # first short hit that fails the confirm test
        for p_short, p_confirm in ((0.1, 0.9), (0.3, 0.3), (0.05, 0.05), (0.9, 0.1)):
            short = rng.random((200, 17)) < p_short
            confirm = rng.random((200, 17)) < p_confirm
            for a, b in ((short, confirm), (short[:, ::-1], confirm[:, ::-1])):
                i, hit = _first_hot(a, lambda r, c: b[r, c])
                both = a & b
                assert np.array_equal(hit, both.any(axis=1))
                assert np.array_equal(i[hit], both.argmax(axis=1)[hit])

    def test_edge_refinement_across_chunks(self, rng):
        # default-config waveforms longer than one 2**18-sample chunk of the
        # block energy pass, cut so that the first chunk bound lies inside a
        # run and the length is not a whole number of blocks
        for scheme in SCHEMES:
            cfg = ModemConfig(scheme=scheme)
            bd, w = cfg.bit_duration, max(8, cfg.bit_duration // 2)
            step = w * (2**18 // w)
            glyphs = [random_glyph_bits(rng) for _ in range(int(rng.integers(5, 10)))]
            frame = frame_message(glyphs, 3, (5, 7))
            clean = modulate(frame, cfg).samples
            spans = np.zeros(2 * len(frame.run_lengths) - 1, dtype=np.intp)
            spans[0::2] = frame.run_lengths * bd
            spans[1::2] = np.array(list(cfg.pause_samples.values()))[frame.pause_kinds]
            run_stops = np.cumsum(spans)[0::2]
            run_starts = run_stops - frame.run_lengths * bd
            i = int(np.argmax(run_stops > step + bd))
            lead = max(0, int(run_starts[i]) + bd // 2 - step) + int(rng.integers(bd // 4))
            assert run_starts[i] < step + lead < run_stops[i]
            trail = int(rng.integers(2 * bd))
            trail += (len(clean) - lead - trail) % w == 0
            x = clean[lead : len(clean) - trail]
            assert len(x) > step and len(x) % w
            for sigma in (0.0, 0.05, 0.3):
                noisy = x + rng.normal(0, sigma, len(x)) if sigma else x
                got = _active_segments(noisy, cfg)
                want = loop_active_segments(energy_cumsum(np.pad(noisy, w)), cfg)
                assert np.array_equal(got[0], want[0] - w)
                assert np.array_equal(got[1], want[1] - w)
                if not sigma:
                    assert ((got[0] < step) & (got[1] > step)).any()

    def test_matches_whole_waveform_reference_across_chunks(self):
        # noisy default-config "em" at repetition 3: about four chunks
        for scheme in SCHEMES:
            cfg = ModemConfig(scheme=scheme)
            wave = transmit("em", cfg, repetition=3)
            for snr, seed in ((20, 1), (6, 2), (0, 3), (-4, 4)):
                noisy = apply_channel(wave, ChannelConfig(snr_db=snr, gain=0.8, seed=seed))
                want = demodulate_outcome(reference_demodulate, noisy, cfg)
                assert demodulate_outcome(demodulate, noisy, cfg) == want

    def test_matches_whole_waveform_reference(self, rng):
        # seeded noisy waveforms, trimmed at either end, with a click or a
        # dropout: equal frames, or the same error class and message
        configs = [
            make(s) for make in (fast_config, dense_config, ModemConfig) for s in SCHEMES
        ]
        seen = set()
        for cfg in configs:
            bd = cfg.bit_duration
            trials = 4 if bd == 480 else 40
            for _ in range(trials):
                glyphs = [random_glyph_bits(rng) for _ in range(int(rng.integers(1, 3)))]
                x = modulate(frame_message(glyphs, int(rng.integers(1, 4)), (5, 7)), cfg).samples
                lead, trail = rng.integers(0, 2 * bd, 2)
                x = x[int(lead) : len(x) - int(trail)]
                at = int(rng.integers(len(x)))
                fault = rng.integers(3)
                if fault == 1:  # a click
                    x[at : at + int(rng.integers(1, bd))] += rng.normal(0, 2)
                elif fault == 2:  # a dropout
                    x[at : at + int(rng.integers(1, 3 * bd))] = 0.0
                x = x * rng.uniform(0.3, 1.5)
                if rng.random() < 0.8:
                    x = x + rng.normal(0, rng.uniform(0.01, 0.6), len(x))
                wave = Waveform(x, cfg.sample_rate)
                want = demodulate_outcome(reference_demodulate, wave, cfg)
                assert demodulate_outcome(demodulate, wave, cfg) == want
                seen.add(want[0] if isinstance(want[0], type) else "frame")
        # waveforms shorter than the rows around an edge, down to empty
        for cfg in configs[3:6]:
            for n in range(0, 40, 3):
                for x in (np.ones(n), np.sin(np.arange(n)), rng.normal(0, 1, n)):
                    wave = Waveform(x, cfg.sample_rate)
                    want = demodulate_outcome(reference_demodulate, wave, cfg)
                    assert demodulate_outcome(demodulate, wave, cfg) == want
                    seen.add(want[0] if isinstance(want[0], type) else "frame")
        assert {"frame", NoSignalError, DesyncError, AmbiguousPauseError} <= seen

    def test_one_waveform_sized_array(self):
        # the bit-slot matrix is the only one, also when slots reach past
        # the ends of a waveform cut mid-run; the squares are summed per
        # block in 2 MB chunks, and running energy sums are taken only in
        # rows around the coarse edges
        for scheme in SCHEMES:
            cfg = ModemConfig(scheme=scheme)
            whole = transmit("em", cfg, repetition=3)
            cut = cfg.bit_duration // 3
            for wave in (whole, Waveform(whole.samples[cut:-cut], cfg.sample_rate)):
                tracemalloc.start()
                try:
                    demodulate(wave, cfg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 1.25 * wave.samples.nbytes, (scheme, len(wave.samples))

    def test_round_trip_every_scheme_default_config(self):
        frame = one_glyph_frame()
        for scheme in ("ask", "fsk", "psk"):
            cfg = ModemConfig(scheme=scheme)
            assert demodulate(modulate(frame, cfg), cfg) == frame
            assert demodulate(zero_run_edges(frame, cfg), cfg) == frame

    def test_round_trip_random_frames(self, rng):
        for scheme in ("ask", "fsk", "psk"):
            cfg = fast_config(scheme)
            frame = one_glyph_frame()
            assert demodulate(zero_run_edges(frame, cfg), cfg) == frame
            for _ in range(12):
                n = int(rng.integers(1, 4))
                rep = int(rng.integers(1, 3))
                frame = frame_message(
                    [random_glyph_bits(rng) for _ in range(n)], rep, (5, 7)
                )
                assert demodulate(modulate(frame, cfg), cfg) == frame

    def test_demodulated_frame_yields_grid(self):
        cfg = fast_config("fsk")
        frame = one_glyph_frame()
        assert read_frame(demodulate(modulate(frame, cfg), cfg))[0] == GridInfo(5, 7, 1, 1)

    def test_all_zero_waveform(self):
        cfg = ModemConfig()
        with pytest.raises(NoSignalError):
            demodulate(Waveform(np.zeros(48000), 48000), cfg)

    def test_psk_negation_inverts_every_bit(self):
        cfg = ModemConfig(scheme="psk")
        frame = one_glyph_frame()
        wave = modulate(frame, cfg)
        flipped = demodulate(Waveform(-wave.samples, wave.sample_rate), cfg)
        assert flipped == BitFrame(1 - frame.bits, frame.run_lengths, frame.pause_kinds)

    def test_sample_rate_mismatch(self):
        cfg = ModemConfig()
        wave = modulate(one_glyph_frame(), cfg)
        for rate in (44100, 96000):
            with pytest.raises(ConfigInvalidError, match=f"{rate} Hz.*48000 Hz"):
                demodulate(Waveform(wave.samples, rate), cfg)

    # Edge refinement moves a measured edge by less than one short window
    # (bit_duration // 24 samples), so the reported offsets sit that close
    # to the true ones.
    def test_pause_fault_before_later_desync(self):
        cfg = ModemConfig(scheme="psk")
        tone = psk_tone(cfg, 720)
        wave = Waveform(np.concatenate([tone[:480], np.zeros(780), tone]), cfg.sample_rate)
        with pytest.raises(AmbiguousPauseError, match="silence of 743 samples") as err:
            demodulate(wave, cfg)
        at = int(str(err.value).rsplit(" at sample ", 1)[1])
        assert abs(at - 480) <= cfg.bit_duration // 24

    def test_desync_before_later_pause_fault(self):
        cfg = ModemConfig(scheme="psk")
        tone = psk_tone(cfg, 720)
        wave = Waveform(np.concatenate([tone, np.zeros(780), tone[:480]]), cfg.sample_rate)
        with pytest.raises(
            DesyncError, match="segment of 757 samples is not close to 2 bits"
        ) as err:
            demodulate(wave, cfg)
        at = int(str(err.value).rsplit(" at sample ", 1)[1])
        assert abs(at - 0) <= cfg.bit_duration // 24

    def test_ambiguous_pause(self):
        cfg = ModemConfig(scheme="psk")
        tone = psk_tone(cfg, cfg.bit_duration)
        # 780 samples of silence sits between the row and glyph windows
        # even after edge refinement trims a few samples from each side
        wave = Waveform(np.concatenate([tone, np.zeros(780), tone]), cfg.sample_rate)
        with pytest.raises(AmbiguousPauseError):
            demodulate(wave, cfg)

    def test_desync_on_fractional_bits(self):
        cfg = ModemConfig(scheme="psk")
        wave = Waveform(psk_tone(cfg, int(cfg.bit_duration * 1.5)), cfg.sample_rate)
        with pytest.raises(DesyncError):
            demodulate(wave, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_waveform_refuses_non_finite_samples(bad):
    with pytest.raises(ValueError, match="^waveform amplitudes must be finite$"):
        Waveform(np.array([0.0, 0.5, bad, -0.5]), 48000)


@pytest.mark.parametrize(
    "rate, message",
    [
        (0, "sample_rate must be positive, got 0"),
        (-1, "sample_rate must be positive, got -1"),
        (48000.5, "sample_rate must be an integer, got 48000.5"),
        ("48000", "sample_rate must be an integer, got '48000'"),
        (None, "sample_rate must be an integer, got None"),
    ],
)
def test_waveform_refuses_a_rate_that_is_not_a_positive_integer(rate, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Waveform([0.0], rate)


def test_waveform_takes_numpy_integer_rates_as_ints():
    wave = Waveform([0.0, 0.5], np.int64(8000))
    assert type(wave.sample_rate) is int and wave.sample_rate == 8000
    assert Waveform([0.0], 1).duration_s == 1.0


class TestWavFiles:
    def test_hand_built_header_reads(self, tmp_path):
        path = tmp_path / "hand.wav"
        path.write_bytes(pcm_wav_bytes(8000, np.array([16384, -32767], "<i2").tobytes()))
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert np.array_equal(back.samples, np.array([16384, -32767]) / FULL_SCALE)

    def test_zero_rate_header_is_refused(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(pcm_wav_bytes(0))
        message = f"cannot read {path} as a WAV file: sample rate 0 Hz is not positive"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_wav(path)

    def test_round_trip_within_quantization(self, tmp_path, rng):
        cfg = fast_config("fsk")
        frame = one_glyph_frame()
        wave = modulate(frame, cfg)
        path = tmp_path / "msg.wav"
        write_wav(path, wave)
        back = read_wav(path)
        assert back.sample_rate == cfg.sample_rate
        assert len(back.samples) == len(wave.samples)
        assert np.max(np.abs(back.samples - wave.samples)) <= 2**-15

    def test_samples_are_the_pcm_over_full_scale(self, tmp_path, rng):
        # under 256 KiB of float64, where numpy does not reuse the temporary
        # of a chained expression, so an out-of-place divide shows
        x = rng.normal(0, 0.5, 16000)
        path = tmp_path / "noise.wav"
        write_wav(path, Waveform(x, 48000))
        tracemalloc.start()
        try:
            back = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.samples, np.round(np.clip(x, -1, 1) * FULL_SCALE) / FULL_SCALE)
        # the PCM bytes plus one float64 array, not two
        assert peak < 1.5 * back.samples.nbytes

    def test_clipping(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, Waveform(np.array([2.0, -2.0, 0.5]), 48000))
        back = read_wav(path)
        assert abs(back.samples[0] - 1.0) <= 2**-15
        assert abs(back.samples[1] + 1.0) <= 2**-15


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = fast_config("psk", amp0=0.1)
        path = tmp_path / "modem.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_save_writes_each_field_once_in_declaration_order(self, tmp_path, scheme):
        cfg = fast_config(scheme)
        path = tmp_path / "modem.cfg"
        save_config(cfg, path)
        keys = [line.partition(" = ")[0] for line in path.read_text().splitlines()]
        assert keys == [field.name for field in dataclasses.fields(ModemConfig)]
        assert load_config(path) == cfg

    def test_comments_and_overrides(self, tmp_path):
        path = tmp_path / "modem.cfg"
        path.write_text("# comment\nscheme = ask\nbit_duration = 480  # trailing\n")
        cfg = load_config(path, scheme="fsk")
        assert cfg.scheme == "fsk"
        assert cfg.bit_duration == 480

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "modem.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(ConfigInvalidError):
            load_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bit_duration = 4x0", "bit_duration must be an integer, got '4x0'"),
            ("bit_duration = 480.0", "bit_duration must be an integer, got '480.0'"),
            ("amp1 = loud", "amp1 must be a number, got 'loud'"),
            ("carrier_hz =", "carrier_hz must be a number, got ''"),
        ],
        ids=["garbled-int", "float-for-int", "word", "empty"],
    )
    def test_malformed_number_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "modem.cfg"
        path.write_text(f"scheme = fsk\n{line}\n")
        with pytest.raises(ConfigInvalidError) as exc:
            load_config(path)
        assert str(exc.value) == f"line 2: {message}"
