"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the line-per-criterion
output (pytest hides stdout for passing tests by default).
"""

import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np

from conftest import (
    art_pixels,
    canonical_art,
    fast_config,
    frame_elements,
    min_pairwise_hamming,
    prime_pair_factorization,
    random_glyph_bits,
)
from glyphwave.framing import PauseKind, frame_message, majority_vote, read_frame
from glyphwave.glyphs import DEFAULT_DIMS, Glyph, bitmap_of
from glyphwave.modem import ModemConfig, modulate, read_wav, write_wav
from glyphwave.notation import (
    MAXWELL,
    SPACETIME,
    Message,
    affinity,
    canonical_messages,
    print_dsl,
    tensor,
)
from glyphwave.pipeline import (
    ChannelConfig,
    apply_channel,
    message_frame,
    message_glyphs,
    receive,
    recognize_glyphs,
    transmit,
)
from glyphwave.raster import compose_strip, export_pbm
from glyphwave.framing import frame_to_text

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, budget_s: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"criterion {number}: FAIL ({elapsed:.2f} s) - {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({elapsed:.2f} s) - {label}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s} s budget"


def test_criterion_1_grid_constants():
    with criterion(1, 1.0, "grid constants: 35 bits, 5x7, unique prime pair"):
        for g in Glyph:
            bits = bitmap_of(g).reshape(-1)
            assert bits.shape == (35,) and bits.dtype == np.uint8
        assert prime_pair_factorization(35) == (5, 7)
        for msg in canonical_messages().values():
            info, _ = read_frame(message_frame(msg, repetition=1))
            assert (info.width, info.height) == (5, 7)


def test_criterion_2_noiseless_end_to_end():
    with criterion(2, 10.0, "noiseless identity: 4 messages x 3 schemes"):
        for name, msg in canonical_messages().items():
            expected = print_dsl(msg)
            for scheme in ("ask", "fsk", "psk"):
                cfg = ModemConfig(scheme=scheme)
                report = receive(transmit(expected, cfg, repetition=3), cfg)
                assert report.dsl_text == expected, (name, scheme, report.dsl_text)
                assert report.corrected_bits == 0, (name, scheme)
                assert all(d == 0 for _, d, _ in report.per_glyph), (name, scheme)


def _random_symbol(rng):
    roll = int(rng.integers(0, 6))
    if roll == 4:
        return SPACETIME
    if roll == 5:
        return MAXWELL
    r, s = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    if roll == 3 and r + s >= 1:
        return affinity(r, s)
    return tensor(r, s, at_point=bool(rng.integers(0, 2)))


def _shares_wire_image_with_em(msg: Message) -> bool:
    # (0,2) (0,1) (0,2) in a row linearizes identically to the
    # electromagnetic triplet and decodes as "em" by design; random
    # sampling skips that known collision class.
    plain = [
        (s.contra_rank, s.co_rank)
        if s.kind.name == "TENSOR" and not s.affinity and not s.at_point
        else None
        for s in msg
    ]
    triples = zip(plain, plain[1:], plain[2:])
    return any(t == ((0, 2), (0, 1), (0, 2)) for t in triples)


def test_criterion_3_random_message_property():
    with criterion(3, 120.0, "500 random messages, random scheme, noiseless"):
        rng = np.random.default_rng(31415926)
        configs = {s: fast_config(s) for s in ("ask", "fsk", "psk")}
        passed = 0
        for _ in range(500):
            while True:
                msg = Message(
                    tuple(_random_symbol(rng) for _ in range(int(rng.integers(1, 5))))
                )
                if not _shares_wire_image_with_em(msg):
                    break
            cfg = configs[("ask", "fsk", "psk")[int(rng.integers(0, 3))]]
            expected = print_dsl(msg)
            report = receive(transmit(expected, cfg, repetition=1), cfg)
            assert report.dsl_text == expected, expected
            passed += 1
        assert passed == 500


def test_criterion_4_glyph_robustness():
    with criterion(4, 1.0, "all 280 single-bit flips recognized; min distance >= 3"):
        clean_of = {g: art_pixels(art).reshape(-1) for g, art in canonical_art().items()}
        dists = [int((clean_of[a] != clean_of[b]).sum()) for a, b in combinations(Glyph, 2)]
        assert len(dists) == 28
        assert min(dists) >= 3
        assert min_pairwise_hamming(DEFAULT_DIMS) == min(dists)
        cases = 0
        for g in Glyph:
            clean = clean_of[g]
            assert np.array_equal(bitmap_of(g).reshape(-1), clean)
            for pos in range(35):
                flipped = clean.copy()
                flipped[pos] ^= 1
                [(found, dist, runner)], failures = recognize_glyphs(flipped[None])
                assert failures == []
                assert found is g
                assert dist <= 1 <= runner
                cases += 1
        assert cases == 280


def test_criterion_5_repetition_correction():
    with criterion(5, 5.0, "1000 seeded single-flip trials corrected by vote"):
        rng = np.random.default_rng(271828)
        recovered = 0
        for _ in range(1000):
            clean = rng.integers(0, 2, 35).astype(np.uint8)
            copies = np.tile(clean, (3, 1))
            copies[int(rng.integers(0, 3)), int(rng.integers(0, 35))] ^= 1
            result = majority_vote(copies)
            assert np.array_equal(result.payload, clean)
            assert result.tie_positions.size == 0
            recovered += 1
        assert recovered == 1000


def test_criterion_6_noisy_channel_behavior():
    with criterion(6, 300.0, "FSK rep 3 AWGN sweep 40..0 dB"):
        cfg = fast_config("fsk")
        wave = transmit("em", cfg, repetition=3)
        rates = {}
        for snr in range(40, -1, -5):
            ok = 0
            for trial in range(100):
                noisy = apply_channel(
                    wave, ChannelConfig(snr_db=snr, seed=snr * 10007 + trial)
                )
                try:
                    ok += receive(noisy, cfg).dsl_text == "em"
                except ValueError:
                    pass
            rates[snr] = ok / 100
        print(f"  success by SNR: {rates}")
        assert rates[20] >= 0.99
        snrs = sorted(rates, reverse=True)
        inversions = sum(
            1 for a, b in zip(snrs, snrs[1:]) if rates[b] > rates[a]
        )
        assert inversions <= 1, rates


def test_criterion_7_format_exactness(tmp_path):
    with criterion(7, 5.0, "golden PBM/frame dumps byte-identical; WAV quantization"):
        for name, msg in canonical_messages().items():
            glyphs = message_glyphs(msg)
            strip = compose_strip([bitmap_of(g) for g in glyphs], gap=1)
            assert export_pbm(strip) == (GOLDEN / f"{name}.pbm").read_bytes(), name
            dump = frame_to_text(message_frame(msg, repetition=1)) + "\n"
            assert dump == (GOLDEN / f"{name}.frame.txt").read_text(), name

        cfg = ModemConfig(scheme="psk")
        wave = transmit("em", cfg, repetition=1)
        path = tmp_path / "roundtrip.wav"
        write_wav(path, wave)
        back = read_wav(path)
        assert back.sample_rate == wave.sample_rate
        assert np.max(np.abs(back.samples - wave.samples)) <= 2**-15


def test_criterion_8_numerical_modem_checks():
    with criterion(8, 5.0, "FSK orthogonality, OOK zero bits, duration law x100"):
        cfg = ModemConfig(scheme="fsk")
        t = np.arange(cfg.bit_duration) / cfg.sample_rate
        cross = abs(
            np.dot(np.sin(2 * np.pi * cfg.freq0_hz * t), np.sin(2 * np.pi * cfg.freq1_hz * t))
        ) / (cfg.bit_duration / 2)
        assert cross <= 1e-9

        ook = ModemConfig(scheme="ask", amp0=0.0)
        blank = bitmap_of(Glyph.BLANK)[None]
        frame = frame_message(blank, 1, (5, 7))
        blank_wave = modulate(frame, ook)
        assert not blank_wave.samples.any()  # every zero bit is exact silence

        rng = np.random.default_rng(8)
        cfg_fast = fast_config("ask")
        for _ in range(100):
            n = int(rng.integers(1, 4))
            rep = int(rng.integers(1, 3))
            f = frame_message([random_glyph_bits(rng) for _ in range(n)], rep, (5, 7))
            expected = 0
            for e in frame_elements(f):
                if isinstance(e, tuple):
                    expected += len(e) * cfg_fast.bit_duration
                elif e is PauseKind.ROW:
                    expected += cfg_fast.pause_row
                elif e is PauseKind.GLYPH:
                    expected += cfg_fast.pause_glyph
                else:
                    expected += cfg_fast.pause_message
            assert len(modulate(f, cfg_fast).samples) == expected
