import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glyphwave

from conftest import fast_config, middle_run_bit_flipped, pcm_wav_bytes
from glyphwave.cli import main
from glyphwave.framing import frame_message, frame_to_text
from glyphwave.modem import ModemConfig, Waveform, modulate, read_wav, save_config, write_wav
from glyphwave.notation import canonical_messages, parse_dsl, print_dsl
from glyphwave.pipeline import message_frame, transmit

GOLDEN = Path(__file__).parent / "golden"


def test_encode_writes_pbm(tmp_path, capsys):
    out = tmp_path / "msg.pbm"
    assert main(["encode", "riemann", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P1\n41 7\n")
    assert len(data.split(b"\n")) == 2 + 7 + 1  # header, dims, rows, trailing


@pytest.mark.parametrize("name", sorted(canonical_messages()))
def test_encode_and_frame_match_the_goldens(tmp_path, capsys, name):
    dsl = print_dsl(canonical_messages()[name])
    out = tmp_path / f"{name}.pbm"
    assert main(["encode", dsl, "--gap", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.pbm").read_bytes()
    capsys.readouterr()
    assert main(["frame", dsl]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.frame.txt").read_text()


def test_frame_dump_matches_library(capsys):
    assert main(["frame", "em"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == frame_to_text(message_frame(parse_dsl("em"), repetition=1))


def test_transmit_channel_receive_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "modem.cfg"
    save_config(fast_config("fsk"), cfg_path)
    wav = tmp_path / "msg.wav"
    noisy = tmp_path / "noisy.wav"
    report = tmp_path / "report.txt"

    assert main(["transmit", "em vector", "--config", str(cfg_path), "--out", str(wav)]) == 0
    assert (
        main(["channel", str(wav), "--snr", "25", "--seed", "3", "--out", str(noisy)]) == 0
    )
    code = main(
        ["receive", str(noisy), "--config", str(cfg_path), "--report", str(report)]
    )
    out = capsys.readouterr().out
    assert "em vector" in out
    assert code == 0
    text = report.read_text()
    assert "decoded: em vector" in text
    assert "grid: 5x7" in text


def test_receive_scheme_flag_uses_defaults(tmp_path, capsys):
    wav = tmp_path / "msg.wav"
    assert main(["transmit", "form", "--scheme", "psk", "--out", str(wav)]) == 0
    assert main(["receive", str(wav), "--scheme", "psk"]) == 0
    assert capsys.readouterr().out.strip().endswith("form")


def test_channel_deterministic(tmp_path):
    wav = tmp_path / "m.wav"
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    cfg_path = tmp_path / "modem.cfg"
    save_config(fast_config("fsk"), cfg_path)
    main(["transmit", "vector", "--config", str(cfg_path), "--out", str(wav)])
    main(["channel", str(wav), "--snr", "18", "--seed", "11", "--out", str(a)])
    main(["channel", str(wav), "--snr", "18", "--seed", "11", "--out", str(b)])
    assert np.array_equal(read_wav(a).samples, read_wav(b).samples)


def test_receive_flags_corrected_decode(tmp_path, capsys):
    cfg = fast_config("fsk")
    frame = message_frame(parse_dsl("vector"), repetition=3)
    wav = tmp_path / "dirty.wav"
    cfg_path = tmp_path / "modem.cfg"
    save_config(cfg, cfg_path)
    write_wav(wav, modulate(middle_run_bit_flipped(frame, 0), cfg))

    code = main(["receive", str(wav), "--config", str(cfg_path)])
    assert capsys.readouterr().out.strip() == "vector"
    assert code == 2


def test_receive_failure_exit_code(tmp_path, capsys):
    wav = tmp_path / "silence.wav"
    write_wav(wav, Waveform(np.zeros(48000), 48000))
    assert main(["receive", str(wav)]) == 1


def test_receive_of_a_grid_with_no_glyph_registry(tmp_path, capsys):
    wav = tmp_path / "grid13x7.wav"
    frame = frame_message(np.zeros((2, 7, 13), np.uint8), 1, (13, 7))
    write_wav(wav, modulate(frame, ModemConfig()))
    assert main(["receive", str(wav), "--scheme", "fsk"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("decode failed:") and "13x7" in err[0]


def test_receive_rejects_other_sample_rate(tmp_path, capsys):
    wav = tmp_path / "resampled.wav"
    write_wav(wav, Waveform(transmit("vector form", ModemConfig()).samples, 44100))
    assert main(["receive", str(wav)]) == 1
    assert capsys.readouterr().err.startswith("decode failed:")


@pytest.mark.parametrize(
    "content, detail",
    [
        (b"", "file ends early"),
        (b"not a riff header\n", "file does not start with RIFF id"),
        (pcm_wav_bytes(0), "sample rate 0 Hz is not positive"),
    ],
    ids=["empty", "not-riff", "zero-rate"],
)
def test_unreadable_wav_is_reported(tmp_path, capsys, content, detail):
    wav = tmp_path / "bad.wav"
    wav.write_bytes(content)
    reason = f"cannot read {wav} as a WAV file: {detail}\n"
    assert main(["receive", str(wav), "--scheme", "fsk"]) == 1
    assert capsys.readouterr().err == f"decode failed: {reason}"
    assert main(["channel", str(wav), "--snr", "10", "--out", str(tmp_path / "out.wav")]) == 1
    assert capsys.readouterr().err == f"error: {reason}"
    assert not (tmp_path / "out.wav").exists()


def test_channel_on_short_wav(tmp_path, capsys):
    wav = tmp_path / "short.wav"
    out = tmp_path / "noisy.wav"
    write_wav(wav, Waveform(np.full(10, 0.5), 48000))
    assert main(["channel", str(wav), "--snr", "20", "--seed", "1", "--out", str(out)]) == 0
    assert len(read_wav(out).samples) == 10


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--snr=nan", "snr_db"),
        ("--snr=-inf", "snr_db"),
        ("--snr=-7000", "snr_db"),
        ("--gain=nan", "gain"),
        ("--gain=inf", "gain"),
    ],
)
def test_channel_rejects_non_finite_values(tmp_path, capsys, flag, field):
    wav = tmp_path / "msg.wav"
    out = tmp_path / "noisy.wav"
    write_wav(wav, Waveform(np.full(10, 0.5), 48000))
    assert main(["channel", str(wav), flag, "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {field} must be finite"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, reason",
    [
        ("scheme = ask\namp1 = inf\n", "amplitudes must be finite"),
        ("scheme = ask\namp0 = nan\n", "amplitudes must be finite"),
        ("# fast\nbit_duration = 4x0\n", "line 2: bit_duration must be an integer, got '4x0'"),
    ],
    ids=["inf-amp1", "nan-amp0", "malformed-number"],
)
def test_bad_config_file_is_reported(tmp_path, capsys, content, reason):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(content)
    wav = tmp_path / "x.wav"
    assert main(["transmit", "em", "--config", str(cfg_path), "--out", str(wav)]) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not wav.exists()


def test_bad_dsl_exit_code(tmp_path, capsys):
    assert main(["encode", "bogus", "--out", str(tmp_path / "x.pbm")]) == 1


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 12


@pytest.mark.parametrize(
    "args",
    [
        ["receive", "missing.wav", "--scheme", "fsk"],
        ["receive", "."],
        ["encode", "em", "--out", "no/such/dir/x.pbm"],
        ["transmit", "em", "--config", "missing.cfg", "--out", "x.wav"],
        ["transmit", "em", "--out", "no/such/x.wav"],
        ["receive", "msg.wav", "--report", "no/such/r.txt"],
        ["channel", "rate0.wav", "--snr", "10", "--out", "n.wav"],
    ],
    ids=[
        "missing-wav",
        "directory",
        "encode-out",
        "missing-config",
        "transmit-out",
        "report",
        "zero-rate",
    ],
)
def test_file_errors_are_one_line(tmp_path, args):
    # A real process, so that anything printed past main's return (such as
    # a half-built WAV writer complaining at exit) shows on stderr too.
    write_wav(tmp_path / "msg.wav", transmit("em", ModemConfig(), repetition=1))
    (tmp_path / "rate0.wav").write_bytes(pcm_wav_bytes(0))
    src = str(Path(glyphwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "glyphwave.cli", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
