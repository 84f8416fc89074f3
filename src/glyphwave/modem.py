"""Carrier modulation and demodulation for framed bit streams.

Each run bit becomes one fixed-length burst of carrier shaped by the
chosen keying (amplitude, frequency, or phase); each pause becomes a
configured stretch of silence. The receiver segments the waveform by
windowed power, classifies silence lengths back into pause kinds, and
decides bits with matched-filter correlations. With a clean channel the
round trip is exact for every scheme.

Demodulation assumes the transmit configuration is shared (so phase-shift
keying uses a coherent reference and keeps its documented global sign
ambiguity) and that pauses are no shorter than one bit duration, which
the configuration enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .framing import BitFrame, FrameElement, Pause, PauseKind, Run

SCHEMES = ("ask", "fsk", "psk")

# Tolerance used when pause lengths are classified by nearest configured
# duration: measured silence must land within this fraction of a kind.
PAUSE_TOLERANCE = 0.4


class ConfigInvalidError(ValueError):
    """Modem configuration violates an invariant."""


class NoSignalError(ValueError):
    """The waveform contains no carrier activity at all."""


class AmbiguousPauseError(ValueError):
    """A silence length matches no configured pause kind."""


class DesyncError(ValueError):
    """An active segment is not close to a whole number of bits."""


def _cycles(freq_hz: float, bit_duration: int, sample_rate: int) -> float:
    return freq_hz * bit_duration / sample_rate


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) < 1e-9


@dataclass(frozen=True)
class ModemConfig:
    """Shared transmit/receive parameters.

    Frequencies must fit a whole number of cycles into one bit for the
    schemes that rely on it (tone orthogonality for frequency keying,
    per-bit phase coherence for phase keying). Pause durations must be
    strictly ordered with pairwise ratio at least 2 so the receiver can
    tell them apart, and no shorter than one bit. amp0 defaults to a
    quarter scale rather than zero: fully silent zero bits cannot be told
    apart from framing silence, so on-off keying (amp0 = 0) is
    transmit-only.
    """

    scheme: str = "fsk"
    sample_rate: int = 48000
    bit_duration: int = 480
    carrier_hz: float = 3000.0
    freq0_hz: float = 2400.0
    freq1_hz: float = 3600.0
    amp0: float = 0.25
    amp1: float = 1.0
    pause_row: int = 480
    pause_glyph: int = 1440
    pause_message: int = 3360

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigInvalidError(f"unknown scheme {self.scheme!r}")
        if self.sample_rate <= 0:
            raise ConfigInvalidError("sample_rate must be positive")
        if self.bit_duration < 8:
            raise ConfigInvalidError("bit_duration must be at least 8 samples")
        nyquist = self.sample_rate / 2
        for name in ("carrier_hz", "freq0_hz", "freq1_hz"):
            f = getattr(self, name)
            if not (0 < f < nyquist):
                raise ConfigInvalidError(f"{name}={f} must sit between 0 and {nyquist}")
        if self.scheme == "fsk":
            if self.freq0_hz == self.freq1_hz:
                raise ConfigInvalidError("fsk tones must differ")
            for name in ("freq0_hz", "freq1_hz"):
                c = _cycles(getattr(self, name), self.bit_duration, self.sample_rate)
                if not _is_integral(c) or round(c) < 1:
                    raise ConfigInvalidError(
                        f"{name} must fit a whole number of cycles per bit, got {c:g}"
                    )
        if self.scheme == "psk":
            c = _cycles(self.carrier_hz, self.bit_duration, self.sample_rate)
            if not _is_integral(c) or round(c) < 1:
                raise ConfigInvalidError(
                    f"carrier_hz must fit a whole number of cycles per bit, got {c:g}"
                )
        if self.scheme == "ask":
            if self.amp0 < 0 or self.amp1 <= 0:
                raise ConfigInvalidError("amplitudes must be non-negative, amp1 positive")
            if self.amp0 >= self.amp1:
                raise ConfigInvalidError("amp0 must be smaller than amp1")
        if not (0 < self.pause_row < self.pause_glyph < self.pause_message):
            raise ConfigInvalidError("pauses must satisfy 0 < row < glyph < message")
        if self.pause_glyph < 2 * self.pause_row or self.pause_message < 2 * self.pause_glyph:
            raise ConfigInvalidError("pause durations need pairwise ratio of at least 2")
        if self.pause_row < self.bit_duration:
            raise ConfigInvalidError("pause_row must be at least one bit_duration")

    @property
    def pause_samples(self) -> dict[PauseKind, int]:
        return {
            PauseKind.ROW: self.pause_row,
            PauseKind.GLYPH: self.pause_glyph,
            PauseKind.MESSAGE: self.pause_message,
        }

    @property
    def peak_amplitude(self) -> float:
        return max(self.amp0, self.amp1) if self.scheme == "ask" else 1.0


@dataclass
class Waveform:
    """Sampled real signal; samples are float64, finite."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform amplitudes must be finite")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


def _bit_tables(cfg: ModemConfig) -> np.ndarray:
    """(2, bit_duration) array: row b is the burst transmitted for bit b."""
    t = np.arange(cfg.bit_duration) / cfg.sample_rate
    if cfg.scheme == "ask":
        tone = np.sin(2 * np.pi * cfg.carrier_hz * t)
        return np.stack([cfg.amp0 * tone, cfg.amp1 * tone])
    if cfg.scheme == "fsk":
        return np.stack(
            [np.sin(2 * np.pi * cfg.freq0_hz * t), np.sin(2 * np.pi * cfg.freq1_hz * t)]
        )
    return np.stack(
        [
            np.sin(2 * np.pi * cfg.carrier_hz * t),
            np.sin(2 * np.pi * cfg.carrier_hz * t + np.pi),
        ]
    )


def modulate(frame: BitFrame, cfg: ModemConfig) -> Waveform:
    """Turn a frame into a sampled waveform, runs as carrier, pauses as zeros."""
    table = _bit_tables(cfg)
    pause_samples = cfg.pause_samples
    parts = []
    for e in frame.elements:
        if isinstance(e, Run):
            parts.append(table[np.asarray(e.bits, dtype=np.intp)].reshape(-1))
        else:
            parts.append(np.zeros(pause_samples[e.kind]))
    samples = np.concatenate(parts) if parts else np.zeros(0)
    return Waveform(samples, cfg.sample_rate)


def _window_means(cum: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    return (cum[starts + length] - cum[starts]) / length


def _active_segments(power: np.ndarray, cum: np.ndarray, cfg: ModemConfig) -> list[tuple[int, int]]:
    """Coarse power-threshold segmentation with sample-level edge refinement."""
    n = len(power)
    w = max(8, cfg.bit_duration // 2)
    bounds = list(range(0, n, w)) + [n]
    block_p = np.array(
        [(cum[b] - cum[a]) / (b - a) for a, b in zip(bounds[:-1], bounds[1:])]
    )

    floor_p = (cfg.peak_amplitude / 20) ** 2
    thr_p = floor_p
    if len(block_p):
        lo = float(np.percentile(block_p, 5))
        hi = float(np.percentile(block_p, 90))
        # Adaptive threshold only when the power histogram is clearly
        # bimodal; otherwise the configured floor stands (clean signals
        # have lo == 0 and land here as well).
        if hi > 0 and lo < hi / 4:
            thr_p = max(floor_p, math.sqrt(max(lo, 0.0) * hi))

    active = block_p > thr_p
    coarse: list[tuple[int, int]] = []
    i = 0
    while i < len(active):
        if active[i]:
            j = i
            while j < len(active) and active[j]:
                j += 1
            coarse.append((bounds[i], bounds[j]))
            i = j
        else:
            i += 1

    # Edge refinement pairs a short window (timing precision, overshoot
    # into silence under sw per side, inside the 10 percent drift budget)
    # with a longer confirm window so isolated noise flukes near an edge
    # cannot masquerade as signal onset.
    sw = max(2, cfg.bit_duration // 24)
    cw = max(sw, cfg.bit_duration // 4)
    if n >= cw:
        starts = np.arange(0, n - cw + 1)
        hot = (_window_means(cum, starts, sw) > thr_p) & (
            _window_means(cum, starts, cw) > thr_p
        )
    else:
        hot = np.zeros(0, dtype=bool)

    def first_hot(a: int, b: int) -> int | None:
        a, b = max(a, 0), min(b, len(hot))
        if a >= b:
            return None
        seg = hot[a:b]
        idx = int(np.argmax(seg))
        return a + idx if seg[idx] else None

    def last_hot_end(a: int, b: int) -> int | None:
        # Largest end index whose trailing short and confirm windows are hot.
        a, b = max(a, cw), min(b, n)
        if a >= b:
            return None
        ends = np.arange(a, b + 1)
        seg = (_window_means(cum, ends - sw, sw) > thr_p) & (
            _window_means(cum, ends - cw, cw) > thr_p
        )
        idx = int(np.argmax(seg[::-1]))
        return int(ends[len(ends) - 1 - idx]) if seg[len(ends) - 1 - idx] else None

    refined = []
    for s, e in coarse:
        start = first_hot(s - w, s + w)
        stop = last_hot_end(e - w, e + w)
        start = s if start is None else start
        stop = e if stop is None else stop
        if stop - start >= cfg.bit_duration // 2:
            refined.append((start, stop))
    return refined


def _classify_pause(gap: int, cfg: ModemConfig) -> PauseKind:
    candidates = [
        (abs(gap - dur), kind)
        for kind, dur in cfg.pause_samples.items()
        if abs(gap - dur) <= PAUSE_TOLERANCE * dur
    ]
    if not candidates:
        raise AmbiguousPauseError(f"silence of {gap} samples matches no configured pause")
    candidates.sort(key=lambda c: c[0])
    if len(candidates) > 1 and candidates[0][0] == candidates[1][0]:
        raise AmbiguousPauseError(f"silence of {gap} samples is equidistant to two pause kinds")
    return candidates[0][1]


def _decide_bits(seg: np.ndarray, cfg: ModemConfig) -> list[int]:
    """Matched-filter bit decisions on one active segment."""
    bd = cfg.bit_duration
    length = len(seg)
    nbits = max(1, round(length / bd))
    # Drift tolerance accumulates over the run: 10 percent of its nominal
    # duration, not of a single bit.
    if abs(length - nbits * bd) > 0.1 * nbits * bd:
        raise DesyncError(f"segment of {length} samples is not close to {nbits} bits")

    # Center the nominal-length slot grid in the measured segment so edge
    # estimation bias cancels instead of rotating the carrier reference.
    want = nbits * bd
    if length >= want:
        seg = seg[(length - want) // 2 : (length - want) // 2 + want]
    else:
        pad = want - length
        seg = np.concatenate([np.zeros(pad // 2), seg, np.zeros(pad - pad // 2)])
    slots = seg.reshape(nbits, bd)

    t = np.arange(bd) / cfg.sample_rate
    if cfg.scheme == "ask":
        energy = np.mean(slots * slots, axis=1)
        midpoint = (cfg.amp0**2 + cfg.amp1**2) / 4
        return [int(e > midpoint) for e in energy]
    if cfg.scheme == "fsk":
        mags = []
        for f in (cfg.freq0_hz, cfg.freq1_hz):
            c = slots @ np.cos(2 * np.pi * f * t)
            s = slots @ np.sin(2 * np.pi * f * t)
            mags.append(c * c + s * s)
        return [int(m1 > m0) for m0, m1 in zip(*mags)]
    corr = slots @ np.sin(2 * np.pi * cfg.carrier_hz * t)
    return [int(c < 0) for c in corr]


def demodulate(wave: Waveform, cfg: ModemConfig) -> BitFrame:
    """Recover the bit frame from a waveform produced with the same config.

    Raises NoSignalError for an all-silent waveform, AmbiguousPauseError
    when a silence length fits no pause kind, and DesyncError when an
    active segment is far from a whole number of bits.
    """
    # Pad with silence so edge refinement behaves the same at the waveform
    # boundaries as between runs; otherwise the recentered slot grid of a
    # boundary run shifts by half the overshoot and rotates the carrier
    # phase under the correlators.
    pad = max(8, cfg.bit_duration // 2)
    x = np.concatenate([np.zeros(pad), wave.samples, np.zeros(pad)])
    power = x * x
    cum = np.concatenate([[0.0], np.cumsum(power)])
    segments = _active_segments(power, cum, cfg)
    if not segments:
        raise NoSignalError("waveform carries no detectable signal")

    elements: list[FrameElement] = []
    for i, (s, e) in enumerate(segments):
        if i:
            gap = s - segments[i - 1][1]
            elements.append(Pause(_classify_pause(gap, cfg)))
        elements.append(Run(tuple(_decide_bits(x[s:e], cfg))))

    return BitFrame(tuple(elements))


# --- WAV and configuration file round trips -------------------------------

FULL_SCALE = 32767


def write_wav(path: str | Path, wave: Waveform) -> None:
    """Write mono 16-bit PCM; amplitudes are clipped to [-1, 1] first."""
    import wave as wave_mod

    clipped = np.clip(wave.samples, -1.0, 1.0)
    pcm = np.round(clipped * FULL_SCALE).astype("<i2")
    with wave_mod.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wave.sample_rate)
        f.writeframes(pcm.tobytes())


def read_wav(path: str | Path) -> Waveform:
    import wave as wave_mod

    with wave_mod.open(str(path), "rb") as f:
        if f.getnchannels() != 1 or f.getsampwidth() != 2:
            raise ValueError("expected mono 16-bit PCM")
        rate = f.getframerate()
        raw = f.readframes(f.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / FULL_SCALE
    return Waveform(samples, rate)


_INT_FIELDS = ("sample_rate", "bit_duration", "pause_row", "pause_glyph", "pause_message")
_FLOAT_FIELDS = ("carrier_hz", "freq0_hz", "freq1_hz", "amp0", "amp1")


def save_config(cfg: ModemConfig, path: str | Path) -> None:
    lines = [f"scheme = {cfg.scheme}"]
    for name in _INT_FIELDS + _FLOAT_FIELDS:
        lines.append(f"{name} = {getattr(cfg, name)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_config(path: str | Path, **overrides) -> ModemConfig:
    """Read a key = value config file; overrides win over file values."""
    values: dict[str, object] = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalidError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "scheme":
            values[key] = value
        elif key in _INT_FIELDS:
            values[key] = int(value)
        elif key in _FLOAT_FIELDS:
            values[key] = float(value)
        else:
            raise ConfigInvalidError(f"line {ln}: unknown key {key!r}")
    values.update(overrides)
    return ModemConfig(**values)
