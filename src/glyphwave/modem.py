"""Carrier modulation and demodulation for framed bit streams.

Each run bit becomes one fixed-length burst of carrier shaped by the
chosen keying (amplitude, frequency, or phase); each pause becomes a
configured stretch of silence. With a clean channel the round trip is
exact for every scheme.

The receiver decides the whole waveform in one pass and allocates one
waveform-sized array, the bit-slot matrix. It builds no running energy
sum over the waveform: the squared samples summed per block give
the block powers that find every active segment, and short running sums
in rows around each coarse edge give the short-window and confirm-window
powers that refine the edge. Then every segment's bit count, every
silence's pause kind (the nearest configured length within
PAUSE_TOLERANCE) and every bit's matched-filter correlation are decided
together, the bit slots taken as rows of the waveform itself; the first
fault in wire order is raised. Two pause kinds a < b cannot tie: a gap
equidistant from both and within tolerance of both needs b <= 1.8 a, and
the configuration enforces b >= 2 a.

Demodulation assumes the transmit configuration is shared (so phase-shift
keying uses a coherent reference and keeps its documented global sign
ambiguity) and that pauses are no shorter than one bit duration, which
the configuration enforces.

Input is checked where it enters. ModemConfig refuses non-finite tones
and amplitudes, and a Waveform built from a caller's samples refuses
non-finite ones. What this module builds itself is not checked again:
modulate's samples are sines and zeros and read_wav's are int16 PCM over
full scale, all finite, and demodulate's frame holds one decided bit per
slot, at least one bit per run and a configured kind per pause.
"""

from __future__ import annotations

import math
import operator
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .framing import BitFrame, PauseKind

# The frequencies each scheme must fit a whole number of cycles into one bit.
_WHOLE_CYCLES = {"ask": (), "fsk": ("freq0_hz", "freq1_hz"), "psk": ("carrier_hz",)}
SCHEMES = tuple(_WHOLE_CYCLES)

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
        # The sample counts, the int fields, must be integers; numpy integers pass.
        for name in [name for name, kind in _FIELD_TYPES.items() if kind is int]:
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigInvalidError(f"{name} must be an integer, got {value!r}") from None
        if self.sample_rate <= 0:
            raise ConfigInvalidError("sample_rate must be positive")
        if self.bit_duration < 8:
            raise ConfigInvalidError("bit_duration must be at least 8 samples")
        nyquist = self.sample_rate / 2
        for name in ("carrier_hz", "freq0_hz", "freq1_hz"):
            f = getattr(self, name)
            if not (0 < f < nyquist):
                raise ConfigInvalidError(f"{name}={f} must sit between 0 and {nyquist}")
        if self.scheme == "fsk" and self.freq0_hz == self.freq1_hz:
            raise ConfigInvalidError("fsk tones must differ")
        for name in _WHOLE_CYCLES[self.scheme]:
            c = getattr(self, name) * self.bit_duration / self.sample_rate
            if abs(c - round(c)) >= 1e-9 or round(c) < 1:
                raise ConfigInvalidError(
                    f"{name} must fit a whole number of cycles per bit, got {c:g}"
                )
        if self.scheme == "ask":
            if not (math.isfinite(self.amp0) and math.isfinite(self.amp1)):
                raise ConfigInvalidError("amplitudes must be finite")
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
    """Sampled real signal; samples are float64, 1-D, finite.

    Direct construction flattens the samples to float64 and refuses any
    that are not finite. modulate and read_wav use _trusted and skip the
    scan, their samples being finite by construction; so does
    pipeline.apply_channel, after its own check of the output.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform amplitudes must be finite")

    @classmethod
    def _trusted(cls, samples: np.ndarray, sample_rate: int) -> Waveform:
        """The waveform of 1-D float64 samples known to be finite, unchecked."""
        wave = object.__new__(cls)
        wave.samples, wave.sample_rate = samples, sample_rate
        return wave

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
    pause_samples = list(cfg.pause_samples.values())
    # Every run and pause is a whole number of g-sample chunks, so the
    # waveform is one gather of chunk rows: k rows per bit burst and a
    # silent row for every pause chunk. Runs and pauses alternate, runs at
    # the even spans.
    g = math.gcd(cfg.bit_duration, *pause_samples)
    k = cfg.bit_duration // g
    chunks = np.concatenate([_bit_tables(cfg).reshape(2 * k, g), np.zeros((1, g))])
    spans = np.zeros(max(2 * len(frame.run_lengths) - 1, 0), dtype=np.intp)
    spans[0::2] = frame.run_lengths * k
    spans[1::2] = np.array(pause_samples)[frame.pause_kinds] // g
    on = np.repeat(np.arange(len(spans)) % 2 == 0, spans)
    rows = np.full(len(on), 2 * k)
    rows[on] = (frame.bits.astype(np.intp)[:, None] * k + np.arange(k)).reshape(-1)
    # Finite samples: sines scaled by the config's finite amplitudes, and zeros.
    return Waveform._trusted(np.take(chunks, rows, axis=0).reshape(-1), cfg.sample_rate)


def _rows(samples: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """The width samples from each f in first, as the rows of a new array.

    Samples outside the waveform read as silence: the few rows that reach
    past an end are gathered from a clipped start, then rewritten.
    """
    m = len(samples)
    if m < width:
        rows = np.empty((len(first), width))
    else:
        rows = sliding_window_view(samples, width)[np.clip(first, 0, m - width)]
    past = (first < 0) | (first > m - width)
    for r, f in zip(np.flatnonzero(past).tolist(), first[past].tolist()):
        a, b = (min(max(v, 0), m) for v in (f, f + width))
        rows[r] = 0.0
        rows[r, a - f : b - f] = samples[a:b]
    return rows


def _cum_rows(samples: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """Running energy sums over width - 1 samples from each f in first.

    Row r is 0 followed by the running sum of the squares of samples
    first[r], first[r] + 1, ..., so rows[r, b] - rows[r, a] is the energy of
    the b - a samples from first[r] + a: the row of _rows from first[r] - 1
    with that sample set to 0, squared and summed in place. Samples outside
    the waveform read as silence.
    """
    rows = _rows(samples, first - 1, width)
    rows[:, 0] = 0.0
    np.square(rows, out=rows)
    return np.cumsum(rows, axis=1, out=rows)


def _active_segments(samples: np.ndarray, cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coarse power-threshold segmentation with sample-level edge refinement.

    Returns the start and stop sample of every active segment as two arrays.
    An edge may sit up to max(8, bit_duration // 2) samples outside the
    waveform.
    """
    # The waveform is read as if w silent samples lay beyond each end, so
    # edge refinement behaves the same at its ends as between runs;
    # otherwise the recentered slot grid of a boundary run shifts by half
    # the overshoot and rotates the carrier phase under the correlators.
    # Block energies are squares summed per block, and the edge windows
    # come from short running sums in rows around each coarse edge: a
    # running sum over the whole waveform costs about 2.5 times as much per
    # sample as the per-block sums.
    w = max(8, cfg.bit_duration // 2)
    sw = max(2, cfg.bit_duration // 24)
    cw = max(sw, cfg.bit_duration // 4)
    m = len(samples)
    bounds = np.append(np.arange(-w, m + w, w), m + w)
    # Block 0, before the first sample, and the blocks past the last sample
    # are silence, of energy 0; block 1 + j holds the samples from j w. The
    # squares are taken in chunks of whole blocks of about 2**18 samples
    # (2 MB): a whole fast-config message, a quarter of a default-config
    # one. The buffer keeps that size for shorter waveforms: pages it never
    # writes cost nothing, and sizing it to the waveform measured slower on
    # short messages.
    step = w * max(1, 2**18 // w)
    buf = np.empty(step)
    block_e = np.zeros(len(bounds) - 1)
    whole = m - m % w
    for c in range(0, whole, step):
        k = min(step, whole - c)
        np.square(samples[c : c + k], out=buf[:k])
        block_e[1 + c // w : 1 + (c + k) // w] = buf[:k].reshape(-1, w).sum(axis=1)
    np.square(samples[whole:], out=buf[: m - whole])
    block_e[1 + whole // w] = buf[: m - whole].sum()  # the partial last block
    block_p = block_e / np.diff(bounds)

    floor_p = (cfg.peak_amplitude / 20) ** 2
    thr_p = floor_p
    lo, hi = np.percentile(block_p, [5, 90]).tolist()
    # Adaptive threshold only when the power histogram is clearly
    # bimodal; otherwise the configured floor stands (clean signals
    # have lo == 0 and land here as well).
    if hi > 0 and lo < hi / 4:
        thr_p = max(floor_p, math.sqrt(max(lo, 0.0) * hi))

    edges = np.diff(np.concatenate(([0], (block_p > thr_p).astype(np.int8), [0])))

    # Edge refinement pairs a short window (timing precision, overshoot
    # into silence under sw per side, inside the 10 percent drift budget)
    # with a longer confirm window so isolated noise flukes near an edge
    # cannot masquerade as signal onset. Both are tested only inside each
    # edge's search window: [s - w, s + w) for the first sample where both
    # windows starting there are hot, [e - w, e + w] for the last where both
    # windows ending there are. Each edge gets one row of running sums from
    # the first sample its windows read: s - w, or e - w - cw. An edge whose
    # search window holds no hot sample keeps its coarse position.
    s, e = bounds[edges == 1], bounds[edges == -1]
    rows = np.arange(len(s))
    near = _cum_rows(samples, s - w, 2 * w + cw)  # near[:, a] sums [s - w, s - w + a)
    at = near[:, : 2 * w]
    first = ((near[:, sw : sw + 2 * w] - at) / sw > thr_p) & (
        (near[:, cw : cw + 2 * w] - at) / cw > thr_p
    )
    i = first.argmax(axis=1)
    starts = np.where(first[rows, i], s - w + i, s)
    near = _cum_rows(samples, e - w - cw, 2 * w + cw + 1)
    at = near[:, cw:]  # at[:, b] sums [e - w - cw, e - w + b)
    last = ((at - near[:, cw - sw : cw - sw + 2 * w + 1]) / sw > thr_p) & (
        (at - near[:, : 2 * w + 1]) / cw > thr_p
    )
    j = last[:, ::-1].argmax(axis=1)
    stops = np.where(last[rows, 2 * w - j], e + w - j, e)
    keep = stops - starts >= cfg.bit_duration // 2
    return starts[keep], stops[keep]


def demodulate(wave: Waveform, cfg: ModemConfig) -> BitFrame:
    """Recover the bit frame from a waveform produced with the same config.

    Raises ConfigInvalidError when the waveform's sample rate differs from
    the config's, NoSignalError for an all-silent waveform,
    AmbiguousPauseError when a silence length fits no pause kind, and
    DesyncError when an active segment is far from a whole number of bits.
    The first fault in wire order is raised, and its message ends with the
    sample offset where it sits.
    """
    if wave.sample_rate != cfg.sample_rate:
        raise ConfigInvalidError(
            f"waveform is sampled at {wave.sample_rate} Hz, "
            f"config expects {cfg.sample_rate} Hz"
        )
    bd = cfg.bit_duration
    starts, stops = _active_segments(wave.samples, cfg)
    if not len(starts):
        raise NoSignalError("waveform carries no detectable signal")

    lengths = stops - starts
    nbits = np.maximum(1, np.rint(lengths / bd).astype(np.intp))
    # Drift tolerance accumulates over the run: 10 percent of its nominal
    # duration, not of a single bit.
    desync = np.abs(lengths - nbits * bd) > 0.1 * nbits * bd
    gaps = starts[1:] - stops[:-1]
    durs = np.array(list(cfg.pause_samples.values()))
    dist = np.abs(gaps[:, None] - durs)
    fits = dist <= PAUSE_TOLERANCE * durs
    # Nearest kind among those within tolerance. No tie is possible: kinds
    # a < b both within tolerance of an equidistant gap need
    # (b - a) / 2 <= PAUSE_TOLERANCE * a, i.e. b <= 1.8 a, and ModemConfig
    # enforces b >= 2 a.
    kinds = np.where(fits, dist, np.inf).argmin(axis=1)

    # Wire order: run i is element 2i, the pause after it element 2i + 1.
    faults = np.concatenate(
        [2 * np.flatnonzero(desync), 2 * np.flatnonzero(~fits.any(axis=1)) + 1]
    )
    if len(faults):
        k = int(faults.min())
        i = k // 2
        if k % 2:
            at = max(int(stops[i]), 0)
            raise AmbiguousPauseError(
                f"silence of {gaps[i]} samples matches no configured pause at sample {at}"
            )
        at = max(int(starts[i]), 0)
        raise DesyncError(
            f"segment of {lengths[i]} samples is not close to {nbits[i]} bits at sample {at}"
        )

    # Center each run's nominal-length slot grid in its measured segment
    # (halving the excess toward zero) so edge estimation bias cancels
    # instead of rotating the carrier reference. Grid samples outside the
    # segment, and outside the waveform, read as silence. Past the desync
    # check |excess| <= bd / 2, so only a run shorter than its grid has
    # such samples: the first |excess| // 2 of its first slot and the last
    # |excess| - |excess| // 2 of its last slot.
    excess = lengths - nbits * bd
    grid = starts + np.sign(excess) * (np.abs(excess) // 2)
    ends = np.cumsum(nbits)
    run = np.repeat(np.arange(len(starts)), nbits)
    pos = grid[run] + (np.arange(len(run)) - (ends - nbits)[run]) * bd
    slots = _rows(wave.samples, pos, bd)
    short = excess < 0
    cut = -excess[short]
    cols = np.arange(bd)
    first, last = (ends - nbits)[short], ends[short] - 1
    slots[first] = np.where(cols < (cut // 2)[:, None], 0.0, slots[first])
    slots[last] = np.where(cols >= bd - (cut - cut // 2)[:, None], 0.0, slots[last])

    t = np.arange(bd) / cfg.sample_rate
    if cfg.scheme == "ask":
        np.square(slots, out=slots)
        bits = np.mean(slots, axis=1) > (cfg.amp0**2 + cfg.amp1**2) / 4
    elif cfg.scheme == "fsk":
        mags = []
        for f in (cfg.freq0_hz, cfg.freq1_hz):
            c = slots @ np.cos(2 * np.pi * f * t)
            s = slots @ np.sin(2 * np.pi * f * t)
            mags.append(c * c + s * s)
        bits = mags[1] > mags[0]
    else:
        bits = slots @ np.sin(2 * np.pi * cfg.carrier_hz * t) < 0

    # Every run has nbits >= 1 decided bits, and every gap a kind (no fit raised above).
    return BitFrame._trusted(bits.view(np.uint8), nbits, kinds.astype(np.int8))


# --- WAV and configuration file round trips -------------------------------

FULL_SCALE = 32767


def write_wav(path: str | Path, wave: Waveform) -> None:
    """Write mono 16-bit PCM; amplitudes are clipped to [-1, 1] first."""
    import wave as wave_mod

    clipped = np.clip(wave.samples, -1.0, 1.0)
    pcm = np.round(clipped * FULL_SCALE).astype("<i2")
    # An open file, not a path: wave.open leaves a half-built writer that
    # complains at garbage collection when it cannot create the file itself.
    with open(path, "wb") as fh, wave_mod.open(fh, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wave.sample_rate)
        f.writeframes(pcm.tobytes())


def read_wav(path: str | Path) -> Waveform:
    """Read mono 16-bit PCM; an unreadable or truncated WAV file is a ValueError."""
    import wave as wave_mod

    try:
        with wave_mod.open(str(path), "rb") as f:
            if f.getnchannels() != 1 or f.getsampwidth() != 2:
                raise ValueError("expected mono 16-bit PCM")
            rate = f.getframerate()
            raw = f.readframes(f.getnframes())
    except (EOFError, wave_mod.Error) as err:
        detail = str(err) or "file ends early"
        raise ValueError(f"cannot read {path} as a WAV file: {detail}") from err
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= FULL_SCALE
    return Waveform._trusted(samples, rate)  # int16 over full scale is finite


# The config file's keys and value types, in declaration order.
_FIELD_TYPES = typing.get_type_hints(ModemConfig)


def save_config(cfg: ModemConfig, path: str | Path) -> None:
    Path(path).write_text("".join(f"{name} = {getattr(cfg, name)}\n" for name in _FIELD_TYPES))


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
        if key not in _FIELD_TYPES:
            raise ConfigInvalidError(f"line {ln}: unknown key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError:
            kind = "an integer" if _FIELD_TYPES[key] is int else "a number"
            raise ConfigInvalidError(f"line {ln}: {key} must be {kind}, got {value!r}") from None
    values.update(overrides)
    return ModemConfig(**values)
