"""Set-up probe: a fresh interpreter imports glyphwave and completes the
first message of a workload, transmit -> channel -> receive.

    python3 bench/probe.py '<json spec>'   (written by measure.probe_spec)

Exits 0 when the round trip behaves as the spec expects, 1 otherwise.
measure.setup_seconds times whole runs of this script.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import glyphwave.cli  # noqa: E402,F401  (what a command-line user loads)
from glyphwave import ChannelConfig, apply_channel, receive, transmit  # noqa: E402

import workloads as W  # noqa: E402


def main(spec: dict) -> int:
    cfg = W.CONFIGS[spec["workload"]](spec["scheme"])
    wave = transmit(spec["text"], cfg, W.REPETITION)
    if spec["channel"] is not None:
        snr, gain, seed = spec["channel"]
        wave = apply_channel(wave, ChannelConfig(snr_db=snr, gain=gain, seed=seed))
        wave = W.inject(wave, spec["fault"] and tuple(spec["fault"]))
        try:
            receive(wave, cfg)
        except ValueError:
            pass  # a typed rejection is an allowed outcome near the noise cliff
        return 0
    got = receive(wave, cfg).dsl_text
    if got != spec["expected"]:
        print(f"expected {spec['expected']!r}, got {got!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
