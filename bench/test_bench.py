"""Self-tests of the benchmark: inputs, faults, tracing and the metric contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import glyphwave  # noqa: E402
import measure  # noqa: E402
import workloads as W  # noqa: E402
from tracing import LayerStats, Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _trials(workload, seed=7):
    return W.build_trials(workload, seed)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert _trials(workload) == _trials(workload)
    if workload != "wide-clean":
        assert _trials(workload, 7) != _trials(workload, 8)


def test_dense_pass_covers_every_token_kind_at_fixed_size():
    trials = _trials("dense-clean")
    tokens = {tok for t in trials for tok in t.text.split()}
    for kind in ("vector", "vector@p", "form", "form@p", "spacetime", "em", "riemann"):
        assert kind in tokens
    for prefix in ("tensor(", "affinity("):
        assert any(tok.startswith(prefix) and not tok.endswith("@p") for tok in tokens)
    assert any(tok.startswith("tensor(") and tok.endswith("@p") for tok in tokens)
    assert len({t.samples for t in trials if t.scheme == "fsk"}) == 1


def test_em_collision_is_kept_and_read_as_em():
    assert W.expected_reading(W.EM_COLLISION) == "em"
    collided = _trials("dense-clean")[1]
    assert "tensor(0,2) form tensor(0,2)" in collided.text
    assert collided.expected.count("em") > collided.text.count("em")
    cfg = W.noisy_config("fsk")
    wave = glyphwave.transmit("tensor(0,2) form tensor(0,2)", cfg, 1)
    assert glyphwave.receive(wave, cfg).dsl_text == "em"


def test_duration_law_matches_transmit():
    for trial in _trials("dense-clean")[:3] + _trials("noisy-fast")[:3]:
        wave = glyphwave.transmit(trial.text, trial.cfg, W.REPETITION)
        assert len(wave.samples) == trial.samples


def test_fault_injector_touches_only_its_target_copy():
    trials = _trials("noisy-fast")
    faulted = [t for t in trials if t.fault is not None]
    assert {t.fault[0] for t in faulted} == set(W.FAULTS)
    for trial in faulted:
        clean = glyphwave.transmit("em", trial.cfg, W.REPETITION)
        hurt = W.inject(clean, trial.fault).samples
        copies = W.copy_spans(clean.samples, trial.cfg)
        assert len(copies) == W.REPETITION
        kind, start, stop = trial.fault
        if kind == "truncate":
            assert len(hurt) == start and start > copies[-1][0]
            continue
        changed = np.flatnonzero(hurt != clean.samples)
        assert len(changed) > 0
        (c0, c1), = [c for c in copies if c[0] <= start < c[1]]
        assert c0 <= changed.min() and changed.max() < c1


def _subset(workload):
    trials = _trials(workload)
    if workload == "noisy-fast":
        sure = next(t for t in trials if t.scheme == "fsk" and t.point == "snr10")
        return [t for t in trials if t.fault][:3] + [sure] + [t for t in trials if not t.fault][:2]
    return trials[:3]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_decodes_what_untraced_run_decodes(workload):
    trials = _subset(workload)
    plain = measure.run_passes(trials, 0)
    tracer, stats = Tracer(), LayerStats()
    with tracer.installed():
        traced = measure.run_passes(trials, 0, tracer=tracer, stats=stats)
    assert traced.outcomes == plain.outcomes
    assert glyphwave.receive is glyphwave.pipeline.receive  # wrappers removed
    names = {s[0] for s in tracer.spans}
    assert {"pipeline.transmit", "pipeline.receive", "modem.demodulate"} <= names


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_metric_has_its_unit_on_every_workload(workload):
    spec_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    spec_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    trials = _subset(workload)
    tracer, stats = Tracer(), LayerStats()
    with tracer.installed():
        run = measure.run_passes(trials, 0, tracer=tracer, stats=stats)
    layer = measure.layer_metrics(stats, run, 0.0)
    assert {k: v["unit"] for k, v in layer.items()} == spec_layer
    plain = measure.run_passes(trials, 0)
    e2e = measure.end_to_end_metrics(plain, 1.0)
    assert {k: v["unit"] for k, v in e2e.items()} == spec_e2e
    assert all(v["value"] > 0 for v in e2e.values())


def test_golden_frames_and_setup_probe():
    measure.check_golden()
    trial = next(t for t in _trials("noisy-fast") if t.fault is not None)
    assert measure.setup_seconds("noisy-fast", trial, probes=1) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "wide-clean", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
