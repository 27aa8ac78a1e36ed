"""Tests for the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
from outcome import Outcome  # noqa: E402
from run import declared, metrics_block  # noqa: E402
from stats import MIN_BEYOND, spread, tail_percentile  # noqa: E402


def test_apps_and_models_match_the_program():
    import repro

    assert list(corpus.APPS) == repro.list_apps()
    assert list(corpus.MODELS) == repro.list_models()


def test_same_seed_gives_identical_inputs():
    assert corpus.grid_specs(7) == corpus.grid_specs(7)
    assert corpus.serve_corpus(7) == corpus.serve_corpus(7)


def test_seed_permutes_grid_but_keeps_its_cells():
    one, other = corpus.grid_specs(1), corpus.grid_specs(2)
    assert one != other
    key = lambda spec: (spec["app"], spec["model"])  # noqa: E731
    assert sorted(one, key=key) == sorted(other, key=key)
    assert len(one) == len(corpus.APPS) * len(corpus.MODELS)


def test_different_seed_changes_synth_corpus_and_precached_subset():
    cached_1, jobs_1 = corpus.serve_corpus(1)
    cached_2, jobs_2 = corpus.serve_corpus(2)
    assert {corpus.spec_id(s) for s in cached_1} != {
        corpus.spec_id(s) for s in cached_2}
    light = lambda jobs: {corpus.spec_id(s) for k, s in jobs if k == "light"}  # noqa: E731
    assert light(jobs_1) != light(jobs_2)


def test_serve_mix_is_distinct_and_follows_the_pattern():
    precached, jobs = corpus.serve_corpus(3)
    ids = [corpus.spec_id(spec) for _kind, spec in jobs]
    assert len(ids) == len(set(ids)), "every job must be a distinct cache key"
    cached_ids = {corpus.spec_id(spec) for spec in precached}
    for kind, spec in jobs:
        assert (corpus.spec_id(spec) in cached_ids) == (kind == "cached")
    block = corpus.MIX_BLOCK
    assert [kind for kind, _ in jobs[:2 * len(block)]] == list(block) * 2


def test_reference_covers_every_generated_spec():
    reference = corpus.load_reference()
    specs = list(corpus.grid_specs(0))
    for seed in (0, 1, 99):
        precached, jobs = corpus.serve_corpus(seed)
        specs += precached + [spec for _kind, spec in jobs]
    missing = {corpus.spec_id(s) for s in specs} - set(reference)
    assert not missing


def test_percentile_rule_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 101), 0.90) == 90
    with pytest.raises(ValueError, match="at least 10"):
        tail_percentile(range(1, 100), 0.90)
    assert MIN_BEYOND == 10


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 8) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0


def test_output_check_counts_mismatches_as_failures():
    reference = corpus.load_reference()
    spec = corpus.grid_specs(0)[0]
    outcome = Outcome()
    assert not outcome.check(reference, spec, {"wall_cycles": 1, "stats": {}})
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_exact_count_guard_fails_on_any_difference():
    outcome = Outcome()
    outcome.exact({"sim.cycles": 5}, {"sim.cycles": 5})
    outcome.exact({"sim.cycles": 6}, {"sim.cycles": 5})
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_metrics_block_rejects_undeclared_names():
    with pytest.raises(KeyError):
        metrics_block({"no_such_metric": 1.0}, trace=False)
    with pytest.raises(KeyError):
        metrics_block({"wall_s": 1.0}, trace=False)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["grid-cold", "grid-warm", "serve-closed"])
def test_smoke_run_passes_output_check(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == list(declared(False))
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    result = _run("grid-warm", 1)
    assert result["correct"]
    assert list(result["metrics"]) == list(declared(True))
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == declared(True)
