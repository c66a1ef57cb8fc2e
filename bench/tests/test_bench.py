"""Tests of the benchmark itself: corpus generator, tracer arithmetic and a
tiny smoke run of every workload.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on the path)
from corpora import corpus_stats, generate  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

DENSE = run.WORKLOADS["dense-history"].spec


def test_generator_is_deterministic_per_seed():
    a, b, c = generate(DENSE, 7), generate(DENSE, 7), generate(DENSE, 8)
    assert np.array_equal(a.quads, b.quads)
    assert (a.train_end, a.valid_end) == (b.train_end, b.valid_end)
    assert not np.array_equal(a.quads, c.quads)


def test_icews14_has_the_stated_shape():
    spec = run.WORKLOADS["icews14"].spec
    store = generate(spec, 3)
    stats = corpus_stats(store)
    assert (stats["entities"], stats["relations"], stats["timestamps"]) == (7128, 230, 365)
    assert (stats["train"], stats["valid"], stats["test"]) == \
        (spec.n_train, spec.n_valid, spec.n_test)
    n_new = round(spec.new_share * spec.n_test)
    assert stats["test_new_share"] * spec.n_test == pytest.approx(n_new)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["a", 0, 3.5, 6.0],     # overlaps the first child: union is [1, 6]
        ["b", 0, 7.0, 8.0],
        ["other", -1, 20.0, 21.0],
    ]
    out = self_times(spans)
    assert out["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert out["a"] == pytest.approx((3.0 - 1.0) + 2.5)
    assert out["b"] == pytest.approx(2.0)
    assert out["other"] == pytest.approx(1.0)
    assert set(self_times(spans, root=1)) == {"a", "b"}
    assert self_times(spans, root=1)["a"] == pytest.approx(2.0)


def test_tracer_wraps_by_name_records_parents_and_restores():
    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod = types.ModuleType("fake")
    mod.leaf, mod.outer = leaf, outer
    other = types.ModuleType("other")
    other.leaf = leaf                       # imported by name elsewhere
    tracer = Tracer()
    wrapped = tracer.install({"fake": mod, "other": other},
                             {"fake.leaf": lambda a, k, r: {"seen": a[0]},
                              "fake.outer": None, "fake.gone": None,
                              "missing.fn": None})
    assert wrapped == ["fake.leaf", "fake.outer"]
    assert other.leaf is not leaf
    assert mod.outer(3) == 8
    tracer.uninstall()
    assert (mod.leaf, mod.outer, other.leaf) == (leaf, outer, leaf)
    names = [s[0] for s in tracer.spans]
    assert names == ["fake.outer", "fake.leaf"]
    assert tracer.spans[1][1] == 0
    assert tracer.counts == {"fake.outer.calls": 1, "fake.leaf.calls": 1,
                             "fake.leaf.seen": 3}


def _tiny(workload):
    spec = dataclasses.replace(workload.spec, n_entities=60, n_relations=5,
                               n_train=96, n_valid=min(workload.spec.n_valid, 8),
                               n_test=8, n_pairs=6)
    config = {**workload.config, "d_dpcl": 8, "d_diff": 8, "steps": 4}
    return dataclasses.replace(workload, spec=spec, config=config)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    manifest = run.load_manifest()
    result = run.run_workload(_tiny(run.WORKLOADS[name]), seed=5, seconds=0,
                              trace=trace, manifest=manifest)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(wanted)
    if trace:
        counts = result["metrics"]
        diffusion = counts["gndiff.denoise_x0_batch.rows"]["value"]
        assert (diffusion == 0) == ("no_gndiff" in run.WORKLOADS[name].config)
        assert counts["numkit.Tensor.init.calls"]["value"] > 0
        assert (tmp_path / f"trace-{name}.jsonl").exists()


@pytest.mark.parametrize("stage", ["train", "evaluate_split"])
def test_numeric_error_counts_as_failed_without_aborting(stage, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise run.NumericError("injected")

    module = run.engine if stage == "train" else run.evaluate
    monkeypatch.setattr(module, stage, boom)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # no valid split, so training itself never calls evaluate_split
    workload = _tiny(run.WORKLOADS["icews14-dpcl"])
    result = run.run_workload(workload, seed=5, seconds=0, trace=False,
                              manifest=run.load_manifest())
    assert not result["correct"]
    n_test = workload.spec.n_test
    expected = result["attempted"] if stage == "train" else n_test
    assert result["failed"] == expected
    assert any("injected" in p for p in result["problems"])
