"""Tests of the content-addressed result store and sweep manifests."""

import json
import os

import pytest

from repro.fabric.store import (
    CORRUPT_SUFFIX,
    ResultStore,
    SweepManifest,
    canonical_params,
    entry_digest,
)

ROWS = [{"value": 1.5, "label": "a"}, {"value": 2.5, "label": "b"}]


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


# ------------------------------------------------------------- addressing

def test_entry_digest_is_stable_and_param_order_free():
    forward = entry_digest("toy@v1", {"a": 1, "b": 2}, 7)
    backward = entry_digest("toy@v1", {"b": 2, "a": 1}, 7)
    assert forward == backward
    assert forward != entry_digest("toy@v1", {"a": 1, "b": 2}, 8)
    assert forward != entry_digest("toy@v2", {"a": 1, "b": 2}, 7)


def test_canonical_params_sorts_keys_compactly():
    assert canonical_params({"b": 2, "a": 1}) == '{"a":1,"b":2}'


def test_same_content_same_path_across_instances(tmp_path, store):
    first = store.put("toy@v1", {"x": 1}, 3, ROWS)
    twin = ResultStore(store.directory)
    assert twin.get("toy@v1", {"x": 1}, 3) == ROWS
    assert twin.put("toy@v1", {"x": 1}, 3, ROWS) == first


# -------------------------------------------------------------- get / put

def test_roundtrip_and_counters(store):
    assert store.get("toy@v1", {"x": 1}, 0) is None
    assert store.misses == 1
    store.put("toy@v1", {"x": 1}, 0, ROWS)
    assert store.get("toy@v1", {"x": 1}, 0) == ROWS
    assert store.hits == 1
    assert store.contains("toy@v1", {"x": 1}, 0)
    assert not store.contains("toy@v1", {"x": 2}, 0)


def test_put_is_atomic_no_tmp_left_behind(store):
    path = store.put("toy@v1", {"x": 1}, 0, ROWS)
    folder = os.path.dirname(path)
    assert not [name for name in os.listdir(folder)
                if name.endswith(".tmp")]


def test_corrupt_entry_is_quarantined_then_recomputed(store):
    path = store.put("toy@v1", {"x": 1}, 0, ROWS)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"rows": [truncated')
    assert store.get("toy@v1", {"x": 1}, 0) is None
    assert store.quarantined == 1
    assert os.path.exists(path + CORRUPT_SUFFIX)
    assert not os.path.exists(path)
    # the slot is free again: a recompute re-populates it cleanly
    store.put("toy@v1", {"x": 1}, 0, ROWS)
    assert store.get("toy@v1", {"x": 1}, 0) == ROWS


def test_foreign_shape_is_a_miss_without_quarantine(store):
    path = store.put("toy@v1", {"x": 1}, 0, ROWS)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"some": "other format"}, handle)
    assert store.get("toy@v1", {"x": 1}, 0) is None
    assert store.quarantined == 0
    assert os.path.exists(path)  # left in place — it is valid JSON


def test_verify_roundtrip_probe_leaves_no_trace(store):
    assert store.verify_roundtrip() is True
    assert not os.path.exists(os.path.join(store.directory,
                                           "_doctor_probe@v0"))


# ------------------------------------------------------------- stats / gc

def _corrupt(store, experiment, params, seed):
    path = store.put(experiment, params, seed, ROWS)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("garbage")
    assert store.get(experiment, params, seed) is None  # quarantines
    return path + CORRUPT_SUFFIX


def test_stats_counts_entries_corrupt_and_orphans(store):
    store.put("toy@v1", {"x": 1}, 0, ROWS)
    store.put("toy@v1", {"x": 2}, 0, ROWS)
    store.put("other@v3", {"y": 1}, 1, ROWS)
    _corrupt(store, "toy@v1", {"x": 3}, 0)
    # an orphan: entry content that no longer matches its address
    orphan = os.path.join(store.directory, "toy@v1", "0" * 64 + ".json")
    with open(orphan, "w", encoding="utf-8") as handle:
        json.dump({"experiment": "toy@v1", "params": {"x": 9},
                   "seed": 0, "rows": ROWS}, handle)
    stats = store.stats()
    assert stats.entries == 4  # the orphan still parses as an entry
    assert stats.corrupt == 1
    assert stats.orphans == 1
    assert stats.experiments["toy@v1"]["entries"] == 3
    assert stats.experiments["other@v3"]["entries"] == 1
    assert stats.bytes > 0
    assert stats.to_dict()["corrupt"] == 1


def test_gc_removes_corrupt_tmp_orphans_and_stale_versions(store):
    keep = store.put("toy@v2", {"x": 1}, 0, ROWS)
    stale = store.put("toy@v1", {"x": 1}, 0, ROWS)
    unknown = store.put("mystery@v9", {"x": 1}, 0, ROWS)
    corrupt = _corrupt(store, "toy@v2", {"x": 2}, 0)
    leftover = os.path.join(store.directory, "toy@v2", "whatever.json.tmp")
    with open(leftover, "w", encoding="utf-8") as handle:
        handle.write("partial write")

    dry = store.gc(keep_versions={"toy": 2}, dry_run=True)
    assert sorted(dry) == sorted([stale, corrupt, leftover])
    assert os.path.exists(stale)  # dry run removed nothing

    removed = store.gc(keep_versions={"toy": 2})
    assert sorted(removed) == sorted(dry)
    assert os.path.exists(keep)
    assert os.path.exists(unknown)  # unknown experiments are left alone
    assert not os.path.exists(stale)
    assert not os.path.exists(os.path.dirname(stale))  # emptied dir pruned
    assert not os.path.exists(corrupt)
    assert not os.path.exists(leftover)


# -------------------------------------------------------------- manifests

def _manifest():
    digests = [entry_digest("toy@v1", {"x": value}, seed)
               for value in (1, 2) for seed in (10, 11)]
    return SweepManifest(experiment="toy@v1", master_seed=0, replications=2,
                         task_digests=digests)


def test_manifest_roundtrip_and_missing(store):
    manifest = _manifest()
    manifest.completed = manifest.task_digests[:2]
    path = store.save_manifest(manifest)
    assert os.path.exists(path)
    loaded = store.load_manifest(manifest.sweep_digest())
    assert loaded is not None
    assert loaded.task_digests == manifest.task_digests
    assert loaded.status == "running"
    assert loaded.requested == 4
    assert loaded.missing() == manifest.task_digests[2:]
    assert loaded.sweep_digest() == manifest.sweep_digest()


def test_manifest_digest_depends_on_task_identity():
    base, other = _manifest(), _manifest()
    other.master_seed = 1
    assert base.sweep_digest() != other.sweep_digest()
    reordered = _manifest()
    reordered.task_digests = list(reversed(reordered.task_digests))
    assert base.sweep_digest() != reordered.sweep_digest()
    # completion marks do NOT change the identity — resume must find it
    marked = _manifest()
    marked.completed = marked.task_digests[:1]
    assert base.sweep_digest() == marked.sweep_digest()


def test_load_manifest_missing_or_corrupt_is_none(store):
    assert store.load_manifest("0" * 64) is None
    manifest = _manifest()
    path = store.save_manifest(manifest)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json")
    assert store.load_manifest(manifest.sweep_digest()) is None

