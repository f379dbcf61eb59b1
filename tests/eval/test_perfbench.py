"""Smoke tests for ``repro.eval.perfbench`` at CI sizes.

These do not assert speedup ratios — quick sizes on shared CI boxes
are too noisy for that.  They assert the things that must never be
flaky: the report schema, the in-run equivalence flags (the benches
themselves raise if the fast path diverges from the reference twin),
and the ``--json`` artifact contract that ``BENCH_simulator.json``
consumers rely on.

The module runs the quick benches once; the CLI test reads that
report instead of running them again.
"""

import copy
import json
import os

import pytest

from repro.eval import perfbench

BENCH_NAMES = ("keystream", "enc_rw_mix", "walker_tlb", "guest_macro")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def report():
    return perfbench.run_all(quick=True)


def test_run_all_quick_schema(report):
    assert report["schema"] == perfbench.SCHEMA
    assert report["quick"] is True
    assert set(report["benchmarks"]) == set(BENCH_NAMES)
    for name in ("keystream", "enc_rw_mix", "guest_macro"):
        bench = report["benchmarks"][name]
        assert bench["optimized_s"] > 0
        assert bench["reference_s"] > 0
        assert bench["speedup"] > 0
    assert report["benchmarks"]["walker_tlb"]["per_translation_us"] > 0
    # the benches assert equivalence internally; the flags record it
    assert report["benchmarks"]["enc_rw_mix"]["equivalent"] is True
    assert report["benchmarks"]["guest_macro"]["digest_equal"] is True
    assert report["benchmarks"]["guest_macro"]["cycles_equal"] is True
    # counters come from the macro run's fast path
    assert "keystream_cache" in report["counters"]
    assert "memctrl" in report["counters"]
    assert "tlb" in report["counters"]
    # schema/2: the sharding section carries cross-machine context
    sharding = report["sharding"]
    assert sharding["jobs"] == 1
    assert sharding["host_cpus"] >= 1
    assert sharding["wall_s"] > 0
    assert [s["key"] for s in sharding["shards"]] == list(BENCH_NAMES)
    assert all(s["ok"] and s["elapsed_s"] > 0 for s in sharding["shards"])


def test_format_report_mentions_every_bench(report):
    text = perfbench.format_report(report)
    for name in BENCH_NAMES:
        assert name in text


def test_cli_json_artifact(report, monkeypatch, tmp_path, capsys):
    calls = []

    def run_all(quick=False, jobs=1, only=None):
        calls.append((quick, jobs, only))
        return copy.deepcopy(report)

    monkeypatch.setattr(perfbench, "run_all", run_all)
    out = tmp_path / "BENCH_simulator.json"
    rc = perfbench.main(["--quick", "--json", "--out", str(out)])
    assert rc == 0
    assert calls == [(True, 1, None)]
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == perfbench.SCHEMA
    assert set(on_disk["benchmarks"]) == set(BENCH_NAMES)
    # stdout carries the same JSON for log scraping
    printed = json.loads(capsys.readouterr().out)
    assert printed == on_disk


def _key_paths(node, path=()):
    """Every nested key path of a JSON value; list items share ``[]``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list):
        for item in node:
            yield from _key_paths(item, path + ("[]",))
    else:
        yield path


def test_committed_artifact_has_the_report_keys(report):
    """``BENCH_simulator.json`` carries exactly the keys a run reports,
    so a counter the code no longer keeps cannot linger in it.
    Regenerate with ``python -m repro.eval.perfbench --json --out
    BENCH_simulator.json``."""
    with open(os.path.join(REPO_ROOT, "BENCH_simulator.json")) as handle:
        committed = json.load(handle)
    fresh = json.loads(json.dumps(report))
    assert set(_key_paths(committed)) == set(_key_paths(fresh))
