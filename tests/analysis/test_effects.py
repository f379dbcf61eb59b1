"""The interprocedural effect engine and the rules built on it.

Covers the call-graph/effect-summary fixpoint (transitive writes,
recursion termination, dispatch-table edges), the shard-purity /
state-inventory / entropy-flow rules end to end, the ``--state-report``
artifact, and the contract the whole layer exists to defend: a
*runtime* differential showing that a shard function mutating a module
global really does lose state under ``jobs > 1`` — the bug class FID013
bans statically.
"""

import importlib
import json
import os
import shutil
import sys
import textwrap

from repro.analysis import analyze
from repro.analysis.cli import main
from repro.analysis.project import Project
from repro.common.state_registry import REGISTRY, lookup

FIXTURE_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "fixture_src")
REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def _make_tree(tmp_path, modules):
    """Build a miniature repro tree from {relative path: source}."""
    root = tmp_path / "src"
    pkg = root / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for module_rel, source in modules.items():
        target = pkg / module_rel
        target.parent.mkdir(parents=True, exist_ok=True)
        walk = pkg
        for part in module_rel.split("/")[:-1]:
            walk = walk / part
            init = walk / "__init__.py"
            if not init.exists():
                init.write_text("")
        target.write_text(textwrap.dedent(source))
    return str(root)


def _effects(root):
    return Project.load(root).dataflow.effects


def _copy_live_tree(tmp_path):
    root = str(tmp_path / "src")
    shutil.copytree(
        os.path.join(SRC_ROOT, "repro"), os.path.join(root, "repro"),
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return root


# ------------------------------------------------------- effect summaries

def test_transitive_write_through_helper(tmp_path):
    root = _make_tree(tmp_path, {"eval/mod.py": """\
        _ACC = []


        def _leaf(value):
            _ACC.append(value)


        def _mid(value):
            _leaf(value + 1)


        def top(value):
            _mid(value)
            return value
        """})
    effects = _effects(root)
    for func in ("_leaf", "_mid", "top"):
        summary = effects["repro.eval.mod:%s" % func]
        assert summary.writes_global("_ACC"), func
        assert summary.writes_global("repro.eval.mod:_ACC"), func
    assert not effects["repro.eval.mod:top"].unseeded_rng


def test_recursion_reaches_a_fixpoint(tmp_path):
    # Mutual recursion must terminate and both sides must see the
    # write that only one of them performs directly.
    root = _make_tree(tmp_path, {"eval/mod.py": """\
        _SEEN = set()


        def ping(n):
            if n <= 0:
                return n
            _SEEN.add(n)
            return pong(n - 1)


        def pong(n):
            return ping(n - 1)
        """})
    effects = _effects(root)
    assert effects["repro.eval.mod:ping"].writes_global("_SEEN")
    assert effects["repro.eval.mod:pong"].writes_global("_SEEN")


def test_dispatch_table_edges_propagate_effects(tmp_path):
    # the only call is TABLE[name](...), as in repro.eval's COMMANDS,
    # so without dispatch-table resolution the write would be invisible.
    root = _make_tree(tmp_path, {"eval/mod.py": """\
        _HITS = []


        def _bench_a(n):
            _HITS.append(n)
            return n


        def _bench_b(n):
            return n * 2


        TABLE = {"a": _bench_a, "b": _bench_b}


        def run(name, n):
            return TABLE[name](n)
        """})
    effects = _effects(root)
    assert effects["repro.eval.mod:run"].writes_global("_HITS")


def test_ambient_classification_rng_and_clock(tmp_path):
    root = _make_tree(tmp_path, {"eval/mod.py": """\
        import random
        import time


        def roll():
            return random.random()


        def stamp():
            return time.perf_counter()


        def seeded(seed):
            return random.Random(seed).random()
        """})
    effects = _effects(root)
    assert effects["repro.eval.mod:roll"].unseeded_rng
    assert not effects["repro.eval.mod:roll"].reads_clock
    assert effects["repro.eval.mod:stamp"].reads_clock
    # an explicitly seeded generator is the sanctioned pattern
    assert not effects["repro.eval.mod:seeded"].unseeded_rng


def test_local_named_secrets_is_not_the_secrets_module(tmp_path):
    # Regression: a local list called ``secrets`` must not classify as
    # ambient entropy just because its name collides with the module.
    root = _make_tree(tmp_path, {"eval/mod.py": """\
        def collect(machine):
            secrets = []
            for vm in machine.vms:
                secrets.append(vm.key)
            return secrets
        """})
    summary = _effects(root)["repro.eval.mod:collect"]
    assert not summary.unseeded_rng
    assert not summary.writes_global()


# ------------------------------------------------- the rules on fixtures

def test_fid013_names_the_workunit_site_and_the_global(tmp_path):
    result = analyze(FIXTURE_ROOT, baseline_path=None, select=["FID013"])
    (finding,) = result.findings
    assert finding.module == "repro.eval.bad_shard"
    assert "_RESULTS" in finding.message
    assert "WorkUnit" in finding.line_text


def test_fid014_points_at_the_unregistered_binding():
    result = analyze(FIXTURE_ROOT, baseline_path=None, select=["FID014"])
    (finding,) = result.findings
    assert finding.module == "repro.hw.bad_snapshot_state"
    assert "_TLB_SCRATCH" in finding.message
    assert "state_registry" in finding.message


def test_fid015_sees_through_alias_and_helper():
    result = analyze(FIXTURE_ROOT, baseline_path=None, select=["FID015"])
    (finding,) = result.findings
    assert finding.module == "repro.core.bad_entropy"
    assert "_boot_entropy" in finding.message
    assert "RNG seed" in finding.message
    # every line of the fixture is clean under the syntactic rule: the
    # flow rule is strictly stronger here
    syntactic = analyze(FIXTURE_ROOT, baseline_path=None, select=["FID007"])
    assert "repro.core.bad_entropy" not in {
        f.module for f in syntactic.findings}


def test_registered_reset_acceptance_on_live_crypto(tmp_path, monkeypatch):
    # The keystream caches are written by shard-reachable crypto code;
    # FID013 accepts the writes *because* the bindings are registered
    # with a reset hook.  No live WorkUnit reaches crypto through a call
    # the graph resolves, so the shard here is seeded.  Dropping the
    # registry entries must flip both FID013 (the write becomes
    # unregistered) and FID014 (the binding loses its inventory entry).
    assert lookup("repro.common.crypto", "_line_cache").reset \
        == "clear_keystream_cache"
    root = _copy_live_tree(tmp_path)
    shard = os.path.join(root, "repro", "eval", "seeded_crypto.py")
    with open(shard, "w", encoding="utf-8") as handle:
        handle.write(textwrap.dedent("""\
            from repro.common import crypto
            from repro.runner import WorkUnit, execute


            def _step(seed):
                return crypto.xex_line_encrypt(b"k" * 16, seed << 6, b"x")


            def sweep(seeds):
                units = [WorkUnit.of(s, _step, s) for s in seeds]
                return execute(units).values()
            """))
    rules = ["FID013", "FID014"]
    assert not analyze(root, baseline_path=None, select=rules).findings

    from repro.common import state_registry
    stripped = {key: entry for key, entry in state_registry.REGISTRY.items()
                if key[0] != "repro.common.crypto"}
    monkeypatch.setattr(state_registry, "REGISTRY", stripped)

    broken = analyze(root, baseline_path=None, select=rules)
    fired = {(f.rule_id, f.module) for f in broken.findings}
    assert fired == {("FID013", "repro.eval.seeded_crypto"),
                     ("FID014", "repro.common.crypto")}
    assert all("unregistered" in f.message for f in broken.findings
               if f.rule_id == "FID013")


# --------------------------------------------- live tree + seeded regression

def test_live_tree_is_clean_under_the_effect_rules():
    result = analyze(SRC_ROOT, baseline_path=None,
                     select=["FID013", "FID014", "FID015"])
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)


def test_seeded_global_mutating_shard_function_is_caught(tmp_path):
    root = _copy_live_tree(tmp_path)
    leak = os.path.join(root, "repro", "eval", "seeded_leak.py")
    with open(leak, "w", encoding="utf-8") as handle:
        handle.write(textwrap.dedent("""\
            from repro.runner import WorkUnit, execute

            _CACHE = {}


            def _step(seed):
                _CACHE[seed] = seed * seed
                return _CACHE[seed]


            def sweep(seeds):
                units = [WorkUnit.of(s, _step, s) for s in seeds]
                return execute(units).values()
            """))
    result = analyze(root, baseline_path=None, select=["FID013"])
    assert [f.module for f in result.findings] == ["repro.eval.seeded_leak"]
    assert "_CACHE" in result.findings[0].message


def test_runtime_differential_shard_global_is_silently_dropped(tmp_path):
    # The dynamic counterpart of FID013: run the same leaky shard
    # function serially and under jobs=2.  The *returned* values merge
    # identically, but the module-global accumulator only fills in the
    # serial run — worker-process state never comes home.
    from repro.runner import WorkUnit, execute

    mod_dir = tmp_path / "leakymod_pkg"
    mod_dir.mkdir()
    (mod_dir / "leakymod.py").write_text(textwrap.dedent("""\
        RESULTS = []


        def leaky(seed):
            RESULTS.append(seed * 3)
            return seed * 3
        """))
    sys.path.insert(0, str(mod_dir))
    try:
        leakymod = importlib.import_module("leakymod")
        seeds = [1, 2, 3, 4]

        serial = execute(
            [WorkUnit.of(s, leakymod.leaky, s) for s in seeds], jobs=1)
        assert serial.values() == [3, 6, 9, 12]
        assert leakymod.RESULTS == [3, 6, 9, 12]

        leakymod.RESULTS.clear()
        parallel = execute(
            [WorkUnit.of(s, leakymod.leaky, s) for s in seeds], jobs=2)
        assert parallel.values() == [3, 6, 9, 12]   # merge looks fine...
        assert leakymod.RESULTS == []               # ...the state is gone
    finally:
        sys.path.remove(str(mod_dir))
        sys.modules.pop("leakymod", None)


# ------------------------------------------------------- state inventory

def test_state_registry_covers_every_scoped_mutable():
    from repro.analysis.rules.state_inventory import inventory
    registered, unregistered, stale = inventory(Project.load(SRC_ROOT))
    assert not unregistered
    assert not stale
    assert len(registered) == len(REGISTRY)
    classifications = {(e["module"], e["name"]): e["classification"]
                       for e in registered}
    assert classifications[
        ("repro.common.crypto", "_line_cache")] == "derived-cache"
    assert classifications[
        ("repro.common.crypto", "_key_invalidations")] == "counters"
    assert classifications[
        ("repro.common.types", "PRIV_OPCODES")] == "constant"


def test_fid014_requires_a_reset_on_every_derived_cache(tmp_path,
                                                        monkeypatch):
    # FID013 accepts a shard write to a derived cache only because its
    # reset empties it, and the benchmark calls every reset before a
    # set-up: an entry without one fires where the binding lives
    root = _make_tree(tmp_path, {"common/memo.py": """\
        _MEMO = {}


        def clear_memo():
            _MEMO.clear()
        """})
    from repro.common import state_registry
    entry = ("repro.common.memo", "_MEMO")
    for reset, fired in (("clear_memo", []), (None, ["repro.common.memo"])):
        monkeypatch.setattr(state_registry, "REGISTRY", {
            entry: state_registry.StateEntry(*entry, "derived-cache", reset,
                                             "memo of a pure function")})
        result = analyze(root, baseline_path=None, select=["FID014"])
        assert [f.module for f in result.findings] == fired
    assert "names no reset" in result.findings[0].message
    assert result.findings[0].line_text == "_MEMO = {}"


def test_state_report_cli_artifact(tmp_path, capsys):
    report_path = str(tmp_path / "state.json")
    assert main(["--root", SRC_ROOT, "--state-report", report_path]) == 0
    capsys.readouterr()
    with open(report_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["schema"] == "fidelint-state-report/1"
    assert payload["counts"]["unregistered"] == 0
    assert payload["counts"]["stale"] == 0
    assert payload["counts"]["registered"] == len(REGISTRY)
    resets = {e["name"]: e["reset"] for e in payload["registered"]
              if e["module"] == "repro.common.crypto"}
    assert resets["_line_cache"] == "clear_keystream_cache"
    assert resets["_span_cache"] == "clear_keystream_cache"


def test_state_report_fails_on_unregistered_state(tmp_path, capsys):
    # The fixture tree carries the deliberately anonymous _TLB_SCRATCH.
    report_path = str(tmp_path / "state.json")
    assert main(["--root", FIXTURE_ROOT,
                 "--state-report", report_path]) == 1
    capsys.readouterr()
    with open(report_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    names = {(e["module"], e["name"]) for e in payload["unregistered"]}
    assert ("repro.hw.bad_snapshot_state", "_TLB_SCRATCH") in names

