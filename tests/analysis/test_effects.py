"""The effect summaries and the rules built on them.

Covers the state-inventory and entropy-flow rules end to end, the
ambient-source classification FID015 rests on (a helper's RNG draw or
clock read, a seeded generator, a local that merely shares a module's
name), and the ``--state-report`` artifact.
"""

import json
import os
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


def _entropy_flows(tmp_path, source):
    """FID015's messages on a one-module tree under ``core/``."""
    root = _make_tree(tmp_path, {"core/mod.py": source})
    result = analyze(root, baseline_path=None, select=["FID015"])
    return sorted(f.message for f in result.findings)


# ----------------------------------------------- ambient classification

def test_ambient_classification_rng_and_clock(tmp_path):
    # a helper's module-level random draw and its clock read are both
    # entropy once stored into simulation state; an explicitly seeded
    # generator is the sanctioned pattern
    assert _entropy_flows(tmp_path, """\
        import random
        import time


        def roll():
            return random.random()


        def stamp():
            return time.perf_counter()


        def seeded(seed):
            return random.Random(seed).random()


        class Probe:
            def sample(self, seed):
                self.rolled = roll()
                self.stamped = stamp()
                self.seeded = seeded(seed)
        """) == [
        "ambient entropy (return of roll()) reaches simulation state "
        "(self.rolled) in repro.core.mod:Probe.sample",
        "ambient entropy (return of stamp()) reaches simulation state "
        "(self.stamped) in repro.core.mod:Probe.sample",
    ]


def test_local_named_secrets_is_not_the_secrets_module(tmp_path):
    # Regression: a local called ``secrets`` must not classify as
    # ambient entropy just because its name collides with the module,
    # even when a call on it is stored into simulation state.
    assert _entropy_flows(tmp_path, """\
        class Vault:
            def open(self, store):
                secrets = store.keys()
                self.first = secrets.pop()
        """) == []


# ------------------------------------------------- the rules on fixtures

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


def test_registered_reset_acceptance_on_live_crypto(monkeypatch):
    # The keystream caches are process-global state a pooled worker
    # keeps warm; FID014 accepts them *because* the bindings are
    # registered with a reset hook.  Dropping the registry entries must
    # flip FID014: every crypto binding loses its inventory entry.
    assert lookup("repro.common.crypto", "_line_cache").reset \
        == "clear_keystream_cache"
    rules = ["FID014"]
    assert not analyze(SRC_ROOT, baseline_path=None, select=rules).findings

    from repro.common import state_registry
    stripped = {key: entry for key, entry in state_registry.REGISTRY.items()
                if key[0] != "repro.common.crypto"}
    monkeypatch.setattr(state_registry, "REGISTRY", stripped)

    broken = analyze(SRC_ROOT, baseline_path=None, select=rules)
    assert {f.module for f in broken.findings} == {"repro.common.crypto"}
    assert all("not in the module-state registry" in f.message
               for f in broken.findings)
    assert any("'_line_cache'" in f.message for f in broken.findings)


# ------------------------------------------------------------ live tree

def test_live_tree_is_clean_under_the_effect_rules():
    result = analyze(SRC_ROOT, baseline_path=None,
                     select=["FID014", "FID015"])
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)


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
    # a reused worker may keep a derived cache only because its reset
    # empties it, and the pool's serial differential and the benchmark
    # call every reset: an entry without one fires where the binding
    # lives
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

