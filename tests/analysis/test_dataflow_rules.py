"""End-to-end tests for the flow-sensitive rules (FID010–FID012).

The headline test seeds the exact bug class the syntactic rules cannot
see — an ``_exit`` moved off one path of a live gate — and checks that
FID011 catches it while FID002/FID004 stay green.  The rest covers
taint through helper calls, gates opened inside handlers, the shared
CFG cache and the parse-each-module-once guarantee.
"""

import ast
import os
import shutil
import textwrap

from repro.analysis import analyze
from repro.analysis.project import Project

FIXTURE_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "fixture_src")
REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _make_tree(tmp_path, module_rel, source):
    root = tmp_path / "src"
    pkg = root / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "__init__.py").write_text("")
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


def _copy_live_tree(tmp_path):
    live_src = os.path.join(REPO_ROOT, "src")
    root = str(tmp_path / "src")
    shutil.copytree(
        os.path.join(live_src, "repro"), os.path.join(root, "repro"),
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return root


# ------------------------------------------------ the seeded live-tree bug

def test_fid011_catches_exit_moved_off_the_normal_path(tmp_path):
    """Move ``_exit`` from the ``finally`` of a live gate onto one
    handler only: the call is still textually present, so FID002 (who
    calls the mutators) and FID004 (is there a charge in the body) both
    still pass — only the path-complete typestate check fails."""
    root = _copy_live_tree(tmp_path)
    gates_py = os.path.join(root, "repro", "core", "gates.py")
    with open(gates_py, "r", encoding="utf-8") as handle:
        source = handle.read()
    balanced = ('        finally:\n'
                '            self._exit("cr3-switch")')
    seeded = ('        except GateViolation:\n'
              '            self._exit("cr3-switch")\n'
              '            raise')
    assert balanced in source, "seed target changed; update the test"
    with open(gates_py, "w", encoding="utf-8") as handle:
        handle.write(source.replace(balanced, seeded))

    syntactic = analyze(root, select=["FID002", "FID004"])
    assert not syntactic.findings, "\n".join(
        f.render() for f in syntactic.findings)

    flow = analyze(root, select=["FID011"])
    assert [f.module for f in flow.findings] == ["repro.core.gates"]
    assert "cr3-switch" in flow.findings[0].message


def test_live_tree_is_clean_under_the_dataflow_rules():
    result = analyze(os.path.join(REPO_ROOT, "src"),
                     select=["FID010", "FID011", "FID012"])
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)
    # exactly one justified inline suppression: the DEC instruction's
    # below-the-boundary DMA write in repro.core.hwext
    assert [f.module for f in result.suppressed] == ["repro.core.hwext"]


# ------------------------------------------------------------------- FID010

def test_fid010_tracks_taint_through_a_helper_call(tmp_path):
    root = _make_tree(tmp_path, "sev/helper_leak.py", """\
        def _unwrap(crypto, key, blob):
            return crypto.xex_decrypt(key, b"t", blob)


        def publish(crypto, wire, key, blob):
            plain = _unwrap(crypto, key, blob)
            wire.send(plain)
        """)
    result = analyze(root, select=["FID010"])
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.module == "repro.sev.helper_leak"
    assert "_unwrap" in finding.message


def test_fid010_sanctioned_flow_is_clean(tmp_path):
    root = _make_tree(tmp_path, "sev/helper_ok.py", """\
        def _unwrap(crypto, key, blob):
            return crypto.xex_decrypt(key, b"t", blob)


        def publish(crypto, wire, key, wrap_key, blob):
            plain = _unwrap(crypto, key, blob)
            wire.send(crypto.xex_encrypt(wrap_key, b"t", plain))
        """)
    result = analyze(root, select=["FID010"])
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)


def test_fid010_branch_merges_keep_the_tainted_path(tmp_path):
    root = _make_tree(tmp_path, "sev/branchy.py", """\
        def stage(crypto, memory, key, blob, fast):
            data = b""
            if fast:
                data = crypto.xex_decrypt(key, b"t", blob)
            memory.write(0x1000, data)
        """)
    result = analyze(root, select=["FID010"])
    assert len(result.findings) == 1


def test_fid010_reassignment_kills_taint(tmp_path):
    root = _make_tree(tmp_path, "sev/rebound.py", """\
        def stage(crypto, memory, key, blob):
            data = crypto.xex_decrypt(key, b"t", blob)
            data = b"ciphertext-placeholder"
            memory.write(0x1000, data)
        """)
    result = analyze(root, select=["FID010"])
    assert not result.findings


# ------------------------------------------------------------------- FID011

def test_fid011_gate_opened_only_in_a_handler(tmp_path):
    root = _make_tree(tmp_path, "core/handler_gate.py", """\
        def recover(gatekeeper, table):
            try:
                table.apply()
            except ValueError:
                gatekeeper._enter("type3")
                table.fix()
        """)
    result = analyze(root, select=["FID011"])
    assert len(result.findings) == 1
    assert "type3" in result.findings[0].message


def test_fid011_with_managed_gate_is_balanced_by_construction(tmp_path):
    root = _make_tree(tmp_path, "core/with_gate.py", """\
        def update(gatekeeper, table, key, value):
            with gatekeeper.type1():
                table.apply(key, value)
        """)
    result = analyze(root, select=["FID011"])
    assert not result.findings


def test_fid011_obligation_passes_through_an_opening_helper(tmp_path):
    root = _make_tree(tmp_path, "core/split_gate.py", """\
        def _arm(gatekeeper):
            gatekeeper._enter("type1")


        def update(gatekeeper, table):
            _arm(gatekeeper)
            table.apply()
        """)
    result = analyze(root, select=["FID011"])
    # _arm leaves its gate open by design (summary: opens_gate), so the
    # caller inherits the unmet obligation: one finding per function
    modules = sorted(f.module for f in result.findings)
    assert modules == ["repro.core.split_gate", "repro.core.split_gate"]


# ------------------------------------------------------------------- FID012

def test_fid012_raise_paths_are_free(tmp_path):
    root = _make_tree(tmp_path, "hw/guarded.py", """\
        class Dev:
            def poke(self, key):
                if key is None:
                    raise ValueError("no key")
                self.cycles.charge(10, "poke")
                self._state[key] = 1
        """)
    result = analyze(root, select=["FID012"])
    assert not result.findings


def test_fid012_fast_path_store_without_charge_fires(tmp_path):
    root = _make_tree(tmp_path, "hw/fastpath.py", """\
        class Dev:
            def poke(self, key):
                if key in self._state:
                    self._state[key] += 1
                    return
                self.cycles.charge(10, "poke")
                self._state[key] = 1
        """)
    result = analyze(root, select=["FID012"])
    assert len(result.findings) == 1
    assert "Dev.poke" in result.findings[0].message


# ------------------------------------------------------- shared caches

def test_each_module_is_parsed_exactly_once(monkeypatch):
    real_parse = ast.parse
    counts = {}

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        counts[filename] = counts.get(filename, 0) + 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    result = analyze(FIXTURE_ROOT)
    assert result.modules_scanned == len(counts)
    assert all(count == 1 for count in counts.values()), counts


def test_cfgs_are_built_once_and_shared_across_rules_and_runs():
    project = Project.load(FIXTURE_ROOT)
    analyze(project)
    stats = project.dataflow.stats()
    assert stats["cfg_builds"] > 0
    # the summary fixpoint builds each CFG; the three rules then reuse
    assert stats["cfg_hits"] > 0

    analyze(project)
    again = project.dataflow.stats()
    assert again["cfg_builds"] == stats["cfg_builds"]
    assert again["cfg_hits"] > stats["cfg_hits"]


def test_dataflow_layer_is_lazy_for_syntactic_runs():
    project = Project.load(FIXTURE_ROOT)
    analyze(project, select=["FID006"])
    assert project._dataflow is None
