"""Engine mechanics: suppressions, unused suppressions, CLI."""

import json
import os
import shutil
import textwrap

from repro.analysis import analyze
from repro.analysis.cli import main

FIXTURE_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "fixture_src")


def _make_tree(tmp_path, module_rel, source):
    """Build a minimal repro tree containing one module."""
    root = tmp_path / "src"
    pkg = root / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "__init__.py").write_text("")
    target = pkg / module_rel
    target.parent.mkdir(parents=True, exist_ok=True)
    # ensure intermediate packages exist
    walk = pkg
    for part in module_rel.split("/")[:-1]:
        walk = walk / part
        init = walk / "__init__.py"
        if not init.exists():
            init.write_text("")
    target.write_text(textwrap.dedent(source))
    return str(root)


# ---------------------------------------------------------------- suppression

def test_suppression_on_same_line(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):  # fidelint: ignore[FID006]
            return x
        """)
    result = analyze(root)
    assert not result.findings
    assert [f.rule_id for f in result.suppressed] == ["FID006"]
    assert not result.unused_suppressions


def test_suppression_on_comment_line_above(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        # the empty-list default is the whole point of this helper
        # fidelint: ignore[FID006]
        def f(x=[]):
            return x
        """)
    result = analyze(root)
    assert not result.findings
    assert len(result.suppressed) == 1
    assert not result.unused_suppressions


def test_bare_ignore_is_a_plain_comment(tmp_path):
    # Only the rule-scoped form suppresses.
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):  # fidelint: ignore
            return x
        """)
    result = analyze(root)
    assert [f.rule_id for f in result.findings] == ["FID006"]
    assert not result.suppressed
    assert not result.unused_suppressions


def test_skip_file_is_a_plain_comment(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        # fidelint: skip-file
        def f(x=[]):
            return x
        """)
    result = analyze(root)
    assert [f.rule_id for f in result.findings] == ["FID006"]
    assert not result.suppressed
    assert not result.unused_suppressions


def test_suppression_text_in_a_string_is_not_a_suppression(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        \"\"\"Accept a finding: ``# fidelint: ignore[FID001] -- why``.\"\"\"


        def f(x=[], note="# fidelint: ignore[FID006]"):
            return x, note
        """)
    result = analyze(root)
    assert [f.rule_id for f in result.findings] == ["FID006"]
    assert not result.suppressed
    assert not result.unused_suppressions


def test_wrong_rule_id_does_not_suppress(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):  # fidelint: ignore[FID001]
            return x
        """)
    result = analyze(root)
    assert [f.rule_id for f in result.findings] == ["FID006"]
    assert not result.suppressed
    assert [u["rule"] for u in result.unused_suppressions] == ["FID001"]


def test_suppression_does_not_leak_across_code_lines(tmp_path):
    # An ignore above an unrelated statement must not reach the def
    # two *code* lines below it.
    root = _make_tree(tmp_path, "mod.py", """\
        # fidelint: ignore[FID006]
        X = 1


        def f(x=[]):
            return x
        """)
    result = analyze(root)
    assert [f.rule_id for f in result.findings] == ["FID006"]
    assert [u["line"] for u in result.unused_suppressions] == [1]


def test_identical_lines_are_judged_by_their_own_suppressions(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x


        # fidelint: ignore[FID006] -- the second copy only
        def f(x=[]):
            return x
        """)
    result = analyze(root)
    assert [f.line for f in result.findings] == [1]
    assert [f.line for f in result.suppressed] == [6]
    assert not result.unused_suppressions


# ------------------------------------------------------ unused suppressions

def test_unused_suppression_fails_only_under_strict(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        # fidelint: ignore[FID006] -- kept for the old call sites
        def f(x=[]):
            return x
        """)
    used = analyze(root)
    assert not used.findings
    assert len(used.suppressed) == 1
    assert not used.unused_suppressions
    assert used.exit_code(strict=True) == 0

    # Fix the violation: the comment now silences nothing.  A plain run
    # reports it and passes; --strict fails, so the accepted exceptions
    # cannot outlive the code they excuse.
    mod = os.path.join(root, "repro", "mod.py")
    with open(mod, "w", encoding="utf-8") as handle:
        handle.write("# fidelint: ignore[FID006] -- kept for the old "
                     "call sites\ndef f(x=None):\n    return x\n")
    fixed = analyze(root)
    assert not fixed.findings
    assert not fixed.suppressed
    assert fixed.unused_suppressions == [{
        "rule": "FID006", "module": "repro.mod",
        "path": os.path.join("repro", "mod.py"), "line": 1}]
    assert fixed.exit_code(strict=False) == 0
    assert fixed.exit_code(strict=True) == 1


def test_select_judges_only_the_rules_that_ran(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        # fidelint: ignore[FID006] -- kept for the old call sites
        def f(x=None):
            return x
        """)
    # A FID003 run cannot use the FID006 suppression, so it must not
    # call it unused.
    other = analyze(root, select=["FID003"])
    assert not other.unused_suppressions
    assert other.exit_code(strict=True) == 0
    assert len(analyze(root, select=["FID006", "FID003"])
               .unused_suppressions) == 1


def test_suppression_of_an_unknown_rule_is_always_unused(tmp_path):
    # FID013 was retired: no run can use its suppression, so every run
    # reports it, whatever it selects.
    root = _make_tree(tmp_path, "mod.py", """\
        X = 1  # fidelint: ignore[FID013,FID999]
        """)
    for select in (None, ["FID003"]):
        result = analyze(root, select=select)
        assert [u["rule"] for u in result.unused_suppressions] == [
            "FID013", "FID999"]
        assert result.exit_code(strict=True) == 1


# ----------------------------------------------------------------------- CLI

def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("FID001", "FID002", "FID003", "FID004",
                    "FID005", "FID006", "FID007", "FID008",
                    "FID009", "FID010", "FID011", "FID012",
                    "FID014", "FID015"):
        assert rule_id in out


def test_cli_json_output_on_fixture_tree(capsys):
    rc = main(["--root", FIXTURE_ROOT, "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["error"] == 10
    assert payload["counts"]["warning"] == 4
    # 14 bad modules + 8 package __init__ files
    assert payload["counts"]["modules"] == 22
    rules_seen = {f["rule"] for f in payload["findings"]}
    assert len(rules_seen) == 14
    assert payload["counts"]["suppressed"] == 0
    assert not payload["unused_suppressions"]
    # the findings digest travels with the JSON payload
    assert len(payload["digest"]) == 64


def test_cli_select_runs_only_requested_rule(capsys):
    # FID006 is a warning: plain mode passes, --strict fails.
    assert main(["--root", FIXTURE_ROOT, "--select", "FID006"]) == 0
    out = capsys.readouterr().out
    assert "FID006" in out
    assert "FID001" not in out
    assert main(["--root", FIXTURE_ROOT, "--select", "FID006",
                 "--strict"]) == 1
    capsys.readouterr()


def test_cli_unknown_rule_id_is_usage_error(capsys):
    # a retired rule id is as unknown as one never issued
    for rule_id in ("FID999", "FID013"):
        assert main(["--root", FIXTURE_ROOT, "--select", rule_id]) == 2
        assert "unknown rule" in capsys.readouterr().err


def test_cli_bad_root_is_usage_error(tmp_path, capsys):
    assert main(["--root", str(tmp_path)]) == 2
    assert "no 'repro' package" in capsys.readouterr().err


def test_cli_strict_names_an_unused_suppression(tmp_path, capsys):
    root = _make_tree(tmp_path, "mod.py", """\
        # fidelint: ignore[FID001] -- nothing below reads a raw frame
        X = 1
        """)
    assert main(["--root", root]) == 0
    assert "unused suppression" in capsys.readouterr().out
    assert main(["--root", root, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "%s:1: unused suppression ignore[FID001]" % os.path.join(
        "repro", "mod.py") in out
    assert "1 unused suppression(s)" in out
    # a run that does not include FID001 cannot judge it
    assert main(["--root", root, "--select", "FID003", "--strict"]) == 0
    capsys.readouterr()
    assert main(["--root", root, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unused_suppressions"] == [{
        "rule": "FID001", "module": "repro.mod",
        "path": os.path.join("repro", "mod.py"), "line": 1}]
    assert payload["counts"]["unused_suppressions"] == 1


def test_cli_explain_prints_rationale_and_example(capsys):
    assert main(["--explain", "FID010", "FID011", "FID012"]) == 0
    out = capsys.readouterr().out
    assert "secret taint" in out
    assert "gate-typestate" in out
    assert "path-cycle-accounting" in out
    assert "Fixed example:" in out
    # works (case-insensitively) for the syntactic rules too
    assert main(["--explain", "fid001"]) == 0
    assert "raw-memory" in capsys.readouterr().out


def test_cli_explain_unknown_rule_is_usage_error(capsys):
    assert main(["--explain", "FID999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_help_lists_every_registered_rule():
    """The --help epilog is generated from the registry, so a newly
    registered rule can never be missing from it — checked against
    the live registration list, not a hardcoded sample."""
    from repro.analysis.cli import build_parser
    from repro.analysis.registry import all_rules
    rules = all_rules()
    assert rules, "registry is empty?"
    text = build_parser().format_help()
    for rule_obj in rules:
        assert rule_obj.rule_id in text, rule_obj.rule_id
        assert rule_obj.name in text, rule_obj.name


def test_rules_package_docstring_lists_every_registered_rule():
    """The human-readable rule table in repro.analysis.rules must not
    rot: every registered id (and no unregistered one) appears."""
    import re
    import repro.analysis.rules as rules_pkg
    from repro.analysis.registry import all_rules
    doc = rules_pkg.__doc__ or ""
    documented = set(re.findall(r"FID\d{3}", doc))
    registered = {rule_obj.rule_id for rule_obj in all_rules()}
    assert registered <= documented, registered - documented
    assert documented <= registered, documented - registered


def test_explain_all_covers_every_rule(capsys):
    from repro.analysis.registry import all_rules
    assert main(["--explain", "all"]) == 0
    out = capsys.readouterr().out
    for rule_obj in all_rules():
        assert rule_obj.rule_id in out


# ------------------------------------------------- live tree + injected bug

def _copy_live_tree(tmp_path):
    repo_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    root = str(tmp_path / "src")
    shutil.copytree(
        os.path.join(repo_root, "src", "repro"), os.path.join(root, "repro"),
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return root


def test_strict_clean_on_live_copy_then_fails_on_injected_module(
        tmp_path, capsys):
    root = _copy_live_tree(tmp_path)
    assert main(["--root", root, "--strict"]) == 0
    capsys.readouterr()

    # Drop one of the fixture bad modules into the tree: strict CI run
    # must now fail — the exact non-bypassability property fidelint is
    # meant to enforce.
    shutil.copy(
        os.path.join(FIXTURE_ROOT, "repro", "xen", "bad_raw_memory.py"),
        os.path.join(root, "repro", "xen", "bad_raw_memory.py"))
    assert main(["--root", root, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "FID001" in out


def test_injected_warning_only_fails_under_strict(tmp_path, capsys):
    root = _copy_live_tree(tmp_path)
    shutil.copy(
        os.path.join(FIXTURE_ROOT, "repro", "common",
                     "bad_mutable_default.py"),
        os.path.join(root, "repro", "common", "bad_mutable_default.py"))
    assert main(["--root", root]) == 0
    assert main(["--root", root, "--strict"]) == 1
    capsys.readouterr()
