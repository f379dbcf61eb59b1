"""Engine mechanics: suppressions, baseline lifecycle, fingerprints, CLI."""

import json
import os
import shutil
import textwrap

import pytest

from repro.analysis import analyze
from repro.analysis.baseline import load_baseline, write_baseline
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
    result = analyze(root, baseline_path=None)
    assert not result.findings
    assert [f.rule_id for f in result.suppressed] == ["FID006"]


def test_suppression_on_comment_line_above(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        # the empty-list default is the whole point of this helper
        # fidelint: ignore[FID006]
        def f(x=[]):
            return x
        """)
    result = analyze(root, baseline_path=None)
    assert not result.findings
    assert len(result.suppressed) == 1


def test_bare_ignore_suppresses_all_rules(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):  # fidelint: ignore
            return x
        """)
    result = analyze(root, baseline_path=None)
    assert not result.findings
    assert len(result.suppressed) == 1


def test_wrong_rule_id_does_not_suppress(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):  # fidelint: ignore[FID001]
            return x
        """)
    result = analyze(root, baseline_path=None)
    assert [f.rule_id for f in result.findings] == ["FID006"]
    assert not result.suppressed


def test_skip_file_suppresses_whole_module(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        # fidelint: skip-file
        def f(x=[], y={}):
            return x, y
        """)
    result = analyze(root, baseline_path=None)
    assert not result.findings
    assert len(result.suppressed) == 2


def test_suppression_does_not_leak_across_code_lines(tmp_path):
    # An ignore above an unrelated statement must not reach the def
    # two *code* lines below it.
    root = _make_tree(tmp_path, "mod.py", """\
        # fidelint: ignore[FID006]
        X = 1


        def f(x=[]):
            return x
        """)
    result = analyze(root, baseline_path=None)
    assert [f.rule_id for f in result.findings] == ["FID006"]


# ------------------------------------------------------------------ baseline

def test_baseline_round_trip_and_stale_detection(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x
        """)
    baseline_path = str(tmp_path / "baseline.json")

    first = analyze(root, baseline_path=None)
    assert len(first.findings) == 1
    entries = write_baseline(baseline_path, first.findings)
    assert len(entries) == 1
    assert load_baseline(baseline_path)

    # Same tree + baseline: grandfathered, clean even under --strict.
    second = analyze(root, baseline_path=baseline_path)
    assert not second.findings
    assert len(second.baselined) == 1
    assert not second.stale_baseline
    assert second.exit_code(strict=True) == 0

    # Fix the violation: the entry goes stale; --strict now fails so the
    # baseline cannot rot silently, but plain mode still passes.
    mod = os.path.join(root, "repro", "mod.py")
    with open(mod, "w", encoding="utf-8") as handle:
        handle.write("def f(x=None):\n    return x\n")
    third = analyze(root, baseline_path=baseline_path)
    assert not third.findings
    assert not third.baselined
    assert len(third.stale_baseline) == 1
    assert third.exit_code(strict=False) == 0
    assert third.exit_code(strict=True) == 1


def test_baseline_is_line_number_independent(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x
        """)
    baseline_path = str(tmp_path / "baseline.json")
    write_baseline(baseline_path, analyze(root, baseline_path=None).findings)

    # Shift the offending line down: the fingerprint keys on line *text*,
    # so the entry still matches.
    mod = os.path.join(root, "repro", "mod.py")
    with open(mod, "w", encoding="utf-8") as handle:
        handle.write("# a new leading comment\n\n\ndef f(x=[]):\n    return x\n")
    result = analyze(root, baseline_path=baseline_path)
    assert not result.findings
    assert len(result.baselined) == 1
    assert not result.stale_baseline


def test_identical_lines_get_distinct_fingerprints(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x


        def f(x=[]):
            return x
        """)
    result = analyze(root, baseline_path=None)
    assert len(result.findings) == 2
    a, b = result.findings
    assert a.line_text == b.line_text
    assert {a.occurrence, b.occurrence} == {0, 1}
    assert a.fingerprint != b.fingerprint

    # Baselining both keeps both matched — occurrence disambiguates.
    baseline_path = str(tmp_path / "baseline.json")
    write_baseline(baseline_path, result.findings)
    again = analyze(root, baseline_path=baseline_path)
    assert not again.findings
    assert len(again.baselined) == 2
    assert not again.stale_baseline


def test_select_judges_only_the_rules_that_ran(tmp_path):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x
        """)
    baseline_path = str(tmp_path / "baseline.json")
    write_baseline(baseline_path, analyze(root, baseline_path=None).findings)

    # A FID003 run cannot match the FID006 entry, so it must not call it
    # stale.
    other = analyze(root, baseline_path=baseline_path, select=["FID003"])
    assert not other.stale_baseline
    assert other.exit_code(strict=True) == 0

    # Fixed: the entry is stale for every run that includes its rule.
    mod = os.path.join(root, "repro", "mod.py")
    with open(mod, "w", encoding="utf-8") as handle:
        handle.write("def f(x=None):\n    return x\n")
    assert not analyze(root, baseline_path=baseline_path,
                       select=["FID003"]).stale_baseline
    assert len(analyze(root, baseline_path=baseline_path,
                       select=["FID006", "FID003"]).stale_baseline) == 1


# ----------------------------------------------------------------------- CLI

def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("FID001", "FID002", "FID003", "FID004",
                    "FID005", "FID006", "FID007", "FID008",
                    "FID009", "FID010", "FID011", "FID012",
                    "FID013", "FID014", "FID015"):
        assert rule_id in out


def test_cli_json_output_on_fixture_tree(capsys):
    rc = main(["--root", FIXTURE_ROOT, "--no-baseline", "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["error"] == 11
    assert payload["counts"]["warning"] == 4
    # 15 bad modules + 8 package __init__ files
    assert payload["counts"]["modules"] == 23
    rules_seen = {f["rule"] for f in payload["findings"]}
    assert len(rules_seen) == 15
    # the findings digest travels with the JSON payload
    assert len(payload["digest"]) == 64


def test_cli_select_runs_only_requested_rule(capsys):
    # FID006 is a warning: plain mode passes, --strict fails.
    assert main(["--root", FIXTURE_ROOT, "--no-baseline",
                 "--select", "FID006"]) == 0
    out = capsys.readouterr().out
    assert "FID006" in out
    assert "FID001" not in out
    assert main(["--root", FIXTURE_ROOT, "--no-baseline",
                 "--select", "FID006", "--strict"]) == 1
    capsys.readouterr()


def test_cli_unknown_rule_id_is_usage_error(capsys):
    assert main(["--root", FIXTURE_ROOT, "--no-baseline",
                 "--select", "FID999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_bad_root_is_usage_error(tmp_path, capsys):
    assert main(["--root", str(tmp_path)]) == 2
    assert "no 'repro' package" in capsys.readouterr().err


def test_cli_write_baseline_then_strict_passes(tmp_path, capsys):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x
        """)
    baseline_path = str(tmp_path / "baseline.json")
    assert main(["--root", root, "--baseline", baseline_path,
                 "--write-baseline"]) == 0
    assert "wrote 1 baseline entries" in capsys.readouterr().out
    assert main(["--root", root, "--baseline", baseline_path,
                 "--strict"]) == 0
    capsys.readouterr()


def test_cli_write_baseline_prunes_stale_entries(tmp_path, capsys):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x
        """)
    baseline_path = str(tmp_path / "baseline.json")
    assert main(["--root", root, "--baseline", baseline_path,
                 "--write-baseline"]) == 0
    capsys.readouterr()

    # Fix the violation, regenerate: the old entry must be pruned and
    # the regeneration must say so.
    mod = os.path.join(root, "repro", "mod.py")
    with open(mod, "w", encoding="utf-8") as handle:
        handle.write("def f(x=None):\n    return x\n")
    assert main(["--root", root, "--baseline", baseline_path,
                 "--write-baseline"]) == 0
    out = capsys.readouterr().out
    assert "wrote 0 baseline entries" in out
    assert "1 stale pruned" in out
    assert load_baseline(baseline_path) == {}
    assert main(["--root", root, "--baseline", baseline_path,
                 "--strict"]) == 0
    capsys.readouterr()


def test_cli_write_baseline_refuses_select(tmp_path, capsys):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x
        """)
    baseline_path = str(tmp_path / "baseline.json")
    assert main(["--root", root, "--baseline", baseline_path,
                 "--write-baseline"]) == 0
    with open(baseline_path, "rb") as handle:
        before = handle.read()
    capsys.readouterr()

    # A subset of the rules cannot regenerate the whole file: refused
    # with one line, the file untouched, and a strict run still clean.
    assert main(["--root", root, "--baseline", baseline_path,
                 "--select", "FID003", "--write-baseline"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "error:" in line
    with open(baseline_path, "rb") as handle:
        assert handle.read() == before
    assert main(["--root", root, "--baseline", baseline_path,
                 "--select", "FID003", "--strict"]) == 0
    assert main(["--root", root, "--baseline", baseline_path,
                 "--strict"]) == 0
    capsys.readouterr()


def test_cli_write_baseline_is_byte_stable(tmp_path, capsys):
    root = _make_tree(tmp_path, "mod.py", """\
        def f(x=[]):
            return x


        def g(y={}):
            return y
        """)
    baseline_path = str(tmp_path / "baseline.json")
    assert main(["--root", root, "--baseline", baseline_path,
                 "--write-baseline"]) == 0
    with open(baseline_path, "rb") as handle:
        first = handle.read()
    assert main(["--root", root, "--baseline", baseline_path,
                 "--write-baseline"]) == 0
    with open(baseline_path, "rb") as handle:
        assert handle.read() == first
    capsys.readouterr()


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
    live_src = os.path.join(repo_root, "src")
    root = str(tmp_path / "src")
    shutil.copytree(
        os.path.join(live_src, "repro"), os.path.join(root, "repro"),
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    baseline_src = os.path.join(repo_root, "fidelint.baseline.json")
    baseline_path = str(tmp_path / "fidelint.baseline.json")
    shutil.copy(baseline_src, baseline_path)
    return root, baseline_path


def test_strict_clean_on_live_copy_then_fails_on_injected_module(
        tmp_path, capsys):
    root, baseline_path = _copy_live_tree(tmp_path)
    assert main(["--root", root, "--baseline", baseline_path,
                 "--strict"]) == 0
    capsys.readouterr()

    # Drop one of the fixture bad modules into the tree: strict CI run
    # must now fail — the exact non-bypassability property fidelint is
    # meant to enforce.
    shutil.copy(
        os.path.join(FIXTURE_ROOT, "repro", "xen", "bad_raw_memory.py"),
        os.path.join(root, "repro", "xen", "bad_raw_memory.py"))
    assert main(["--root", root, "--baseline", baseline_path,
                 "--strict"]) == 1
    out = capsys.readouterr().out
    assert "FID001" in out


def test_injected_warning_only_fails_under_strict(tmp_path, capsys):
    root, baseline_path = _copy_live_tree(tmp_path)
    shutil.copy(
        os.path.join(FIXTURE_ROOT, "repro", "common",
                     "bad_mutable_default.py"),
        os.path.join(root, "repro", "common", "bad_mutable_default.py"))
    assert main(["--root", root, "--baseline", baseline_path]) == 0
    assert main(["--root", root, "--baseline", baseline_path,
                 "--strict"]) == 1
    capsys.readouterr()
