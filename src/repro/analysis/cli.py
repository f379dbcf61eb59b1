"""The ``fidelint`` command line (also ``python -m repro.analysis``).

Exit codes: 0 clean, 1 findings (errors; plus warnings/stale baseline
under ``--strict``), 2 usage error.
"""

import argparse
import importlib
import json
import os
import sys
import textwrap

from repro.analysis.baseline import default_baseline_path, load_baseline, \
    write_baseline
from repro.analysis.engine import analyze, findings_digest
from repro.analysis.project import Project
from repro.analysis.registry import all_rules
from repro.runner import add_jobs_argument


def _default_root():
    """The ``src`` directory this installed package lives under."""
    here = os.path.dirname(os.path.abspath(__file__))   # .../src/repro/analysis
    return os.path.dirname(os.path.dirname(here))       # .../src


def _rules_epilog():
    lines = ["rules:"]
    for rule_obj in all_rules():
        lines.append("  %s  %-22s %s" % (
            rule_obj.rule_id, rule_obj.name, rule_obj.severity.value))
    lines.append("")
    lines.append("use --explain FIDxxx for the full rationale and a "
                 "fixed example")
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fidelint",
        description="Static architecture & capability checker for the "
                    "Fidelius reproduction: proves at the source level "
                    "that no code path sidesteps the enforcement layers.",
        epilog=_rules_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="directory containing the repro package "
                             "(default: the src/ this tool runs from)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="output format")
    parser.add_argument("--strict", action="store_true",
                        help="fail on warnings and stale baseline entries "
                             "too (CI mode)")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "<repo>/fidelint.baseline.json)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="regenerate the baseline file from every "
                             "current finding (stable ordering; stale "
                             "entries are pruned) and exit 0")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(e.g. FID001,FID003)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--explain", nargs="+", default=None, metavar="ID",
                        help="print a rule's full rationale (its module "
                             "docstring) plus a fixed example, and exit; "
                             "'all' explains every registered rule")
    parser.add_argument("--state-report", default=None, metavar="PATH",
                        help="write the module-state inventory "
                             "(registered/unregistered/stale module-global "
                             "mutables, see FID014) as JSON and exit; "
                             "non-zero if anything is unregistered or "
                             "stale")
    add_jobs_argument(parser)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_obj in all_rules():
            print("%s  %-16s %-7s %s" % (
                rule_obj.rule_id, rule_obj.name, rule_obj.severity.value,
                rule_obj.description))
        return 0

    if args.explain:
        return _explain(args.explain)

    root = os.path.abspath(args.root or _default_root())
    if not os.path.isdir(os.path.join(root, "repro")):
        print("fidelint: no 'repro' package under %s" % root,
              file=sys.stderr)
        return 2

    if args.state_report:
        return _write_state_report(root, args.state_report)

    baseline_path = None
    if not args.no_baseline:
        baseline_path = args.baseline or default_baseline_path(root)

    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]

    try:
        result = analyze(root, baseline_path=None if args.write_baseline
                         else baseline_path, select=select,
                         jobs=args.jobs)
    except ValueError as exc:
        print("fidelint: %s" % exc, file=sys.stderr)
        return 2

    if args.write_baseline:
        path = baseline_path or default_baseline_path(root)
        previous = load_baseline(path)
        entries = write_baseline(path, result.findings)
        current = {entry["fingerprint"] for entry in entries}
        pruned = sum(1 for fingerprint in previous
                     if fingerprint not in current)
        print("fidelint: wrote %d baseline entries to %s (%d stale "
              "pruned)" % (len(entries), path, pruned))
        return 0

    if args.format == "json":
        payload = result.to_dict()
        payload["digest"] = findings_digest(result)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _render_human(result)
    return result.exit_code(strict=args.strict)


def _write_state_report(root, path):
    """The machine-readable module-state inventory (FID014's view)."""
    from repro.analysis.rules.state_inventory import inventory
    project = Project.load(root)
    registered, unregistered, stale = inventory(project)
    payload = {
        "schema": "fidelint-state-report/1",
        "registered": registered,
        "unregistered": unregistered,
        "stale": stale,
        "counts": {
            "registered": len(registered),
            "unregistered": len(unregistered),
            "stale": len(stale),
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("fidelint: state report: %d registered, %d unregistered, "
          "%d stale -> %s" % (len(registered), len(unregistered),
                              len(stale), path))
    return 0 if not (unregistered or stale) else 1


def _explain(rule_ids):
    rules_by_id = {r.rule_id: r for r in all_rules()}
    if any(raw_id.lower() == "all" for raw_id in rule_ids):
        rule_ids = sorted(rules_by_id)
    for raw_id in rule_ids:
        rule_obj = rules_by_id.get(raw_id.upper())
        if rule_obj is None:
            print("fidelint: unknown rule %s" % raw_id, file=sys.stderr)
            return 2
        doc = importlib.import_module(rule_obj.module).__doc__ or ""
        print("%s %s (%s)%s" % (
            rule_obj.rule_id, rule_obj.name, rule_obj.severity.value,
            " [dataflow]" if rule_obj.needs_dataflow else ""))
        print()
        print(doc.strip())
        if rule_obj.example:
            print()
            print("Fixed example:")
            print(textwrap.indent(
                textwrap.dedent(rule_obj.example).strip(), "    "))
        print()
    return 0


def _render_human(result):
    for finding in result.findings:
        print(finding.render())
    for entry in result.stale_baseline:
        print("stale baseline entry: %s in %s (%s) — remove it"
              % (entry["rule"], entry["module"], entry["fingerprint"]))
    print("fidelint: %d modules, %d rules: %d error(s), %d warning(s)"
          " [%d suppressed, %d baselined, %d stale baseline]"
          % (result.modules_scanned, result.rules_run,
             result.error_count, result.warning_count,
             len(result.suppressed), len(result.baselined),
             len(result.stale_baseline)))
    print("fidelint: findings digest sha256=%s" % findings_digest(result))


if __name__ == "__main__":
    sys.exit(main())
