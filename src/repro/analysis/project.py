"""Source-tree loading: modules, ASTs, imports and suppressions.

The analyzer operates on a :class:`Project` — every ``*.py`` file under
one root directory (the directory *containing* the ``repro`` package),
parsed once and shared by all rules.  Nothing here imports the analyzed
code; the analysis is purely syntactic, which is the point: it must be
able to reason about modules (attacks, broken fixtures) that would be
unsafe or impossible to import.
"""

import ast
import io
import os
import re
import tokenize

_SUPPRESS_RE = re.compile(r"#\s*fidelint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
_COMMENT_LINE_RE = re.compile(r"^\s*(#|$)")


class ModuleInfo:
    """One parsed source module."""

    def __init__(self, name, path, rel_path, source):
        self.name = name                  # "repro.xen.npt"
        self.path = path                  # absolute path
        self.rel_path = rel_path          # path relative to the root
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        #: comment line number -> the rule ids its suppression names
        self.suppressions = self._parse_suppressions()

    @property
    def subpackage(self):
        """First component under ``repro`` ("xen" for repro.xen.npt;
        the bare module name for top-level modules like repro.system;
        "" for the ``repro`` package itself)."""
        parts = self.name.split(".")
        return parts[1] if len(parts) > 1 else ""

    def _parse_suppressions(self):
        """``# fidelint: ignore[FIDnnn, ...]`` comments by line.  Only
        real comments count: the same text inside a string or a
        docstring is not a suppression.  Tokenizing costs about as much
        as parsing, so only a module whose text matches pays for it."""
        table = {}
        if not _SUPPRESS_RE.search(self.source):
            return table
        for token in tokenize.generate_tokens(
                io.StringIO(self.source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match:
                table[token.start[0]] = {
                    r.strip().upper()
                    for r in match.group(1).split(",") if r.strip()}
        return table

    def suppression_line(self, rule_id, lineno):
        """The line of the comment that suppresses ``rule_id`` at
        ``lineno``, or None.

        A suppression comment applies to its own line and, when written
        as a standalone comment (possibly spanning several pure-comment
        lines), to the next statement below it.
        """
        probe = lineno
        while probe >= 1:
            if rule_id in self.suppressions.get(probe, ()):
                return probe
            probe -= 1
            # keep walking up only across pure comment/blank lines
            if probe < 1 or not _COMMENT_LINE_RE.match(self.lines[probe - 1]):
                break
        return None

    def imported_modules(self):
        """Absolute dotted names this module imports (repro.* only),
        as (dotted_name, lineno) pairs.  Relative imports are resolved
        against this module's package."""
        out = []
        package_parts = self.name.split(".")
        if not self.path.endswith("__init__.py"):
            package_parts = package_parts[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out.append((alias.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = package_parts[:len(package_parts) - node.level + 1]
                    target = ".".join(base + ([node.module] if node.module
                                              else []))
                else:
                    target = node.module or ""
                if target:
                    out.append((target, node.lineno))
        return [(name, line) for name, line in out
                if name == "repro" or name.startswith("repro.")]


class Project:
    """All modules under one root, plus shared lookups for rules."""

    def __init__(self, root, modules):
        self.root = root
        self.modules = modules            # name -> ModuleInfo
        self._dataflow = None

    @property
    def dataflow(self):
        """The per-run CFG/summary cache, built on first use so a run
        of purely syntactic rules never pays for it."""
        if self._dataflow is None:
            from repro.analysis.dataflow.context import DataflowContext
            self._dataflow = DataflowContext(self)
        return self._dataflow

    @classmethod
    def load(cls, root):
        """Parse every ``*.py`` under ``root`` (the dir containing
        the ``repro`` package)."""
        root = os.path.abspath(root)
        modules = {}
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__" and
                                 not d.startswith("."))
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root)
                name = cls._module_name(rel)
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                modules[name] = ModuleInfo(name, path, rel, source)
        return cls(root, modules)

    @staticmethod
    def _module_name(rel_path):
        parts = rel_path.replace(os.sep, "/").split("/")
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][:-3]
        return ".".join(parts)

    def sorted_modules(self):
        return [self.modules[name] for name in sorted(self.modules)]
