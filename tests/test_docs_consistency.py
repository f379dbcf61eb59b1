"""Self-consistency checks between the documentation and the code.

A reproduction's docs rot silently; these tests keep DESIGN.md,
docs/paper_map.md, the README and the other operator-facing files
honest against the actual tree.
"""

import glob
import importlib
import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts):
    with open(os.path.join(ROOT, *parts)) as handle:
        return handle.read()


def _modules(text):
    return set(re.findall(r"`(repro(?:\.\w+)+)`", text))


def _unresolved(text):
    """The ``repro.*`` names in ``text`` that name nothing: each is the
    longest importable module prefix followed by attributes, as in
    ``repro.core.lifecycle.GuestOwner``."""
    unresolved = []
    for dotted in sorted(_modules(text)):
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute, None)
        if target is None:
            unresolved.append(dotted)
    return unresolved


def _commands(text):
    return set(re.findall(r"python3? -m (repro(?:\.\w+)*)", text))


def _not_runnable(text):
    """The ``python -m repro...`` targets in ``text`` that would not run:
    no such module, or a package without a ``__main__``."""
    broken = []
    for module in sorted(_commands(text)):
        try:
            spec = importlib.util.find_spec(module)
            if spec is not None and spec.submodule_search_locations:
                spec = importlib.util.find_spec(module + ".__main__")
        except ImportError:
            spec = None
        if spec is None:
            broken.append(module)
    return broken


#: the files an operator reads for module names and commands: the
#: README, CONTRIBUTING, docs/, the CI workflow and the skill notes
OPERATOR_FILES = sorted(
    ["README.md", "CONTRIBUTING.md"]
    + [os.path.relpath(path, ROOT) for pattern in (
        ("docs", "*.md"), (".github", "workflows", "ci.yml"),
        (".*", "skills", "*", "SKILL.md"))
       for path in glob.glob(os.path.join(ROOT, *pattern))])


def _missing_test_files(text):
    files = set(re.findall(r"`(tests/[\w/]+\.py)", text))
    assert files
    return [path for path in sorted(files)
            if not os.path.exists(os.path.join(ROOT, path))]


class TestPaperMap:
    @pytest.fixture(scope="class")
    def paper_map(self):
        return _read("docs", "paper_map.md")

    def test_every_referenced_module_imports(self, paper_map):
        assert len(_modules(paper_map)) > 15
        assert _unresolved(paper_map) == []

    def test_every_referenced_test_file_exists(self, paper_map):
        assert _missing_test_files(paper_map) == []


class TestDesignDoc:
    def test_confirms_the_right_paper(self):
        design = _read("DESIGN.md")
        assert "Comprehensive VM Protection" in design
        assert "HPCA 2018" in design
        assert "10.1109/HPCA.2018.00045" in design

    def test_experiment_index_commands_are_real(self):
        from repro.eval.__main__ import COMMANDS
        design = _read("DESIGN.md")
        for command in re.findall(r"python -m repro\.eval (\S+)`", design):
            assert command in COMMANDS, command

    def test_every_referenced_module_imports(self):
        design = _read("DESIGN.md")
        assert len(_modules(design)) > 15
        assert _unresolved(design) == []

    def test_every_referenced_test_file_exists(self):
        assert _missing_test_files(_read("DESIGN.md")) == []


class TestReadme:
    def test_example_table_matches_directory(self):
        readme = _read("README.md")
        listed = set(re.findall(r"\| `(\w+\.py)` \|", readme))
        on_disk = {name for name in os.listdir(os.path.join(ROOT, "examples"))
                   if name.endswith(".py")}
        assert listed == on_disk

    def test_attack_count_matches_registry(self):
        from repro.attacks import ALL_ATTACKS
        readme = _read("README.md")
        match = re.search(r"(\d+) attack programs", readme)
        assert match and int(match.group(1)) == len(ALL_ATTACKS)

    def test_quickstart_modules_exist(self):
        import repro
        assert hasattr(repro, "System")
        assert hasattr(repro, "GuestOwner")


class TestOperatorFiles:
    @pytest.mark.parametrize("path", OPERATOR_FILES)
    def test_every_referenced_module_resolves(self, path):
        assert _unresolved(_read(path)) == []

    @pytest.mark.parametrize("path", OPERATOR_FILES)
    def test_every_python_m_command_runs_a_module(self, path):
        assert _not_runnable(_read(path)) == []

    def test_the_checks_see_the_commands(self):
        # a broken pattern must not pass every file vacuously
        commands = set().union(*(_commands(_read(p))
                                 for p in OPERATOR_FILES))
        assert {"repro.analysis", "repro.eval", "repro.faults.soak",
                "repro.faults.bisect",
                "repro.checkpoint.oracle"} <= commands


class TestExamplesAreImportable:
    def test_examples_compile(self):
        import py_compile
        examples = os.path.join(ROOT, "examples")
        for name in os.listdir(examples):
            if name.endswith(".py"):
                py_compile.compile(os.path.join(examples, name),
                                   doraise=True)
