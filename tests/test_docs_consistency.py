"""Self-consistency checks between the documentation and the code.

A reproduction's docs rot silently; these tests keep DESIGN.md,
docs/paper_map.md and the README honest against the actual tree.
"""

import importlib
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


class TestExamplesAreImportable:
    def test_examples_compile(self):
        import py_compile
        examples = os.path.join(ROOT, "examples")
        for name in os.listdir(examples):
            if name.endswith(".py"):
                py_compile.compile(os.path.join(examples, name),
                                   doraise=True)
