"""Checks on the checks: the mutation table still points at live code,
the oracles and scripts share no private code with the library, the
fork primitive's module imports nothing from it, and the sources parse
as the oldest Python that pyproject.toml admits."""

import ast
import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutation_table():
    spec = importlib.util.spec_from_file_location("mutation_check", ROOT / "scripts" / "mutation_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTATIONS


MUTATIONS = load_mutation_table()


class TestMutationTable:
    def test_names_are_unique(self):
        names = [m.name for m in MUTATIONS]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
    def test_snippet_occurs_exactly_once(self, mutation):
        source = (ROOT / mutation.file).read_text(encoding="utf-8")
        assert source.count(mutation.old) == 1
        assert mutation.new != mutation.old

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
    def test_selected_tests_exist(self, mutation):
        assert mutation.tests
        for selector in mutation.tests:
            path, *names = selector.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            for name in names:
                assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", source, re.MULTILINE), selector


# The Porter rule tables are data, not code: the old stemmer in the
# oracles reads them, and the vocabulary conformance test checks them on
# their own.
ALLOWED_PRIVATE = {("swss.porter", "_STEP2_RULES"), ("swss.porter", "_STEP3_RULES"), ("swss.porter", "_STEP4_SUFFIXES")}
# A script that times the two fanned phases on their own names them, and
# forces their fan-out by the two thresholds; it computes nothing that a
# user reads from swss. This is the one agreed exception, recorded in
# ROADMAP item 9, and it is for timing only. Any other private name in a
# script fails.
MEASURED_PRIVATE = {
    "fanout_sizes.py": {
        ("harness", "_prepare_segments"),
        ("harness", "_screen"),
        ("harness", "_FAN_OUT_MIN_RECORDS"),
        ("harness", "_FAN_OUT_MIN_SCREEN_WORK"),
    },
}


def private_swss_names(source):
    """``(module, name)`` for every private name of the ``swss`` package
    that ``source`` imports, or reads as an attribute of a name it
    imported from ``swss``."""
    tree = ast.parse(source)
    bound = set()  # local names that refer to something from swss
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "swss":
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.module, alias.name))
                bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "swss":
                    bound.add(alias.asname or "swss")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append((ast.unparse(node.value), node.attr))
    return found


class TestOracleIndependence:
    def test_oracles_import_no_private_library_name(self):
        source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
        assert set(private_swss_names(source)) <= ALLOWED_PRIVATE

    @pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda path: path.name)
    def test_scripts_import_no_private_library_name(self, script):
        found = set(private_swss_names(script.read_text(encoding="utf-8")))
        assert found == MEASURED_PRIVATE.get(script.name, set())

    @pytest.mark.parametrize(
        "source",
        [
            "from swss.harness import _prepare_segments",
            "def f():\n    from swss.harness import evaluate, _PreparedSegment",
            "from swss import harness\nharness._correlations",
            "import swss.harness\nswss.harness._mean",
            "import swss.harness as h\nh._screen",
        ],
    )
    def test_private_names_are_found(self, source):
        assert private_swss_names(source)

    def test_public_names_pass(self):
        source = "from swss.harness import pearson\nfrom swss import harness\nharness.evaluate\nx._replace"
        assert private_swss_names(source) == []


def swss_imports(source):
    """Every import of the ``swss`` package in ``source``, relative or
    absolute, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "swss"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [ast.unparse(node) for alias in node.names if alias.name.split(".")[0] == "swss"]
    return found


class TestFanoutIndependence:
    def test_fanout_imports_nothing_from_swss(self):
        source = (ROOT / "src" / "swss" / "_fanout.py").read_text(encoding="utf-8")
        assert swss_imports(source) == []

    @pytest.mark.parametrize(
        "source",
        [
            "from .harness import _PairSums",
            "from . import errors",
            "def f():\n    from .scoring import SwssParams",
            "from swss.errors import GraphError",
            "import swss.harness",
            "import os, swss",
        ],
    )
    def test_imports_are_found(self, source):
        assert swss_imports(source)

    def test_other_imports_pass(self):
        assert swss_imports("import os\nimport swsslike\nfrom typing import Sequence") == []

    def test_fanout_names_no_record_field(self):
        # The caller hands it each record's file paths, not the records.
        from swss.harness import SegmentRecord

        words = set(re.findall(r"\w+", (ROOT / "src" / "swss" / "_fanout.py").read_text(encoding="utf-8")))
        assert words.isdisjoint(field.name for field in dataclasses.fields(SegmentRecord))

    def test_fanout_defines_no_partition_and_names_no_path(self):
        # Which records share a file is the caller's rule: no name in the
        # code, as against its prose, speaks of files or paths.
        tree = ast.parse((ROOT / "src" / "swss" / "_fanout.py").read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            names.update(getattr(node, field) for field in ("id", "arg", "attr") if hasattr(node, field))
        assert "partition" not in names
        assert not [name for name in names if "path" in name.lower() or "file" in name.lower()]


def oldest_python():
    """The version in pyproject.toml's ``requires-python = ">=X.Y"``."""
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    return int(found[1]), int(found[2])


OLDEST_PYTHON = oldest_python()


class TestOldestPython:
    @pytest.mark.parametrize(
        "path",
        sorted([*(ROOT / "src" / "swss").glob("*.py"), *(ROOT / "scripts").glob("*.py")]),
        ids=lambda path: str(path.relative_to(ROOT)),
    )
    def test_source_parses_as_the_oldest_python(self, path):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)
