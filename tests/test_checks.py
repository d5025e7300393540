"""Checks on the checks: the mutation table still points at live code,
and the oracles share no private code with the library."""

import ast
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
