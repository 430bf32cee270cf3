"""The package stays numpy-only: it imports the standard library, numpy and itself. It starts
no process pool either: multiprocessing leaves a resource tracker process running."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "voicetrace").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "voicetrace"}


def _imported_packages(source: str):
    """The top-level package of every absolute import in source; relative imports are the package's own."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _process_pools(source: str):
    """Each multiprocessing module imported, and each mention of ProcessPoolExecutor, in source."""
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            yield from (name for name in names if name.split(".")[0] == "multiprocessing")
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").split(".")[0] == "multiprocessing":
                yield node.module
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        yield from (name for name in names if name == "ProcessPoolExecutor")


def test_the_check_sees_every_import_form():
    source = "import os.path, scipy.signal\nfrom sklearn import svm\nfrom . import nn\n" \
             "def f():\n    import torch\n"
    assert sorted(set(_imported_packages(source)) - ALLOWED) == ["scipy", "sklearn", "torch"]


def test_the_process_pool_check_sees_every_form():
    source = ("import multiprocessing.pool\nfrom multiprocessing import get_context\n"
              "from concurrent.futures import ProcessPoolExecutor\nimport os\n"
              "def f():\n    import concurrent.futures as cf\n    return cf.ProcessPoolExecutor\n"
              "from concurrent.futures import ThreadPoolExecutor\n")
    assert list(_process_pools(source)) == ["multiprocessing.pool", "multiprocessing",
                                            "ProcessPoolExecutor", "ProcessPoolExecutor"]


def test_every_module_is_checked():
    assert {"pipeline.py", "coverage.py", "backbone.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_numpy_and_voicetrace(path):
    foreign = sorted(set(_imported_packages(path.read_text(encoding="utf-8"))) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_starts_no_process_pool(path):
    pools = list(_process_pools(path.read_text(encoding="utf-8")))
    assert not pools, f"{path.name} uses {pools}"
