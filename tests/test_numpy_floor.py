"""The package's numpy calls exist in numpy 1.24, the floor pyproject.toml declares.

The suite runs under whatever numpy is installed, so a name that numpy added
later (np.vecdot, say) would pass every other test on numpy 2 and fail on
1.24.  This test reads the source instead: it collects each np.<name> the
package uses and fails on any name outside FLOOR_CHECKED, the names known to
exist in numpy 1.24, and on any name listed there that the package no longer
uses, so the list stays exact.  A new name goes on that list only once its
numpy 1.24 documentation has been read.  Keywords (np.sort(..., stable=True)) and array
attributes (a.mT) are not seen here.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "misbounds"

# Exactly the names the package reads off numpy, each present in numpy 1.24.  Dotted
# names are attributes of a submodule or of a ufunc.
FLOOR_CHECKED = {
    "abs", "add", "add.accumulate", "all", "append", "arange", "argmax", "argmin",
    "argwhere", "array", "asarray", "ascontiguousarray", "bool_", "broadcast_arrays",
    "ceil", "concatenate", "errstate", "exp", "finfo", "flatnonzero", "fromiter", "full", "inf", "int64",
    "integer", "linspace", "log", "log1p", "log2", "matmul", "maximum", "ndarray", "random",
    "random.Generator", "random.default_rng", "repeat", "shape", "sort", "spacing",
    "stack", "unravel_index", "where", "zeros",
}


def numpy_names(tree: ast.AST) -> set:
    """Each dotted name read off np or numpy in the tree: np.sort gives "sort", np.linalg.norm "linalg.norm"."""
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in ("np", "numpy"):
            parts.reverse()
            names.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return names


MODULES = sorted(SOURCE.glob("*.py"))


def test_the_package_source_is_found():
    assert {"model.py", "tv_bounds.py", "report.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_numpy_names_exist_at_the_declared_floor(path):
    unchecked = numpy_names(ast.parse(path.read_text())) - FLOOR_CHECKED
    assert not unchecked, f"{path.name} uses numpy names not checked against numpy 1.24: {sorted(unchecked)}"


def test_every_checked_name_is_used():
    used = set().union(*(numpy_names(ast.parse(path.read_text())) for path in MODULES))
    stale = FLOOR_CHECKED - used
    assert not stale, f"FLOOR_CHECKED lists numpy names the package no longer uses: {sorted(stale)}"


def test_walker_sees_plain_and_submodule_names():
    tree = ast.parse("np.vecdot(a, b)\nnp.linalg.vector_norm(x)\nnumpy.sort(y).sum()")
    assert numpy_names(tree) == {"vecdot", "linalg", "linalg.vector_norm", "sort"}
