"""Cell-by-cell diff of the golden commands' outputs under two source trees.

    python tests/golden_diff.py PARENT_TREE CHANGE_TREE

Runs every command of test_golden_outputs.COMMANDS, with its model files,
under each tree's src in a subprocess of its own.  For each command whose
output differs it prints one line per changed column: the number of changed
cells, the largest absolute and relative difference of those that are
finite numbers on both sides, and the number of the other changed cells.  A
column is a CSV header, or a JSON key path with list indices dropped
(`[].delta`, `rows[].U`); a text line `name: STATUS {json}` contributes its
JSON under the path `name: STATUS`, and any other line is a cell of the
column `text`.  A changed exit code or stderr is named with both texts.
Exits 1 if any output changed.  pytest does not collect this file.
"""

from __future__ import annotations

import difflib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _leaves(value, path: str, found: dict) -> dict:
    """Append each leaf of a JSON value, as JSON text, to found[its key path]."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, found)
    elif isinstance(value, list):
        for item in value:
            _leaves(item, path + "[]", found)
    else:
        found.setdefault(path, []).append(json.dumps(value))
    return found


def columns(text: str) -> dict:
    """{column: [cell text, ...]} of one output: a JSON document, a CSV table or text lines."""
    try:
        return _leaves(json.loads(text), "", {})
    except ValueError:
        pass
    lines = text.splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    if rows and all(len(row) == len(rows[0]) for row in rows):
        found = {"#": [line for line in lines if line.startswith("#")]}
        found.update({name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])})
        return found
    found = {}
    for line in lines:
        head, brace, tail = line.partition(" {")
        try:
            _leaves(json.loads(brace[1:] + tail), head, found)
        except ValueError:
            found.setdefault("text", []).append(line)
    return found


def _number(cell):
    """The cell as a finite float, or None."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def compare(old: str, new: str) -> dict:
    """{column: (changed, non_numeric, max_abs, max_rel)} of each column with a changed cell.

    Cells pair up by position, and a cell missing on one side is a changed
    non-numeric cell.  max_abs and max_rel are None if no changed cell is a
    finite number on both sides; max_rel is relative to the old value.
    """
    before, after = columns(old), columns(new)
    changes = {}
    for name in {**before, **after}:
        changed = non_numeric = 0
        diffs = []
        for a, b in itertools.zip_longest(before.get(name, ()), after.get(name, ())):
            if a == b:
                continue
            changed += 1
            x, y = _number(a), _number(b)
            if x is None or y is None:
                non_numeric += 1
            else:
                diffs.append((abs(y - x), abs(y - x) / abs(x) if x else math.inf if y else 0.0))
        if changed:
            max_abs, max_rel = map(max, zip(*diffs)) if diffs else (None, None)
            changes[name] = (changed, non_numeric, max_abs, max_rel)
    return changes


def describe(old: dict, new: dict) -> list:
    """The report lines of one command's two runs; none if nothing changed."""
    lines = []
    for name, (changed, non_numeric, max_abs, max_rel) in compare(old["stdout"], new["stdout"]).items():
        numeric = f", max abs {max_abs:.3g}, max rel {max_rel:.3g}" if max_abs is not None else ""
        lines.append(f"  {name}: {changed} changed{numeric}, {non_numeric} non-numeric")
    if old["exit"] != new["exit"]:
        lines.append(f"  exit code: {old['exit']} -> {new['exit']}")
    if old["stderr"] != new["stderr"]:
        lines.append("  stderr:")
        diff = difflib.unified_diff(old["stderr"].splitlines(), new["stderr"].splitlines(), lineterm="", n=0)
        lines += [f"    {line}" for line in itertools.islice(diff, 2, None) if not line.startswith("@@")]
    return lines


def outputs(tree: str) -> list:
    """Each golden command's {argv, stdout, stderr, exit} under tree's src, from a subprocess."""
    src = Path(tree).resolve() / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--outputs"], env=env, capture_output=True, text=True, check=True)
    found = json.loads(done.stdout)
    if not Path(found["package"]).is_relative_to(src):
        sys.exit(f"{tree}: misbounds was imported from {found['package']}, not from {src}")
    return found["outputs"]


def _print_outputs() -> None:
    """The subprocess's side: run the commands under the misbounds on PYTHONPATH and print them as JSON."""
    import misbounds
    from test_golden_outputs import COMMANDS, capture

    with tempfile.TemporaryDirectory() as folder:
        found = [{"argv": argv, **capture(argv, Path(folder))} for argv in COMMANDS]
    json.dump({"package": misbounds.__file__, "outputs": found}, sys.stdout)


def main(argv: list) -> int:
    if argv == ["--outputs"]:
        _print_outputs()
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    old_runs, new_runs = outputs(argv[0]), outputs(argv[1])
    changed = 0
    for old, new in zip(old_runs, new_runs):
        lines = describe(old, new)
        if lines:
            changed += 1
            print("misbounds " + " ".join(old["argv"]), *lines, sep="\n")
    print(f"{changed} of {len(old_runs)} commands changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
