"""Golden CLI outputs: a fixed list of commands, each compared by digest with a manifest.

Each command runs through cli.main in this process, and its stdout, stderr
and exit code are compared with golden_outputs.json, which holds the sha256
of each stream, not its text.  A refactor that should leave every output
byte-identical is checked by this test alone; a change that means to alter
an output rewrites the manifest and says which commands changed.

The manifest records the Python and numpy versions it was made under, since
another numpy may round a ufunc differently in the last bit.  To rewrite it:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from misbounds.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden_outputs.json"

# Model files, written afresh for each run; an argv names one by its key.
MODEL_FILES = {
    "{csv_model}": ("model.csv", "0.25,0.05,0.02\n0.05,0.2,0.08\n0.03,0.07,0.25\n"),
    "{json_model}": ("model.json", '{"w": [[0.3, 0.1, 0.05], [0.05, 0.2, 0.3]]}\n'),
}

SPECS = [
    {"family": "pure", "a": [0.5, 0.3, 0.2], "weights": [0.6, 0.4], "perms": [[1, 2, 3], [3, 1, 2]]},
    {"family": "binomial", "m": 3, "q": 0.2},
    {"family": "exponential", "k": 8, "q": 0.3},
    {"family": "exponential", "k": 2, "q": 1e-13},
    {"family": "exponential", "k": 3, "q": 1e-200},
    {"family": "three_class", "p": 0.3, "eps": 0.1},
    {"family": "three_class", "p": 0.0, "eps": 0.0},
    {"family": "comp_lo", "k": 10, "ell": 3},
    {"family": "comp_lo", "k": 10, "ell": 8},
    {"family": "comp_hi", "k": 10, "nu": 2.5},
]

BOTH_FORMATS = [["--format", "csv"], ["--format", "json"]]

COMMANDS = [
    *([name, *fmt] for name in ("fig1", "fig2", "fig3", "compare-lo", "compare-hi") for fmt in BOTH_FORMATS),
    ["verify"],
    ["verify", "--format", "json"],
    *(["report", source, *fmt] for source in ("{csv_model}", "{json_model}") for fmt in ([], ["--format", "csv"])),
    *(["report", "--family", json.dumps(spec), *fmt] for spec in SPECS for fmt in ([], ["--format", "csv"])),
    *(
        [*argv, *fmt]
        for argv in (["fig2", "--p", "0", "0.3"], ["fig3", "--k", "2", "16", "--q-step", "0.001"], ["compare-hi", "--nu", "2.999", "--k", "50"])
        for fmt in BOTH_FORMATS
    ),
    ["compare-hi", "--nu", "9007199254740991", "--k", "9007199254740996"],
    ["compare-hi", "--nu", "1e19", "--k", "10000000000000000001"],
    ["fig1", "--k", str(2**60)],
    ["fig3", "--k", str(2**60)],
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list, folder: Path) -> dict:
    """The sha256 of stdout and stderr and the exit code of one command, with its model files in folder."""
    paths = {}
    for key, (name, text) in MODEL_FILES.items():
        paths[key] = str(folder / name)
        Path(paths[key]).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    return {"stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue()), "exit": code}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_manifest_lists_exactly_these_commands():
    assert [entry["argv"] for entry in load_manifest()["commands"]] == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_the_manifest(argv, tmp_path):
    manifest = load_manifest()
    expected = next(entry for entry in manifest["commands"] if entry["argv"] == argv)
    got = run(argv, tmp_path)
    changed = [stream for stream in ("stdout", "stderr", "exit") if got[stream] != expected[stream]]
    recorded = {key: manifest[key] for key in ("python", "numpy")}
    assert not changed, (
        f"`misbounds {' '.join(argv)}` changed its {', '.join(changed)}"
        f" (manifest made under {recorded}, running under {versions()})"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        entries = [{"argv": argv, **run(argv, Path(folder))} for argv in COMMANDS]
    lines = ",\n".join(f"  {json.dumps(entry)}" for entry in entries)
    head = json.dumps(versions())[1:-1]
    MANIFEST.write_text(f'{{{head},\n "commands": [\n{lines}\n ]\n}}\n')
    print(f"wrote {len(entries)} commands to {MANIFEST}", file=sys.stderr)
