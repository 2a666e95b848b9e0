"""Compare the output of a fixed set of qseal commands between a git revision
and the working tree.

    python3 tools/bytecheck.py REV [--expect CMD ...]

REV is put in a temporary directory with ``git archive`` and each command
runs in both trees, ``src/`` first on the path.  The commands are the six of
acceptance criterion 10, ``simulate achieve`` at a second promise level
(p = 0.6, whose numeric floor rounds differently from p = 0.75 when the
trace norm changes), ``verify gentle`` at the benchmark's shape and
``simulate naive`` at q = 2, 3, 40 and 1000, and ``seal eval`` on a second
scheme: the seeded (M, dimA, dimB) = (4, 2, 8) entangled scheme of
``perfbench/schemes.py``, so that more than two messages share one stacked
evaluation.  Both trees read the same two scheme files, written once by the
working tree.  Each command's exit code, stdout (the CSV) and stderr (the
summary) are compared, and one line is printed per command: ``same`` or
``differs``, the latter with its first differing line.  The exit code is
1 when a command differs that no ``--expect`` names (an ``--expect`` value
names every command it equals or is a word prefix of, so ``--expect
"verify gentle"`` names both gentle commands), else 0.  Nothing is
fetched: REV must be in the local repository.

Tier-1 pins the same command set: ``tests/test_cli.py`` ``TestOutputBytes``
runs each command in-process, with the scheme files of ``write_schemes``,
and holds its exit code and the sha256 of its stdout and stderr.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = ["--seed", "7"]
SCHEME = "family.json"
ENTANGLED = "entangled.json"
COMMANDS = (
    ["bounds", "dist"],
    ["bounds", "nfp"],
    ["verify", "gentle", "--dim", "8", "--outcomes", "4", "--instances", "50"],
    ["simulate", "naive", "--q", "2", "--trials", "20000"],
    ["simulate", "achieve", "--p", "0.75"],
    ["simulate", "achieve", "--p", "0.6"],
    ["seal", "eval", "--scheme", SCHEME],
    ["verify", "gentle", "--dim", "16", "--outcomes", "4", "--instances", "100"],
    ["simulate", "naive", "--q", "3", "--trials", "20000"],
    ["simulate", "naive", "--q", "40", "--trials", "20000"],
    ["simulate", "naive", "--q", "1000", "--trials", "2000"],
    ["seal", "eval", "--scheme", ENTANGLED],
)
# Runs the CLI of the tree whose src/ is first on the path, and refuses to
# run another copy of the package.
_MAIN = ("import sys, qseal, qseal.cli\n"
         "if not qseal.__file__.startswith(sys.argv[1]):\n"
         "    sys.exit(f'qseal imported from {qseal.__file__}')\n"
         "sys.exit(qseal.cli.main(sys.argv[2:]))\n")

def write_schemes(workdir: Path) -> None:
    """Write the two scheme files the ``seal eval`` commands read into
    ``workdir``, with the qseal that is imported.  ``perfbench/schemes.py``
    is read, not imported, so nothing is written under perfbench/."""
    import numpy as np
    from qseal.qubit_seal import QubitSealFamily
    from qseal.seal import SealScheme, save_scheme
    from qseal.states import Povm, PureState

    save_scheme(QubitSealFamily(0.75).scheme(), workdir / SCHEME)
    schemes_py = ROOT / "perfbench" / "schemes.py"
    schemes = types.ModuleType("schemes")
    exec(compile(schemes_py.read_text(encoding="utf-8"), str(schemes_py), "exec"),
         schemes.__dict__)
    a = schemes.generate_scheme(4, 2, 8, np.random.default_rng(7))
    dims = (a["dimA"], a["dimB"])
    save_scheme(SealScheme(a["M"], *dims, a["promised_p"],
                           tuple(PureState(v, dims) for v in a["states"]),
                           Povm(tuple(a["povm"]))), workdir / ENTANGLED)


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def _archive(rev: str, into: Path) -> None:
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
    if tar.returncode:
        sys.exit(f"git archive {rev}: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, filter="data")


def _run(tree: Path, argv: list, workdir: Path) -> tuple:
    done = subprocess.run(
        [sys.executable, "-c", _MAIN, str(tree / "src"), *argv, *SEED],
        cwd=workdir, env=_env(tree), capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def _first_difference(old: tuple, new: tuple) -> str:
    if old[0] != new[0]:
        return f"exit code {old[0]} -> {new[0]}"
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        a, b = a.splitlines(), b.splitlines()
        for number, (line_a, line_b) in enumerate(zip(a, b), 1):
            if line_a != line_b:
                return f"{stream} line {number}:\n  - {line_a}\n  + {line_b}"
        if len(a) != len(b):
            return f"{stream}: {len(a)} -> {len(b)} lines"
    return ""


def _expected(command: str, expect: list) -> bool:
    return any(command == e or command.startswith(e + " ") for e in expect)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--expect", action="append", default=[], metavar="CMD",
                        help="a command (or word prefix of commands) allowed to differ")
    args = parser.parse_args(argv)
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        old_tree, workdir = Path(tmp) / "rev", Path(tmp) / "work"
        old_tree.mkdir()
        workdir.mkdir()
        _archive(args.rev, old_tree)
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(ROOT / "src"))
        write_schemes(workdir)
        for argv_ in COMMANDS:
            command = " ".join(argv_)
            difference = _first_difference(_run(old_tree, argv_, workdir),
                                           _run(ROOT, argv_, workdir))
            if not difference:
                print(f"same     {command}")
                continue
            expected = _expected(command, args.expect)
            unexpected += not expected
            print(f"differs  {command}{' (expected)' if expected else ''}: {difference}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
