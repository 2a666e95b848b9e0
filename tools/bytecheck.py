"""Compare the output of a fixed set of qseal commands between a git revision
and the working tree.

    python3 tools/bytecheck.py REV [--expect CMD ...]

REV is put in a temporary directory with ``git archive`` and each command
runs in both trees, ``src/`` first on the path.  The commands are the six of
acceptance criterion 10, ``simulate achieve`` at a second promise level
(p = 0.6, whose numeric floor rounds differently from p = 0.75 when the
trace norm changes), ``verify gentle`` at the benchmark's shape and at
dim 64 with 24 outcomes (one outcome per block, so that the sweep's
temporaries run in 24 blocks per instance), ``simulate naive`` at q = 2, 3,
12, 31, 40 and 1000 (12 to 31 are the widest rows the attack counts by
column adds), at q = 11 with 200,000 trials (five chunks of 40,328
trials, the last one partial), and at q = 1 with 1,048,583 and q = 2 with
393,221 trials (six and three full default chunks, then a last chunk that
ends part-way through a raw output), and ``seal eval`` on a second
scheme: the seeded (M, dimA, dimB) = (4, 2, 8) entangled scheme of
``perfbench/schemes.py``, so that a scheme with more than two messages and
entangled states is evaluated, and on a third: a seeded (3, 2, 16) scheme
whose merged readout holds an exact 0/1 diagonal F_1 beside a dense split
of I - F_1 (``diagonal_readout``), and on the qubit family's file written
compactly (``json.dumps`` of its document, on one line with no indent),
whose output must equal the indented file's; and both bound sweeps at
``--grid 10001``,
``bounds nfp`` also at M = 2, 3, 7 and 1000, whose tables hold enough
points for a last-bit change in a closed form (one square in about 1,200)
to show.  Both trees read the same four scheme files, written by the
working tree.  Each command's exit code, stdout (the CSV)
and stderr (the summary) are compared, and one line is printed per command:
``same`` or ``differs``, the latter with its first differing line.  Each
tree also writes the four scheme files with its own ``save_scheme``
(``write_schemes`` in a subprocess, that tree's ``src/`` first), and one
more such line is printed per file, named ``save_scheme FILE``.  The exit
code is 1 when a command or file differs that no ``--expect`` names (an
``--expect`` value names every command it equals or is a word prefix of, so
``--expect "verify gentle"`` names both gentle commands and ``--expect
save_scheme`` all four files), else 0.  Nothing is fetched: REV must be in the local
repository.

Tier-1 pins the same command set: ``tests/test_cli.py`` ``TestOutputBytes``
runs each command in-process, with the scheme files of ``write_schemes``,
and holds its exit code and the sha256 of its stdout and stderr (one per
OpenBLAS core for the rows whose last digits differ between cores).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import types
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = ["--seed", "7"]
SCHEME = "family.json"
COMPACT = "family_compact.json"
ENTANGLED = "entangled.json"
DIAGONAL = "diagonal.json"
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
    ["bounds", "dist", "--grid", "10001"],
    ["bounds", "nfp", "--grid", "10001"],
    ["bounds", "nfp", "--grid", "10001", "--M", "2", "--M", "3", "--M", "7", "--M", "1000"],
    ["simulate", "naive", "--q", "12", "--trials", "20000"],
    ["simulate", "naive", "--q", "31", "--trials", "20000"],
    ["simulate", "naive", "--q", "11", "--trials", "200000"],
    ["seal", "eval", "--scheme", DIAGONAL],
    ["verify", "gentle", "--dim", "64", "--outcomes", "24", "--instances", "2"],
    ["simulate", "naive", "--q", "1", "--trials", "1048583"],
    ["simulate", "naive", "--q", "2", "--trials", "393221"],
    ["seal", "eval", "--scheme", COMPACT],
)
# Imports the qseal of the tree whose src/ is first on the path, and refuses
# to run another copy of the package; then runs its CLI, or writes the
# scheme files with it through this file's ``write_schemes``.
_GUARD = ("import sys, qseal\n"
          "if not qseal.__file__.startswith(sys.argv[1]):\n"
          "    sys.exit(f'qseal imported from {qseal.__file__}')\n")
_MAIN = _GUARD + "import qseal.cli\nsys.exit(qseal.cli.main(sys.argv[2:]))\n"
_WRITE = _GUARD + ("import pathlib, runpy\n"
                   "runpy.run_path(sys.argv[2])['write_schemes'](pathlib.Path(sys.argv[3]))\n")

def write_schemes(workdir: Path) -> None:
    """Write the four scheme files the ``seal eval`` commands read into
    ``workdir``, with the qseal that is imported; the compact one is the
    family file's document as ``json.dumps`` writes it.
    ``perfbench/schemes.py`` is read, not imported, so nothing is written
    under perfbench/."""
    import numpy as np
    from qseal.qubit_seal import QubitSealFamily
    from qseal.seal import SealScheme, save_scheme
    from qseal.states import Povm, PureState

    save_scheme(QubitSealFamily(0.75).scheme(), workdir / SCHEME)
    (workdir / COMPACT).write_text(
        json.dumps(json.loads((workdir / SCHEME).read_text(encoding="utf-8"))),
        encoding="utf-8")
    schemes_py = ROOT / "perfbench" / "schemes.py"
    schemes = types.ModuleType("schemes")
    exec(compile(schemes_py.read_text(encoding="utf-8"), str(schemes_py), "exec"),
         schemes.__dict__)
    a = schemes.generate_scheme(4, 2, 8, np.random.default_rng(7))
    dims = (a["dimA"], a["dimB"])
    save_scheme(SealScheme(a["M"], *dims, a["promised_p"],
                           tuple(PureState(v, dims) for v in a["states"]),
                           Povm(tuple(a["povm"]))), workdir / ENTANGLED)
    save_scheme(diagonal_readout(np.random.default_rng(7)), workdir / DIAGONAL)


def diagonal_readout(rng):
    """A (M, dimA, dimB) = (3, 2, 16) scheme at promise 0.85 whose merged
    readout F_1 is exactly diagonal, the projector on the first 8 basis
    vectors (the sum of two 0/1 diagonal elements), while F_2 and F_3 split
    I - F_1 densely: V diag(w) V^dag and V diag(1 - w) V^dag, V the 8-point
    DFT on the last 8 basis vectors.  Message 1 lives on F_1's range and
    messages 2 and 3 on the columns of V where their weight is at least 0.9.
    Built elementwise, with no BLAS call, so the file has the same bytes on
    every OpenBLAS core."""
    import numpy as np
    from qseal.seal import SealScheme
    from qseal.states import Povm, PureState

    dim_a, dim_b, half = 2, 16, 8
    k = np.arange(half)
    dft = np.exp(2j * np.pi * np.outer(k, k) / half) / np.sqrt(half)
    weights = np.concatenate([rng.uniform(0.9, 1.0, 4), rng.uniform(0.0, 0.1, 4)])
    split = rng.uniform(size=half)

    def dense(w):  # V diag(w) V^dag on the last 8 basis vectors
        out = np.zeros((dim_b, dim_b), dtype=np.complex128)
        out[half:, half:] = np.einsum("ik,k,jk->ij", dft, w, dft.conj())
        return out

    def state(columns, rows):  # a random ket on C^2 (x) span of the columns
        coeffs = rng.normal(size=(dim_a, 4)) + 1j * rng.normal(size=(dim_a, 4))
        amps = np.zeros((dim_a, dim_b), dtype=np.complex128)
        amps[:, rows] = np.einsum("ak,bk->ab", coeffs, columns)
        amps = amps.ravel()
        return PureState(amps / np.sqrt((np.abs(amps) ** 2).sum()), (dim_a, dim_b))

    povm = Povm((
        ((1, 1), np.diag([1.0] * 4 + [0.0] * 12)),
        ((1, 2), np.diag([0.0] * 4 + [1.0] * 4 + [0.0] * 8)),
        ((2, 1), dense(weights * split)),
        ((2, 2), dense(weights * (1.0 - split))),
        ((3, 1), dense(1.0 - weights)),
    ))
    return SealScheme(3, dim_a, dim_b, 0.85,
                      (state(np.eye(half)[:, 2:6], slice(None, half)),
                       state(dft[:, :4], slice(half, None)),
                       state(dft[:, 4:], slice(half, None))), povm)


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


def _write(tree: Path, into: Path) -> None:
    done = subprocess.run(
        [sys.executable, "-c", _WRITE, str(tree / "src"), __file__, str(into)],
        env=_env(tree), capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"writing the scheme files with {tree}:\n{done.stderr.strip()}")


def _line_difference(what: str, a: str, b: str) -> str:
    a, b = a.splitlines(), b.splitlines()
    for number, (line_a, line_b) in enumerate(zip(a, b), 1):
        if line_a != line_b:
            return f"{what} line {number}:\n  - {line_a}\n  + {line_b}"
    if len(a) != len(b):
        return f"{what}: {len(a)} -> {len(b)} lines"
    return ""


def _first_difference(old: tuple, new: tuple) -> str:
    if old[0] != new[0]:
        return f"exit code {old[0]} -> {new[0]}"
    return (_line_difference("stdout", old[1], new[1])
            or _line_difference("stderr", old[2], new[2]))


def _file_difference(old: Path, new: Path) -> str:
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return ""
    return (_line_difference("file", a.decode("utf-8", "replace"),
                             b.decode("utf-8", "replace"))
            or f"{len(a)} -> {len(b)} bytes")


def _expected(command: str, expect: list) -> bool:
    return any(command == e or command.startswith(e + " ") for e in expect)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--expect", action="append", default=[], metavar="CMD",
                        help="a command or 'save_scheme FILE' (or a word prefix of"
                             " them) allowed to differ")
    args = parser.parse_args(argv)
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        old_tree, old_files, workdir = (Path(tmp) / name
                                        for name in ("rev", "rev-files", "work"))
        for directory in (old_tree, old_files, workdir):
            directory.mkdir()
        _archive(args.rev, old_tree)
        _write(old_tree, old_files)
        _write(ROOT, workdir)
        differences = chain(
            ((f"save_scheme {name}", _file_difference(old_files / name, workdir / name))
             for name in (SCHEME, ENTANGLED, DIAGONAL, COMPACT)),
            ((" ".join(argv_), _first_difference(_run(old_tree, argv_, workdir),
                                                 _run(ROOT, argv_, workdir)))
             for argv_ in COMMANDS))
        for name, difference in differences:
            if not difference:
                print(f"same     {name}")
                continue
            expected = _expected(name, args.expect)
            unexpected += not expected
            print(f"differs  {name}{' (expected)' if expected else ''}: {difference}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
