"""Compare opacity-check's output here with another checkout's.

    python -m tests.same_output OTHER_CHECKOUT [--python INTERPRETER]

It writes the check-large and check-exhaustive inputs of seeds 1-10
with perfbench.workloads' write_inputs into a temporary directory, then
runs `opacity-check FILE --emit-witness`, with and without `--order ts`,
on every input: 10,040 inputs, 20,080 calls. Each checkout runs every
call in one subprocess that imports its own src/: this checkout under
the interpreter running the tool, OTHER_CHECKOUT under INTERPRETER
(by default the same one). It prints the number of calls whose stdout,
stderr and exit status are identical, and the first mismatch. It exits
0 when every call matches, 1 otherwise.

A change that must keep checker output identical shows it with this
against its parent. Passing this checkout itself as OTHER_CHECKOUT and
the oldest supported Python as INTERPRETER, which needs no pytest,
shows that the output does not depend on the interpreter:

    python -m tests.same_output . --python python3.10

It uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Writes the inputs under argv[1] and prints one path per line; run with
# perfbench and src/ importable.
GENERATE = """
import sys
from pathlib import Path
from perfbench.workloads import WORKLOADS
workdir = Path(sys.argv[1])
for name in ("check-large", "check-exhaustive"):
    for seed in range(1, 11):
        _, paths = WORKLOADS[name]().write_inputs(seed, workdir / name / str(seed))
        print(*paths, sep="\\n")
"""

# Reads input paths from argv[1] and writes a JSON list of
# [args, stdout, stderr, status] per call to argv[2].
RUN = """
import contextlib, io, json, sys
from mvtostm.cli import opacity_check_main
calls = []
with open(sys.argv[1], encoding="utf-8") as f:
    paths = f.read().splitlines()
for path in paths:
    for args in ([path, "--emit-witness"], [path, "--emit-witness", "--order", "ts"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = opacity_check_main(args)
        calls.append([args, out.getvalue(), err.getvalue(), status])
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(calls, f)
"""


def _python(python: str, code: str, pythonpath: list[Path], *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, pythonpath))}
    done = subprocess.run(
        [python, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"subprocess failed ({done.returncode}):\n{done.stderr}")
    return done.stdout


def _calls(python: str, checkout: Path, paths_file: Path, out_file: Path) -> list:
    _python(python, RUN, [checkout / "src"], str(paths_file), str(out_file))
    with open(out_file, encoding="utf-8") as f:
        return json.load(f)


def _first_difference(a: str, b: str) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {n}: {x!r} against {y!r}"
    return f"{len(a.splitlines())} lines against {len(b.splitlines())}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m tests.same_output",
        description=__doc__.split("\n")[0],
    )
    ap.add_argument("other", metavar="OTHER_CHECKOUT", type=Path, help="a tree with a src/ directory")
    ap.add_argument(
        "--python",
        metavar="INTERPRETER",
        default=sys.executable,
        help="the interpreter that runs OTHER_CHECKOUT's calls (default: this one)",
    )
    args = ap.parse_args(argv)
    if not (args.other / "src").is_dir():
        ap.error(f"{args.other} has no src/ directory")
    other = args.other.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = _python(sys.executable, GENERATE, [ROOT / "src", ROOT], str(work / "inputs"))
        paths_file = work / "paths.txt"
        paths_file.write_text(paths, encoding="utf-8")
        here = _calls(sys.executable, ROOT, paths_file, work / "here.json")
        there = _calls(args.python, other, paths_file, work / "there.json")
    same = sum(a == b for a, b in zip(here, there))
    print(f"{same} of {len(here)} calls identical ({len(there)} in {other} under {args.python})")
    for a, b in zip(here, there):
        if a != b:
            print("first mismatch: opacity-check " + " ".join(a[0]))
            for field, x, y in zip(("stdout", "stderr", "status"), a[1:], b[1:]):
                if x != y:
                    detail = _first_difference(x, y) if field != "status" else f"{x} against {y}"
                    print(f"  {field}: {detail}")
            break
    return 0 if same == len(here) == len(there) else 1


if __name__ == "__main__":
    sys.exit(main())
