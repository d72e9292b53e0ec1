"""Compare opacity-check's output here with another checkout's.

    python -m tests.same_output OTHER_CHECKOUT

It writes the check-large and check-exhaustive inputs of seeds 1-10
with perfbench.workloads' write_inputs into a temporary directory, then
runs `opacity-check FILE --emit-witness`, with and without `--order ts`,
on every input: 10,040 inputs, 20,080 calls. Each checkout runs every
call in one subprocess that imports its own src/. It prints the number
of calls whose stdout, stderr and exit status are identical, and the
first mismatch. It exits 0 when every call matches, 1 otherwise.

A change that must keep checker output identical shows it with this
against its parent. It uses the standard library only, and pytest does
not collect it.
"""

from __future__ import annotations

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


def _python(code: str, pythonpath: list[Path], *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, pythonpath))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"subprocess failed ({done.returncode}):\n{done.stderr}")
    return done.stdout


def _calls(checkout: Path, paths_file: Path, out_file: Path) -> list:
    _python(RUN, [checkout / "src"], str(paths_file), str(out_file))
    with open(out_file, encoding="utf-8") as f:
        return json.load(f)


def _first_difference(a: str, b: str) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {n}: {x!r} against {y!r}"
    return f"{len(a.splitlines())} lines against {len(b.splitlines())}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "src").is_dir():
        print("usage: python -m tests.same_output OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = _python(GENERATE, [ROOT / "src", ROOT], str(work / "inputs"))
        paths_file = work / "paths.txt"
        paths_file.write_text(paths, encoding="utf-8")
        here = _calls(ROOT, paths_file, work / "here.json")
        there = _calls(other, paths_file, work / "there.json")
    same = sum(a == b for a, b in zip(here, there))
    print(f"{same} of {len(here)} calls identical ({len(there)} in {other})")
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
