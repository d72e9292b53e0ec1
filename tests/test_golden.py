"""The checker's output on every golden input equals the committed file.

A change that alters checker output on purpose rewrites the file with
`python -m tests.golden --write` and lists the changed lines.
"""

from tests import golden


def test_checker_output_matches_the_golden_file():
    want = golden.PATH.read_text(encoding="utf-8").splitlines()
    got = golden.lines()
    changed = [f"was {w}\nnow {g}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want), (len(got), len(want))
    assert not changed, f"{len(changed)} line(s) changed:\n" + "\n".join(changed[:5])
