import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import mvtostm
from mvtostm import checker, cli, harness
from mvtostm.cli import opacity_check_main, replay_main, stress_main
from mvtostm.errors import InvariantViolation
from mvtostm.history import parse
from tests import golden, support


@pytest.fixture()
def reference_file(tmp_path):
    p = tmp_path / "reference.hist"
    p.write_text(support.REFERENCE_TEXT)
    return str(p)


@pytest.fixture()
def opaque_file(tmp_path):
    p = tmp_path / "replayed.hist"
    p.write_text(support.REFERENCE_REPLAYED)
    return str(p)


class TestOpacityCheck:
    def test_not_opaque_exits_one(self, reference_file, capsys):
        assert opacity_check_main([reference_file]) == 1
        out = capsys.readouterr().out
        assert "not opaque" in out
        assert "1->2->1" in out

    def test_opaque_exits_zero(self, opaque_file, capsys):
        assert opacity_check_main([opaque_file]) == 0
        assert "opaque" in capsys.readouterr().out

    def test_order_ts_and_auto_agree_here(self, reference_file, opaque_file):
        assert opacity_check_main([reference_file, "--order", "ts"]) == 1
        assert opacity_check_main([reference_file, "--order", "auto"]) == 1
        assert opacity_check_main([opaque_file, "--order", "ts"]) == 0
        assert opacity_check_main([opaque_file, "--order", "auto"]) == 0

    def test_order_brute_is_rejected(self, reference_file, capsys):
        # auto already searches every version order when timestamps fail
        with pytest.raises(SystemExit) as exc:
            opacity_check_main([reference_file, "--order", "brute"])
        assert exc.value.code == 2
        assert "invalid choice: 'brute'" in capsys.readouterr().err

    def test_emit_witness_output_is_checkable(self, opaque_file, capsys):
        assert opacity_check_main([opaque_file, "--emit-witness"]) == 0
        out = capsys.readouterr().out
        order_lines = [l for l in out.splitlines() if l.startswith("# order")]
        assert len(order_lines) == 3  # one per object
        body = "\n".join(
            l for l in out.splitlines()[1:] if not l.startswith("#")
        )
        witness = parse(body + "\n")
        from mvtostm.checker import equivalent, illegal_read, is_t_sequential

        assert is_t_sequential(witness)
        assert illegal_read(witness) is None
        assert equivalent(witness, parse(support.REFERENCE_REPLAYED).complete())

    def test_calls_share_the_parser_but_no_state(
        self, reference_file, opaque_file, capsys
    ):
        assert cli._checker_parser() is cli._checker_parser()
        assert opacity_check_main([reference_file]) == 1
        default = capsys.readouterr()
        assert "(72 tried)" in default.out
        rc = opacity_check_main([reference_file, "--order", "ts", "--budget", "10"])
        assert rc == 1
        assert "under the supplied version order" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            opacity_check_main([reference_file, "--budget", "many"])
        assert exc.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err
        assert opacity_check_main([opaque_file, "--emit-witness"]) == 0
        assert "# order" in capsys.readouterr().out
        assert opacity_check_main([opaque_file]) == 0
        assert "# order" not in capsys.readouterr().out
        assert opacity_check_main([reference_file]) == 1
        assert capsys.readouterr() == default

    def test_small_budget_is_undecided(self, reference_file, capsys):
        rc = opacity_check_main([reference_file, "--order", "auto", "--budget", "10"])
        assert rc == 2
        assert "undecided" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        not_utf8 = tmp_path / "binary.hist"
        not_utf8.write_bytes(b"\xff\xfe")
        for path in (tmp_path / "nope.hist", not_utf8):
            rc = opacity_check_main([str(path)])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_malformed_history(self, tmp_path, capsys):
        p = tmp_path / "bad.hist"
        p.write_text("r 1 x\n")
        assert opacity_check_main([str(p)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_invalid_read_exits_one(self, tmp_path, capsys):
        p = tmp_path / "invalid.hist"
        p.write_text("r 1 x 7\n")
        assert opacity_check_main([str(p)]) == 1
        assert "invalid read" in capsys.readouterr().out

    def test_ambiguous_values_rejected(self, tmp_path, capsys):
        # Two committed writers of the same value are fine until a read
        # has to resolve which one it observed.
        p = tmp_path / "dup.hist"
        p.write_text("w 1 x 7\nc 1\nw 2 x 7\nc 2\nr 3 x 7\n")
        assert opacity_check_main([str(p)]) == 2
        assert "unique" in capsys.readouterr().err


FLAG_SETS = ([], ["--emit-witness"], ["--order", "ts"], ["--order", "ts", "--emit-witness"])


def _call(path: Path) -> list[tuple[int, str, str]]:
    """Exit status, stdout and stderr of opacity-check on path, once per
    flag set."""
    outcomes = []
    for flags in FLAG_SETS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = opacity_check_main([str(path), *flags])
        outcomes.append((rc, out.getvalue(), err.getvalue()))
    return outcomes


def _same_without_certifier(path: Path, text: str) -> bool:
    """Assert that opacity-check answers alike as shipped and with
    certify_text declining every text; True when it certified text."""
    path.write_text(text, encoding="utf-8")
    shipped = _call(path)
    with mock.patch.object(checker, "certify_text", return_value=None):
        assert _call(path) == shipped, text
    return checker.certify_text(text) is not None


def _mutated(lines: list[str], how: str, pick: int) -> list[str]:
    """lines with one change of the kind how, placed by pick."""
    lines = list(lines)
    rng = random.Random(pick)
    at = rng.randrange(len(lines) + 1)
    # the event lines, as tokens, by position
    events = {
        i: t for i, t in enumerate(line.split() for line in lines)
        if len(t) in (2, 4) and t[1].isdigit()
    }
    fresh = max((int(t[1]) for t in events.values()), default=0) + 1
    committed = {t[1] for t in events.values() if t[0] == "c"}
    writes = [t for t in events.values() if t[0] == "w"]
    if how == "empty":
        return []
    if how == "comment":
        if lines and rng.random() < 0.5:
            lines[at % len(lines)] += "  # note"
        else:
            lines.insert(at, "# note")
    elif how == "blank":
        lines.insert(at, rng.choice(["", "   ", "\t"]))
    elif how == "spacing" and lines:
        i = at % len(lines)
        lines[i] = lines[i].replace(" ", rng.choice(["\t", "  "]), 1)
    elif how == "crlf":
        lines = [line + "\r" for line in lines]
    elif how == "leading_zero" and events:
        i = rng.choice(sorted(events))
        t = list(events[i])
        slot = rng.choice([1, 3]) if len(t) == 4 else 1
        t[slot] = "-0" if t[slot] == "0" else "0" + t[slot]
        lines[i] = " ".join(t)
    elif how == "stale_read":
        reads = [i for i, t in events.items() if t[0] == "r"]
        if reads:
            i = rng.choice(reads)
            obj = events[i][2]
            values = ["0"] + [w[3] for w in writes if w[2] == obj and w[1] in committed]
            lines[i] = " ".join(events[i][:3] + [rng.choice(values)])
    elif how == "uncommitted_read" and writes:
        # a new transaction reads the value just before its writer ends
        w = rng.choice(writes)
        ends = [i for i, t in events.items() if t[1] == w[1] and t[0] in "ca"]
        end = ends[0] if ends else len(lines)
        lines[end:end] = [f"b {fresh}", f"r {fresh} {w[2]} {w[3]}", f"c {fresh}"]
    elif how == "duplicate_value" and writes:
        w = rng.choice(writes)
        lines += [f"b {fresh}", f"w {fresh} {w[2]} {w[3]}", f"c {fresh}"]
        if rng.random() < 0.5:
            lines += [f"b {fresh + 1}", f"r {fresh + 1} {w[2]} {w[3]}", f"c {fresh + 1}"]
    elif how == "late_small_id":
        # a larger id terminates before every other transaction begins
        lines = [f"b {fresh}", f"c {fresh}"] + lines
    elif how == "live":
        ends = [i for i, t in events.items() if t[0] in "ca"]
        if ends:
            del lines[rng.choice(ends)]
    return lines


MUTATIONS = (
    "comment",
    "blank",
    "spacing",
    "crlf",
    "leading_zero",
    "stale_read",
    "uncommitted_read",
    "duplicate_value",
    "late_small_id",
    "live",
    "empty",
)


class TestCertifiedPath:
    """opacity-check certifies the timestamp order from the text when it
    can. Its stdout, stderr and exit status must be those of parsing and
    checking, which run when certify_text declines."""

    def test_golden_inputs(self, tmp_path):
        texts = [getattr(support, name) for name in (
            "REFERENCE_TEXT",
            "REFERENCE_REPLAYED",
            "WRITE_SKEW_TEXT",
            "ABORTED_READER_TEXT",
            "CYCLIC_FIRST_PREFIX_TEXT",
        )]
        texts.extend(h.serialize() for _name, h in golden.inputs())
        path = tmp_path / "h.hist"
        certified = sum(_same_without_certifier(path, text) for text in texts)
        # both paths run
        assert 200 < certified < len(texts) - 200, certified

    def test_engine_histories(self, tmp_path):
        path = tmp_path / "h.hist"
        for seed in range(4):
            for threads, gc in ((1, None), (2, 1), (3, 2)):
                cfg = harness.WorkloadConfig(
                    threads=threads, txs_per_thread=40, object_count=3,
                    gc_threshold=gc, seed=seed,
                )
                history = harness.run(cfg).history
                assert _same_without_certifier(path, history.serialize())

    @settings(max_examples=300)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        replayed=st.booleans(),
        changes=st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(min_value=0, max_value=10_000)),
            max_size=3,
        ),
    )
    def test_mutated_texts(self, seed, replayed, changes):
        if replayed:
            h = harness.replay(support.random_replay_script(seed))
        else:
            h = support.random_concurrent_history(seed)
        lines = h.serialize().splitlines()
        for how, pick in changes:
            lines = _mutated(lines, how, pick)
        text = "".join(line + "\n" for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            _same_without_certifier(Path(tmp) / "h.hist", text)


class TestStress:
    def test_run_reports_and_exits_zero(self, capsys):
        rc = stress_main(
            ["--threads", "2", "--txs", "5", "--objects", "4", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict=opaque" in out
        assert "ro_aborted=0" in out
        assert "lock_handoffs=" in out and " hand-offs" in out

    def test_dump_round_trips(self, tmp_path, capsys):
        dump = tmp_path / "run.hist"
        rc = stress_main(
            [
                "--threads", "2", "--txs", "4", "--objects", "4",
                "--seed", "2", "--dump", str(dump),
            ]
        )
        assert rc == 0
        h = parse(dump.read_text())
        assert len(h) > 0
        capsys.readouterr()

    def test_unwritable_dump_exits_two(self, tmp_path, capsys):
        dump = tmp_path / "missing" / "h.txt"
        rc = stress_main(
            ["--threads", "1", "--txs", "2", "--objects", "2", "--dump", str(dump)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {dump}: ")

    def test_gc_threshold_zero_disables(self, capsys):
        rc = stress_main(
            [
                "--threads", "1", "--txs", "3", "--objects", "2",
                "--gc-threshold", "0", "--seed", "3",
            ]
        )
        assert rc == 0
        assert "gc_deleted=0" in capsys.readouterr().out

    def test_range_arguments(self, capsys):
        rc = stress_main(
            [
                "--threads", "1", "--txs", "3", "--objects", "4",
                "--reads", "2..3", "--writes", "1", "--seed", "4",
            ]
        )
        assert rc == 0
        capsys.readouterr()

    def test_bad_config_exits_two(self, capsys):
        assert stress_main(["--threads", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_inverted_range_exits_two(self, capsys):
        assert stress_main(["--reads", "3..1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc",
        [
            InvariantViolation("live set not drained: [3]"),
            TimeoutError("watchdog: workers [0] still running after 60 s"),
        ],
        ids=["invariant", "watchdog"],
    )
    def test_run_failure_exits_two(self, monkeypatch, capsys, exc):
        # exit 1 means a non-opaque history, so a failed run must not reach it
        def failing(config):
            raise exc

        monkeypatch.setattr(harness, "run", failing)
        assert stress_main(["--threads", "1", "--txs", "1"]) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_unparseable_range_rejected(self, capsys):
        with pytest.raises(SystemExit):
            stress_main(["--reads", "lots"])
        capsys.readouterr()


class TestReplayCli:
    def test_stdout_serialization(self, tmp_path, capsys):
        script = tmp_path / "s.txt"
        script.write_text(support.REFERENCE_SCRIPT)
        assert replay_main([str(script)]) == 0
        assert capsys.readouterr().out == support.REFERENCE_REPLAYED

    def test_non_decimal_digit_object_name(self, tmp_path, capsys):
        script = tmp_path / "s.txt"
        script.write_text(
            "objects ²\nstep a b\nstep a w ² 5\nstep a c\n", encoding="utf-8"
        )
        assert replay_main([str(script)]) == 0
        assert capsys.readouterr().out == "b 1\nw 1 ² 5\nc 1\n"

    def test_dump_writes_file(self, tmp_path, capsys):
        script = tmp_path / "s.txt"
        script.write_text(support.REFERENCE_SCRIPT)
        dump = tmp_path / "out.hist"
        assert replay_main([str(script), "--dump", str(dump)]) == 0
        assert dump.read_text() == support.REFERENCE_REPLAYED
        capsys.readouterr()

    def test_unwritable_dump_exits_two(self, tmp_path, capsys):
        script = tmp_path / "s.txt"
        script.write_text(support.REFERENCE_SCRIPT)
        dump = tmp_path / "missing" / "h.txt"
        assert replay_main([str(script), "--dump", str(dump)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {dump}: ")

    def test_bad_script_exits_two(self, tmp_path, capsys):
        script = tmp_path / "s.txt"
        for text, line in (
            ("objects x\nstep a r x\n", 2),
            # the STM refuses a read after a write
            ("objects x\nstep 0 b\nstep 0 w x 5\nstep 0 r x\n", 4),
        ):
            script.write_text(text)
            assert replay_main([str(script)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {line}: ")

    def test_missing_script(self, tmp_path, capsys):
        not_utf8 = tmp_path / "binary.txt"
        not_utf8.write_bytes(b"\xff\xfe")
        for path in (tmp_path / "nope.txt", not_utf8):
            assert replay_main([str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


class TestInstalledEntryPoints:
    def test_console_script_runs(self, tmp_path):
        exe = shutil.which("opacity-check")
        if exe is None:
            pytest.skip("console script not on PATH")
        hist = tmp_path / "h.hist"
        hist.write_text(support.REFERENCE_TEXT)
        proc = subprocess.run(
            [exe, str(hist)], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1
        assert "not opaque" in proc.stdout

    def test_module_pipeline(self, tmp_path):
        # replay a script, then feed the dump to the checker; the child
        # imports the same package as this process, installed or not
        package_root = str(Path(mvtostm.__file__).parents[1])
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        script = tmp_path / "s.txt"
        script.write_text(support.REFERENCE_SCRIPT)
        dump = tmp_path / "d.hist"
        r1 = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from mvtostm.cli import replay_main;"
                "sys.exit(replay_main(sys.argv[1:]))",
                str(script), "--dump", str(dump),
            ],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert r1.returncode == 0, r1.stderr
        r2 = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from mvtostm.cli import opacity_check_main;"
                "sys.exit(opacity_check_main(sys.argv[1:]))",
                str(dump),
            ],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert r2.returncode == 0, r2.stderr
        assert "opaque" in r2.stdout
