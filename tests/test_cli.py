import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mvtostm
from mvtostm import cli, harness
from mvtostm.cli import opacity_check_main, replay_main, stress_main
from mvtostm.errors import InvariantViolation
from mvtostm.history import parse
from tests import support


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


class TestStress:
    def test_run_reports_and_exits_zero(self, capsys):
        rc = stress_main(
            ["--threads", "2", "--txs", "5", "--objects", "4", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict=opaque" in out
        assert "ro_aborted=0" in out

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
