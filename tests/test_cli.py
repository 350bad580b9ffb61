"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import main

DEMO = """
builtin.module {
  func.func @main(%n : i64) -> () {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %c4 = arith.constant 4 : index
    scf.for %i = %c0 to %c4 step %c1 {
      %s = accfg.setup on "toyvec" ("n" = %n : i64, "op" = %i : index) : !accfg.state<"toyvec">
      %t = accfg.launch %s : !accfg.token<"toyvec">
      accfg.await %t
      scf.yield
    }
    func.return
  }
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.mlir"
    path.write_text(DEMO)
    return str(path)


class TestOpt:
    def test_full_pipeline_pipelines_the_loop(self, demo_file, capsys):
        assert main(["opt", "--pipeline", "full", demo_file]) == 0
        out = capsys.readouterr().out
        assert "iter_args" in out  # state threaded through the loop
        assert "i_next" in out  # software pipelining applied

    def test_baseline_leaves_setups_in_loop(self, demo_file, capsys):
        assert main(["opt", "--pipeline", "baseline", demo_file]) == 0
        out = capsys.readouterr().out
        assert "iter_args" not in out

    def test_invalid_pipeline_rejected(self, demo_file):
        with pytest.raises(SystemExit):
            main(["opt", "--pipeline", "warp-speed", demo_file])

    def test_output_reparses(self, demo_file, capsys):
        from repro.ir import parse_module, verify_operation

        main(["opt", "--pipeline", "dedup", demo_file])
        out = capsys.readouterr().out
        verify_operation(parse_module(out))


class TestReport:
    def test_static_report(self, demo_file, capsys):
        assert main(["report", demo_file]) == 0
        out = capsys.readouterr().out
        assert "accfg.setup" in out
        assert "total (static)" in out

    def test_report_after_pipeline(self, demo_file, capsys):
        main(["report", demo_file])
        before = capsys.readouterr().out
        main(["report", demo_file, "--pipeline", "dedup"])
        after = capsys.readouterr().out
        assert before != after


class TestRun:
    def test_run_prints_metrics(self, demo_file, capsys):
        assert main(["run", demo_file, "--args", "16"]) == 0
        out = capsys.readouterr().out
        assert "total cycles" in out
        assert "toyvec" in out

    def test_optimized_run_is_faster(self, demo_file, capsys):
        def cycles_of(extra):
            main(["run", demo_file, "--args", "16", *extra])
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if "total cycles" in l)
            return float(line.split(":")[1])

        baseline = cycles_of([])
        optimized = cycles_of(["--pipeline", "full"])
        assert optimized < baseline


class TestExperimentShortcuts:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "gemmini_loop_ws" in capsys.readouterr().out

    def test_example46(self, capsys):
        assert main(["example46"]) == 0
        assert "26.78%" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "knee" in capsys.readouterr().out


#: one kind of unreadable input each: (file contents, None for a missing
#: file; what the one error line must say after the file name)
BAD_INPUTS = {
    "missing": (None, "No such file or directory"),
    "parse": (
        "func.func @main() -> () {\n  %x = arith.bogus 1\n}\n",
        "line 2:8: unknown operation 'arith.bogus' (found 'arith.bogus')",
    ),
    "verify": (
        "func.func @main(%a : i64) -> () {\n"
        "  %c = arith.constant 1 : i32\n"
        "  %y = arith.addi %a, %c : i64\n"
        "  func.return\n"
        "}\n",
        "arith.addi: operand types differ (i64 vs i32)",
    ),
    "binary": (b"func\x99", "not UTF-8 text (byte 4)"),
}

DIVIDE_BY_ZERO = """
func.func @main(%a : i64) -> (i64) {
  %z = arith.constant 0 : i64
  %y = arith.divui %a, %z : i64
  func.return %y : i64
}
"""


class TestInputErrors:
    """Bad input is one ``error:`` line naming the file, and exit status 2,
    which no subcommand uses for a result of its own."""

    @pytest.mark.parametrize("command", ["opt", "lint", "cost", "report", "run"])
    @pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
    def test_bad_input_is_one_line_and_exit_2(self, tmp_path, capsys, command, kind):
        text, expected = BAD_INPUTS[kind]
        path = tmp_path / f"{kind}.mlir"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {expected}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--args", "x"], "invalid int value: 'x'"),
            (["run", "--pipeline", "warp"], "invalid choice: 'warp'"),
            (["report", "--pipeline", "warp"], "invalid choice: 'warp'"),
        ],
    )
    def test_bad_option_values_exit_2(self, demo_file, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], demo_file, *argv[1:]])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_run_reports_a_program_error_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "divide.mlir"
        path.write_text(DIVIDE_BY_ZERO)
        assert main(["run", str(path), "--args", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: arith.divui by zero\n"
