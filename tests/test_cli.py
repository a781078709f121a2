"""CLI behavior: exit codes, formats, determinism, golden values."""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import blend
import blend.cli as cli
from blend.cli import main
from blend.output import canonical_json


# Child processes import the package under test even when PYTHONPATH does not name it.
SRC_DIR = str(Path(blend.__file__).resolve().parents[1])


def run_cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    merged = dict(os.environ, PYTHONPATH=SRC_DIR)
    merged.setdefault("BLEND_THREADS", "0")
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "blend", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


def run_json(*args: str, expect_code: int = 0, env: dict | None = None) -> dict:
    proc = run_cli(*args, "--format", "json", env=env)
    assert proc.returncode == expect_code, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


class TestDiff:
    def test_sin_trace_matches_reference_rows(self):
        payload = run_json("diff", "sin", "--theta", "0", "--h0", "0.1", "--n-max", "8")
        expected = [
            0.998334166468282,
            1.003321678961257,
            1.000029893016725,
            0.999980308400858,
            0.999999646316608,
            1.000000137620388,
            1.000000003815154,
            0.999999998963623,
        ]
        deltas = [row["delta"] for row in payload["trace"]]
        assert all(abs(d - e) <= 1e-12 for d, e in zip(deltas, expected))
        assert payload["report"]["stabilized"] is True
        assert payload["report"]["eval_count"] == 9

    def test_unit_step_without_refinement_exits_2(self):
        proc = run_cli("diff", "sin", "--theta", "0", "--h0", "1.0", "--refinements", "0")
        assert proc.returncode == 2
        assert "stabilized: false" in proc.stdout

    def test_unit_step_carries_domain_caveat(self):
        payload = run_json("diff", "sin", "--h0", "1.0", "--refinements", "0", expect_code=2)
        assert any("certified-step limit" in note for note in payload["notes"])

    def test_quartic_stabilizes_to_160(self):
        payload = run_json("diff", "quartic5", "--theta", "2", "--h0", "0.001")
        report = payload["report"]
        assert report["stabilized"] is True
        assert report["agreed_digits"] >= 10
        assert abs(report["value"] - 160.0) <= 1e-8

    def test_expression_function(self):
        payload = run_json("diff", "theta^3", "--theta", "2", "--h0", "0.01")
        assert abs(payload["report"]["value"] - 12.0) <= 1e-7

    def test_unknown_function_usage_error(self):
        proc = run_cli("diff", "nosuchfn", "--theta", "1")
        assert proc.returncode == 64
        assert "unknown function" in proc.stderr

    def test_oracle_failure_exits_70(self):
        proc = run_cli("diff", "ln(theta)", "--theta", "-1", "--h0", "0.01")
        assert proc.returncode == 70
        assert "error:" in proc.stderr

    def test_bad_flag_usage_error(self):
        proc = run_cli("diff", "sin", "--n-max", "1")
        assert proc.returncode == 64


class TestDirection:
    def test_axis_direction(self):
        payload = run_json(
            "direction", "--a", "1,2,3", "--theta", "1,1,1", "--v", "1,0,0", "--h0", "0.01"
        )
        assert abs(payload["report"]["value"] - 2.0) <= 1e-9
        assert payload["analytic_reference"] == 2.0

    def test_reference_near_the_top_of_the_float_range(self):
        # 2 * a overflows for a = 1e308; the derivative 2 * a * 0.5 does not.
        payload = run_json("direction", "--a", "1e308", "--theta", "0.5", "--v", "1")
        assert payload["analytic_reference"] == 1e308
        assert abs(payload["report"]["value"] - 1e308) <= 1e-12 * 1e308

    def test_nine_dimensional_run(self):
        payload = run_json(
            "direction",
            "--a", "0.5,0.25,0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625,0.001953125",
            "--theta", "1,2,3,4,5,6,7,8,9",
            "--v", "-1,1,-1,-1,1,1,1,-1,1",
            "--normalize",
            "--h0", "0.001",
        )
        assert abs(payload["analytic_reference"] - (-0.22265625)) <= 1e-15
        assert abs(payload["report"]["value"] - (-0.22265625)) <= 1e-9

    def test_eval_count_independent_of_dimension(self):
        counts = []
        for m in (3, 9):
            ones = ",".join(["1"] * m)
            axis = ",".join(["1"] + ["0"] * (m - 1))
            payload = run_json("direction", "--a", ones, "--theta", ones, "--v", axis, "--h0", "0.01")
            counts.append(payload["report"]["eval_count"])
        assert counts[0] == counts[1]

    def test_dimension_mismatch_usage_error(self):
        proc = run_cli("direction", "--a", "1,2", "--theta", "1", "--v", "1,0")
        assert proc.returncode == 64

    def test_unnormalized_direction_rejected_without_flag(self):
        proc = run_cli("direction", "--a", "1,1", "--theta", "1,1", "--v", "1,1")
        assert proc.returncode == 64


class TestPlan:
    def test_worked_example(self):
        payload = run_json("plan", "--M", "120", "--b", "2.4", "--N", "2", "--K", "6", "--formula", "eq12")
        assert 1.2e-4 <= payload["h_star"] <= 1.4e-4
        assert payload["clipped"] is False

    def test_domain_limit_printed(self):
        payload = run_json("plan", "--M", "1", "--b", "1", "--N", "4", "--K", "6")
        assert abs(payload["h_domain_limit"] - 0.18393972058572117) <= 1e-15

    def test_more_digits_smaller_step(self):
        h6 = run_json("plan", "--M", "1", "--b", "1", "--N", "4", "--K", "6")["h_star"]
        h7 = run_json("plan", "--M", "1", "--b", "1", "--N", "4", "--K", "7")["h_star"]
        assert h7 < h6

    def test_clipped_fallback_still_exits_zero(self):
        payload = run_json("plan", "--M", "1e-30", "--b", "1", "--N", "1", "--K", "1")
        assert payload["clipped"] is True
        assert payload["notes"]

    def test_nonpositive_envelope_usage_error(self):
        proc = run_cli("plan", "--M", "-1", "--b", "1", "--N", "2", "--K", "4")
        assert proc.returncode == 64


class TestTables:
    def test_table_1_all_match(self):
        payload = run_json("tables", "1")
        table = payload["tables"][0]
        assert table["h"] == 0.1
        assert all(row["match"] for row in table["rows"])
        assert table["matches"] == 8

    def test_table_2_matches_and_does_not_stabilize(self):
        table = run_json("tables", "2")["tables"][0]
        assert all(row["match"] for row in table["rows"])
        assert table["stabilized"] is False

    def test_table_3_known_mismatch_pattern(self):
        table = run_json("tables", "3")["tables"][0]
        matches = [row["match"] for row in table["rows"]]
        assert matches[0] and matches[1]
        assert not matches[2]  # published N=3 row carries the other step's signature
        assert table["notes"]

    def test_table_4_documented_discrepancy(self):
        table = run_json("tables", "4")["tables"][0]
        assert not any(row["match"] for row in table["rows"])
        assert abs(table["computed_reference"] - (-0.22265625)) <= 1e-12
        assert any("inconsistent" in note for note in table["notes"])

    def test_table_5_documented_discrepancy(self):
        table = run_json("tables", "5")["tables"][0]
        assert not any(row["match"] for row in table["rows"])
        assert abs(table["computed_reference"] - table["driver_value"]) <= 1e-6
        assert any("not reproduced" in note for note in table["notes"])

    def test_all_tables(self):
        payload = run_json("tables", "all")
        assert [t["table"] for t in payload["tables"]] == [1, 2, 3, 4, 5]

    def test_unknown_table_usage_error(self):
        assert run_cli("tables", "9").returncode == 64
        assert run_cli("tables", "foo").returncode == 64


class TestQueue:
    def test_default_run_stabilizes(self):
        payload = run_json("queue")
        report = payload["report"]
        assert report["stabilized"] is True
        diag = payload["diagnostics"]
        assert diag["states"] == 121
        assert diag["stationary_residual_inf_norm"] <= 1e-10 * 4.0
        assert abs(diag["stationary_sum"] - 1.0) <= 1e-12
        # cross-check against an independent central difference
        step = 1e-5
        from blend import TandemQueueModel, blocking_probability

        lo = blocking_probability(TandemQueueModel(1.0 - step, 1.0, 2.0, 10, 10))
        hi = blocking_probability(TandemQueueModel(1.0 + step, 1.0, 2.0, 10, 10))
        assert abs(report["value"] - (hi - lo) / (2 * step)) <= 1e-6

    def test_four_state_instance(self):
        payload = run_json("queue", "--cap1", "1", "--cap2", "1", "--mu2", "1.0", "--h0", "0.01")
        assert payload["diagnostics"]["states"] == 4
        assert abs(payload["diagnostics"]["blocking_probability"] - 0.6) <= 1e-12

    def test_stationary_csv_export(self, tmp_path: Path):
        out = tmp_path / "pi.csv"
        proc = run_cli("queue", "--stationary-csv", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n1,n2,prob"
        assert len(lines) == 122
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert abs(total - 1.0) <= 1e-10

    def test_nonpositive_rate_usage_error(self):
        assert run_cli("queue", "--lambda", "0").returncode == 64
        assert run_cli("queue", "--mu1", "-1").returncode == 64

    def test_oversized_capacity_usage_error(self):
        assert run_cli("queue", "--cap1", "41").returncode == 64


class TestQueueSolveCounts:
    """Each queue-backed command makes one stacked stationary solve per attempt and none besides."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import blend.models as models

        calls = []
        solve_stack = models._solve_stack

        def counted(model, arrival_rates):
            calls.append(list(arrival_rates))
            return solve_stack(model, arrival_rates)

        monkeypatch.setattr(models, "_solve_stack", counted)
        return calls

    @pytest.mark.parametrize("h0", ["0.01", "0.5"])
    def test_queue_one_solve_per_attempt(self, capsys, solves, h0):
        assert main(["queue", "--h0", h0, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert len(solves) == report["refinements"] + 1
        assert all(len(rates) == 9 for rates in solves)

    @pytest.mark.parametrize("which", ["5", "all"])
    def test_tables_one_solve_in_total(self, capsys, solves, which):
        assert main(["tables", which, "--format", "json"]) == 0
        capsys.readouterr()
        assert len(solves) == 1
        assert len(solves[0]) == 11

    def test_diagnostics_and_csv_are_the_base_solve(self, capsys, tmp_path: Path):
        from blend import TandemQueueModel, solve_stationary
        from blend.models import blocking_mass
        from blend.output import render_csv

        model = TandemQueueModel(0.8, 1.3, 0.7, 6, 9)
        path = tmp_path / "pi.csv"
        args = ["queue", "--lambda", "0.8", "--mu1", "1.3", "--mu2", "0.7", "--cap1", "6", "--cap2", "9", "--h0", "0.2"]
        assert main([*args, "--stationary-csv", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["refinements"] > 0
        stationary = solve_stationary(model)
        rows = [{"n1": n1, "n2": n2, "prob": float(stationary.probabilities[model.state_index(n1, n2)])} for n1, n2 in model.states()]
        assert path.read_text() == render_csv(rows)
        diagnostics = payload["diagnostics"]
        assert diagnostics["stationary_residual_inf_norm"].hex() == stationary.residual_norm.hex()
        assert diagnostics["stationary_sum"].hex() == float(stationary.probabilities.sum()).hex()
        assert diagnostics["blocking_probability"].hex() == blocking_mass(model, stationary.probabilities).hex()

    @pytest.mark.parametrize("flag", ["--out", "--stationary-csv"])
    def test_unwritable_path_exits_before_the_run(self, capsys, solves, tmp_path: Path, flag):
        # A directory, a path in a missing directory and one that ends in a separator:
        # refused before any solve with the message of the write, and nothing is created.
        paths = ((tmp_path, errno.EISDIR), (tmp_path / "missing" / "out.txt", errno.ENOENT), (f"{tmp_path}/out/", errno.EISDIR))
        for path, code in paths:
            assert main(["queue", "--cap1", "40", "--cap2", "40", flag, str(path)]) == 64
            assert capsys.readouterr().err == f"error: cannot write {path}: {os.strerror(code)}\n"
        assert solves == []
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_writes_no_csv(self, capsys, tmp_path: Path):
        path = tmp_path / "pi.csv"
        assert main(["queue", "--mu2", "1e-300", "--stationary-csv", str(path), "--format", "json"]) == 70
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.exists()


class TestResidualOnlyWhereRead:
    """The balance residual is computed for the base row that ``blend queue`` reports, and nowhere else."""

    @pytest.fixture
    def residuals(self, monkeypatch):
        import blend.cli as cli
        import blend.models as models

        calls = []
        with_residual = models._with_residual

        def counted(model, probabilities):
            calls.append(model.arrival_rate)
            return with_residual(model, probabilities)

        monkeypatch.setattr(models, "_with_residual", counted)
        monkeypatch.setattr(cli, "_with_residual", counted)
        return calls

    @pytest.mark.parametrize("h0, refinements", [("0.01", 0), ("0.5", 2)])
    def test_queue_computes_it_once(self, capsys, residuals, h0, refinements):
        assert main(["queue", "--h0", h0, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["refinements"] == refinements
        assert residuals == [1.0]

    @pytest.mark.parametrize("which", ["5", "all"])
    def test_tables_never_compute_it(self, capsys, residuals, which):
        assert main(["tables", which, "--format", "json"]) == 0
        capsys.readouterr()
        assert residuals == []

    def test_oracle_run_and_blocking_probability_never_compute_it(self, residuals):
        from blend import BlendConfig, TandemQueueModel, blocking_probability, queue_sensitivity_oracle, run_blend

        model = TandemQueueModel(1.0, 1.0, 2.0, 10, 10)
        assert run_blend(queue_sensitivity_oracle(model), 1.0, BlendConfig(h0=0.5)).refinements == 2
        blocking_probability(model)
        assert residuals == []


class TestOutputContracts:
    def test_json_round_trip_byte_identical(self):
        proc = run_cli("diff", "sin", "--h0", "0.1", "--format", "json")
        text = proc.stdout
        reparsed = json.loads(text)
        assert canonical_json(reparsed) + "\n" == text

    def test_identical_invocations_byte_identical(self):
        a = run_cli("queue", "--format", "json")
        b = run_cli("queue", "--format", "json")
        assert a.stdout == b.stdout

    def test_csv_shape(self):
        proc = run_cli("diff", "sin", "--h0", "0.1", "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "N,delta"
        assert len(lines) == 9
        assert "." in lines[1] and "," in lines[1]

    def test_out_file(self, tmp_path: Path):
        out = tmp_path / "record.json"
        proc = run_cli("diff", "sin", "--h0", "0.1", "--format", "json", "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["command"] == "diff"

    def test_negative_zero_round_trips(self):
        # a constant function's stabilized value is -0.0; the canonical writer
        # must normalize it so parse/re-serialize stays byte-identical
        proc = run_cli("diff", "0*theta", "--h0", "0.5", "--format", "json")
        assert proc.returncode == 0
        reparsed = json.loads(proc.stdout)
        assert canonical_json(reparsed) + "\n" == proc.stdout

    def test_overflowing_function_reports_cleanly(self):
        # values overflow to inf silently, every refinement fails, and the
        # report's non-finite fields must serialize as nulls with exit code 2
        proc = run_cli("diff", "1e308*theta^3", "--theta", "9", "--h0", "1", "--format", "json")
        assert proc.returncode == 2
        payload = json.loads(proc.stdout)
        assert payload["report"]["value"] is None
        assert payload["report"]["stabilized"] is False
        assert all(row["delta"] is None for row in payload["trace"])

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0
        assert run_cli("diff", "--help").returncode == 0

    def test_version_needs_no_installed_metadata(self):
        # The version comes from the package itself, so a source checkout on
        # PYTHONPATH reports it too.
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout == "blend, version 0.1.0\n"

    def test_closed_stdout_exits_1_quietly(self):
        # A reader that went away (``blend ... | head``) ends the run without a traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "blend", "plan", "--M", "1", "--b", "1", "--N", "2", "--K", "3"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=SRC_DIR),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_main_callable_directly(self, capsys):
        code = main(["plan", "--M", "1", "--b", "1", "--N", "2", "--K", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "plan"


class TestParserContract:
    """The command line's grammar, in process: values, ordering, usage errors, help."""

    OPTIONS = {
        "diff": {"--theta": "0.0", "--h0": "0.01", "--n-max": "8", "--refinements": "8", "--min-digits": "2", "--format": "table", "--out": None},
        "direction": {"--a": None, "--theta": None, "--v": None, "--normalize": None, "--h0": "0.01", "--n-max": "8", "--refinements": "8", "--min-digits": "2", "--format": "table", "--out": None},
        "plan": {"--M": None, "--b": None, "--N": None, "--K": None, "--formula": "lemma2", "--format": "table", "--out": None},
        "tables": {"--format": "table", "--out": None},
        "queue": {"--lambda": "1.0", "--mu1": "1.0", "--mu2": "2.0", "--cap1": "10", "--cap2": "10", "--stationary-csv": None, "--h0": "0.01", "--n-max": "8", "--refinements": "8", "--min-digits": "2", "--format": "table", "--out": None},
    }

    @staticmethod
    def config(capsys, *args):
        assert main([*args, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["config"]

    def test_values_may_start_with_a_dash(self, capsys):
        assert self.config(capsys, "diff", "sin", "--theta", "-1e-3")["theta"] == -0.001
        assert self.config(capsys, "diff", "sin", "--theta=-0.5")["theta"] == -0.5
        assert self.config(capsys, "direction", "--a", "1,1", "--theta", "1,1", "--v", "-1,0")["v"] == [-1.0, 0.0]

    def test_positional_after_options_and_last_repeat_wins(self, capsys):
        assert self.config(capsys, "diff", "--theta", "0.5", "sin")["theta"] == 0.5
        config = self.config(capsys, "diff", "sin", "--h0", "0.1", "--theta", "-1", "--h0=0.02", "--theta", "0.25")
        assert (config["h0"], config["theta"]) == (0.02, 0.25)
        assert main(["diff", "--format", "json", "--", "-1*theta"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["function"] == "-1*theta"

    @pytest.mark.parametrize(
        "args, fragment",
        [
            (("diff", "sin", "--theta", "-inf"), "--theta must be a finite real, got -inf"),
            (("diff", "sin", "--th", "0.5"), "--th"),
            (("diff", "sin", "--bogus", "1"), "--bogus"),
            (("plan", "--M", "1", "--b", "1", "--N", "2"), "--K"),
            (("plan", "--M", "1", "--b", "1", "--N", "2", "--K", "3", "--format", "xml"), "--format: invalid choice: 'xml'"),
            (("diff", "sin", "--n-max", "41"), "--n-max: 41 is not in the range 2<=x<=40"),
            (("diff", "sin", "--theta", "abc"), "--theta: invalid float value: 'abc'"),
            (("queue", "--cap2", "1.5"), "--cap2: invalid integer value: '1.5'"),
            (("frob",), "'frob'"),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, args, fragment):
        assert main(list(args)) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    def test_no_command_writes_usage_to_stderr(self, capsys):
        assert main([]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: blend")
        assert captured.err.endswith("\nerror: missing command\n")

    @pytest.mark.parametrize("command", [None, *OPTIONS])
    def test_help_lists_every_option(self, capsys, command):
        assert main([command, "--help"] if command else ["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command is None:
            assert all(name in captured.out for name in self.OPTIONS)
            assert "--version" in captured.out
            return
        for flag, default in self.OPTIONS[command].items():
            assert f"\n  {flag} " in captured.out
            entry = " ".join(captured.out.split(f"\n  {flag} ")[1].split("\n  --")[0].split())
            assert default is None or f"[default: {default}" in entry

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        import blend.cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(blend.cli, "run_blend", interrupted)
        assert main(["diff", "sin"]) == 130
        assert capsys.readouterr().out == ""

    #: A quick command line of each command.
    QUICK = {
        "diff": ["sin"],
        "direction": ["--a", "1,2", "--theta", "1,1", "--v", "1,0"],
        "plan": ["--M", "1", "--b", "1", "--N", "4", "--K", "6"],
        "tables": ["1"],
        "queue": ["--cap1", "2", "--cap2", "2"],
    }

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_a_command_line_is_parsed_once_by_its_command(self, capsys, monkeypatch, name):
        parse = cli._Parser.parse_known_args
        parsers = []

        def counted(self, *args, **kwargs):
            parsers.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
        assert main([name, *self.QUICK[name], "--format", "json"]) == 0
        assert parsers == [f"blend {name}"]
        assert json.loads(capsys.readouterr().out)["command"] == name

    def test_every_command_has_its_arguments_at_import(self):
        # A fresh tree has seen no parse, whatever the order the tests run in.
        for parser, commands in ((cli._PARSER, cli._COMMAND_PARSERS), cli._build_parser()):
            (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            assert list(action.choices) == list(cli._COMMANDS)
            assert commands is action.choices
            for name, command in action.choices.items():
                flags = [a.option_strings or [a.dest] for a in command._actions]
                assert flags == [[flag] for flag, _ in cli._COMMANDS[name][1]] + [["--help"]]

    def test_concurrent_first_parses_see_every_argument(self):
        args = cli._join_values(["queue", "--cap1", "3", "--mu2", "0.5", "--format", "json", "--stationary-csv", "pi.csv"])
        expected = vars(cli._build_parser()[0].parse_args(args))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                parser = cli._build_parser()[0]
                start = threading.Barrier(8)

                def parse():
                    start.wait(timeout=60)
                    try:
                        return vars(parser.parse_args(args))
                    except cli._UsageError as exc:
                        return str(exc)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(parse) for _ in range(8)]
                    assert [future.result(timeout=60) for future in futures] == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


class TestEdgeInputs:
    @pytest.mark.parametrize(
        "args, code",
        [
            (("diff", "sin", "--theta", "nan"), 64),
            (("direction", "--a", "1", "--theta", "1", "--v", "nan"), 64),
            (("direction", "--a", "1,1", "--theta", "1,1", "--v", "0,0", "--normalize"), 64),
            (("direction", "--a", "1e308", "--theta", "1e308", "--v", "1"), 2),
            # The quadratic form's finite terms sum past the float range, where fsum raises: every value is inf.
            (("direction", "--a", "1e308,1e308", "--theta", "1,1", "--v", "1,1", "--normalize"), 2),
            # fsum's partial sums leave the float range, yet every exact sum is finite.
            (("direction", "--a", "1e308,1.7e308,-1.7e308", "--theta", "0.5,1,1", "--v", "1,0,0"), 0),
            # Terms of -inf and inf, which fsum refuses: every value is NaN.
            (("direction", "--a", "-1e308,1e308", "--theta", "1e200,1e200", "--v", "1,1", "--normalize"), 2),
            # Products w_k * f_k beyond the float range, and values above 2**1023 / (2**27 + 1),
            # whose Veltkamp split overflows: the exact reduction keeps every partial sum finite.
            (("diff", "1e299*theta", "--theta", "1", "--n-max", "40"), 0),
            (("diff", "1.5e300*theta", "--theta", "1", "--h0", "0.1"), 0),
            # Finite values whose every partial sum (about 2e308) is beyond the float range.
            (("diff", "1e308*theta^2", "--theta", "1"), 2),
            # Station 1 empties instantly; a pivot tolerance scaled by the whole block used to reject this.
            (("queue", "--mu1", "1e300"), 0),
            (("queue", "--lambda", "1e300", "--h0", "1e297"), 70),
            (("plan", "--M", "1", "--b", "1", "--N", "40", "--K", "400"), 64),
            (("plan", "--M", "1e-300", "--b", "1e300", "--N", "1", "--K", "306"), 64),
            # M/h overflows while x**(N+1) underflows: the bound used to be NaN.
            (("plan", "--M", "1e200", "--b", "1e120", "--N", "10", "--K", "5"), 0),
            # exp overflows to inf beyond the finite value at theta, like a product: the driver refines.
            (("diff", "exp(theta)", "--theta", "709.75", "--h0", "0.02"), 0),
            # The forward recurrence overflows: the solve raises instead of returning NaN diagnostics.
            (("queue", "--mu2", "1e-300"), 70),
            # Nesting beyond the parser's recursion limit is a malformed expression.
            (("diff", "(" * 400 + "theta" + ")" * 400), 64),
            # 2*b*e overflows: the envelope names its growth instead of planning from a zero step.
            (("plan", "--M", "1", "--b", "1e308", "--N", "2", "--K", "5"), 64),
            # Every arrival rate 1 + k*1e-300 rounds to 1: the collapsed grid is not refined.
            (("queue", "--h0", "1e-300", "--refinements", "100"), 2),
            # Each service rate is finite, but their sum, a state's outflow, is not.
            (("queue", "--mu1", "1e308", "--mu2", "1e308"), 64),
        ],
    )
    def test_exits_with_documented_code(self, args, code):
        proc = run_cli(*args, "--format", "json")
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 0 and args[0] == "plan":
            payload = json.loads(proc.stdout)
            assert 0.0 < payload["bound_at_h_star"] <= payload["target"]
        if code == 2:
            payload = json.loads(proc.stdout)
            assert payload["report"]["stabilized"] is False
            assert payload.get("analytic_reference") is None
            if args[0] == "diff":
                assert all(row["delta"] is None for row in payload["trace"])
        if code in (64, 70):
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1

    def test_growth_too_small_for_the_step_domain_is_named(self):
        # 1/(2*b*e) overflows: the envelope names its growth, not a step the user never gave.
        proc = run_cli("plan", "--M", "1", "--b", "1e-309", "--N", "4", "--K", "6")
        assert proc.returncode == 64
        assert proc.stderr == "error: envelope growth 1e-309 is too small: 1/(2*b*e) overflows, so the step domain has no finite edge\n"

    def test_overflowing_exp_refines_below_the_float_range(self):
        # theta + 2h = 709.79 overflows exp; steps of h0/8 keep the grid finite.
        report = run_json("diff", "exp(theta)", "--theta", "709.75", "--h0", "0.02")["report"]
        assert (report["value"], report["agreed_digits"]) == (1.7398368748198907e308, 9)
        assert (report["refinements"], report["eval_count"]) == (3, 36)

    @pytest.mark.parametrize(
        "args, refinements, evals",
        [
            # Every point 1 + k*1e-17 is 1: the order-1 and order-2 sums are both exactly 0.
            (("sin", "--theta", "1", "--h0", "1e-17", "--n-max", "2"), 0, 3),
            # The 49th halving is the first step whose nine points repeat one.  The
            # function is infinite off pi/2, so no partial sum before it is finite
            # and the rounding floor cannot end the run first.
            (
                ("(1e300*(theta-1.5707963267948966))^2", "--theta", "1.5707963267948966", "--h0", "0.1", "--refinements", "1100"),
                49,
                450,
            ),
        ],
    )
    def test_collapsed_grid_exits_2(self, args, refinements, evals):
        report = run_json("diff", *args, expect_code=2)["report"]
        assert (report["stabilized"], report["agreed_digits"]) == (False, 0)
        assert (report["refinements"], report["eval_count"]) == (refinements, evals)

    def test_rounding_floor_exits_2(self):
        # The derivative of sin at pi/2 is 0, which no relative digit matches:
        # the run stops at the third halving, where its last two partial sums
        # lie within the rounding floor, instead of spending 81 evaluations.
        report = run_json("diff", "sin", "--theta", "1.5707963267948966", "--h0", "0.1", expect_code=2)["report"]
        assert (report["stabilized"], report["refinements"], report["eval_count"]) == (False, 3, 36)

    @pytest.mark.parametrize("function, code, refinements, evals", [("sin", 2, 8, 45), ("theta", 0, 4, 9)])
    def test_grid_beyond_the_float_range_is_skipped(self, function, code, refinements, evals):
        # theta + 8h is +inf for the first four steps: they are skipped, with no
        # evaluation, and the grid at h0/16 is the run's first.  Run at h0, sin
        # would raise at sin(inf), and theta's repeated inf points would read
        # as a collapsed grid.
        report = run_json("diff", function, "--theta", "1e308", "--h0", "1e308", expect_code=code)["report"]
        assert (report["refinements"], report["eval_count"]) == (refinements, evals)

    @pytest.mark.parametrize(
        "v, unit",
        [("3e-170,4e-170", [0.6, 0.8]), ("1e200,1e200", [0.7071067811865476] * 2)],
        ids=["squares-underflow", "squares-overflow"],
    )
    def test_normalize_rescales_extreme_vectors(self, v, unit):
        payload = run_json("direction", "--a", "1,1", "--theta", "1,1", "--v", v, "--normalize")
        assert payload["config"]["v"] == pytest.approx(unit, rel=1e-15)

    @pytest.mark.parametrize("flag, args", [("--out", ("diff", "sin")), ("--stationary-csv", ("queue",))])
    def test_unwritable_output_path_exits_64(self, tmp_path: Path, flag, args):
        # A path in a missing directory, and an existing directory.
        for path in (str(tmp_path / "missing" / "out.txt"), str(tmp_path)):
            proc = run_cli(*args, flag, path)
            assert proc.returncode == 64
            assert proc.stderr.startswith("error: ") and path in proc.stderr
            assert len(proc.stderr.splitlines()) == 1
            assert proc.stdout == ""


class TestRunRecords:
    DRIVER_KEYS = ["h0", "n_max", "max_refinements", "min_digits"]

    @pytest.mark.parametrize(
        "args, input_keys, extra_keys",
        [
            (("diff", "sin", "--h0", "0.1"), ["function", "theta"], []),
            (
                ("direction", "--a", "1,2", "--theta", "1,1", "--v", "1,0"),
                ["dimension", "a", "theta", "v"],
                ["analytic_reference"],
            ),
            (("queue", "--cap1", "2", "--cap2", "2"), ["lambda", "mu1", "mu2", "cap1", "cap2"], ["diagnostics"]),
        ],
    )
    def test_key_order(self, capsys, args, input_keys, extra_keys):
        # Canonical JSON writes keys in construction order, so the order is
        # part of the byte-stable output.
        assert main([*args, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["command", "config", "trace", "report", "notes", *extra_keys]
        assert list(payload["config"]) == input_keys + self.DRIVER_KEYS
        assert list(payload["report"]) == ["value", "agreed_digits", "stabilized", "h_used", "refinements", "eval_count"]


class TestThreadDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("diff", "sin", "--h0", "0.1", "--format", "json"),
            ("queue", "--format", "json"),
            ("tables", "1", "--format", "json"),
        ],
    )
    def test_thread_count_does_not_change_bytes(self, args):
        serial = run_cli(*args, env={"BLEND_THREADS": "0"})
        threaded = run_cli(*args, env={"BLEND_THREADS": "4"})
        assert serial.returncode == threaded.returncode
        assert serial.stdout == threaded.stdout

    @pytest.mark.parametrize("value", ["abc", "-1"])
    @pytest.mark.parametrize(
        "args",
        [("diff", "sin"), ("direction", "--a", "1", "--theta", "1", "--v", "1"), ("tables", "all"), ("queue",)],
        ids=lambda args: args[0],
    )
    def test_invalid_thread_budget_is_a_usage_error(self, capsys, monkeypatch, args, value):
        # Also for the queue, whose batched grid never uses the budget.
        monkeypatch.setenv("BLEND_THREADS", value)
        assert main(list(args)) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: BLEND_THREADS must be an integer >= 0, got {value!r}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("diff", "sin", "--h0", "1.0"),
            ("direction", "--a", "1", "--theta", "1", "--v", "1", "--h0", "1.0", "--n-max", "2"),
            ("queue", "--h0", "0.5"),
            ("tables", "all"),
        ],
        ids=lambda args: args[0],
    )
    def test_thread_budget_is_read_once_per_command(self, capsys, monkeypatch, args):
        # The command reads BLEND_THREADS once and hands the budget to every
        # attempt of its run, or to every table's run; the library reads none.
        calls = []
        original = cli._env_workers
        monkeypatch.setattr(cli, "_env_workers", lambda: calls.append(1) or original())
        assert main([*args, "--format", "json"]) in (0, 2)
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tables"]) == 5 if args[0] == "tables" else payload["report"]["refinements"] > 0
        assert len(calls) == 1


class TestGoldenBytes:
    """SHA-256 of ``--format json`` stdout for commands whose bytes involve no numpy arithmetic.

    A refactor that keeps outputs byte-identical keeps these digests, and
    serial and pooled grids (``BLEND_THREADS`` 0 and 4) must give the same bytes.
    """

    @pytest.mark.parametrize("threads", ["0", "4"])
    @pytest.mark.parametrize(
        "args, digest",
        [
            (("diff", "sin", "--theta", "0", "--h0", "0.1"), "61f371b44dbc2331f5bcaa29c87bea472ac26be065e7c520875ef60a59d92f41"),
            (("diff", "sin", "--theta", "0", "--h0", "1.0", "--refinements", "0"), "8f8ab6af49688ef8131b8a89e618a9492b139133e49cc31298f2728b0a2fc6b9"),
            (("diff", "quartic5", "--theta", "2", "--h0", "0.001"), "1dc1576f158373968ffe9fd3de2200e65a635dbdc4dc1bac28742c706eafb6b7"),
            (("diff", "theta^3", "--theta", "2"), "72c7ef94048c73e7cff21631bcfc6a0131a88facf5786c05dc4e59c336846b2b"),
            (("direction", "--a", "1,2,3", "--theta", "1,1,1", "--v", "1,0,0"), "637303f7cac7114348071ee45b9504785efaf81bc06570f3cef01849cec653f1"),
            (
                ("direction", "--a", "1,2,3", "--theta", "1,1,1", "--v", "1,1,0", "--normalize"),
                "5a91f8740c718d6b87f56d0be9f5e0ddc987694164c05bfa0ea92b6029e8b011",
            ),
            (("plan", "--M", "120", "--b", "2.4", "--N", "2", "--K", "6", "--formula", "eq12"), "34afe20016373da674855ddbfb57cd87c6abb6f9cd26a4324169a074fbcfc031"),
            (("tables", "1"), "71ff33f273ef121f9063dac52e3cf76dd9e1e6b41f60b75c3c3f50880209613c"),
            (("tables", "2"), "681aa849f9f57fb5d7047e451af432b928b996bfa70fbc8e7dd9a53a22b31d42"),
            (("tables", "3"), "5624991be4d403460aeed9f0320c56d5278ccde5edf4c1ade6a9fac15b347195"),
            (("tables", "4"), "f6d9d9197137ce56e8023b9b885677ba48885996c8283354fa301d6b09c60048"),
        ],
    )
    def test_json_digest(self, capsys, monkeypatch, args, digest, threads):
        monkeypatch.setenv("BLEND_THREADS", threads)
        code = main([*args, "--format", "json"])
        assert code in (0, 2)
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
