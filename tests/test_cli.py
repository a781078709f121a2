"""CLI behavior: exit codes, formats, determinism, golden values."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blend.cli import main
from blend.output import canonical_json


def run_cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    merged = dict(os.environ)
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
        proc = run_cli("diff", "sin", "--theta", "0", "--h0", "1.0", "--no-refine")
        assert proc.returncode == 2
        assert "stabilized: false" in proc.stdout

    def test_unit_step_carries_domain_caveat(self):
        payload = run_json("diff", "sin", "--h0", "1.0", "--no-refine", expect_code=2)
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

    def test_main_callable_directly(self, capsys):
        code = main(["plan", "--M", "1", "--b", "1", "--N", "2", "--K", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "plan"


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
