"""Tests for the command-line interface (direct main() invocation)."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    code = main([
        "generate", "--k", "4", "--paths", "12", "--rules", "8",
        "--capacity", "40", "--ingresses", "4", "--seed", "5",
        "-o", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_valid_json(self, instance_file):
        data = json.loads(instance_file.read_text())
        assert data["schema_version"] == 1
        assert len(data["policies"]) == 4
        assert len(data["routing"]) == 12

    def test_blacklist_and_slicing_flags(self, tmp_path):
        path = tmp_path / "instance.json"
        code = main([
            "generate", "--k", "4", "--paths", "8", "--rules", "5",
            "--ingresses", "2", "--blacklist", "2", "--slice",
            "-o", str(path),
        ])
        assert code == 0
        data = json.loads(path.read_text())
        assert all(p["flow"] is not None for p in data["routing"])
        assert all(len(p["rules"]) == 7 for p in data["policies"])


class TestSolveVerifyReport:
    def test_solve_ilp(self, instance_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        code = main(["solve", str(instance_file), "-o", str(out)])
        assert code == 0
        assert "optimal" in capsys.readouterr().out
        assert json.loads(out.read_text())["status"] == "optimal"

    def test_solve_backend_bnb(self, instance_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        code = main(["solve", str(instance_file), "-o", str(out),
                     "--backend", "bnb", "--time-limit", "60"])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "optimal"

    def test_solve_backend_portfolio_with_deadline(self, instance_file,
                                                   tmp_path, capsys):
        out = tmp_path / "placement.json"
        code = main(["solve", str(instance_file), "-o", str(out),
                     "--backend", "portfolio", "--deadline", "60"])
        assert code == 0
        text = capsys.readouterr().out
        assert "portfolio winner:" in text
        data = json.loads(out.read_text())
        assert data["status"] == "optimal"
        telemetry = data["solver_stats"]["portfolio"]
        assert telemetry["winner"] in ("highs", "bnb", "satopt")
        assert telemetry["deadline"] == 60.0
        assert set(telemetry["engines"]) == {"highs", "bnb", "satopt"}

    def test_solve_portfolio_engine_subset(self, instance_file, tmp_path):
        out = tmp_path / "placement.json"
        code = main(["solve", str(instance_file), "-o", str(out),
                     "--backend", "portfolio", "--deadline", "60",
                     "--engines", "highs,bnb"])
        assert code == 0
        telemetry = json.loads(out.read_text())["solver_stats"]["portfolio"]
        assert set(telemetry["engines"]) == {"highs", "bnb"}

    def test_solve_sat_engine(self, instance_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        code = main(["solve", str(instance_file), "-o", str(out),
                     "--engine", "sat"])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "feasible"

    def test_solve_infeasible_exit_code(self, tmp_path):
        inst = tmp_path / "tight.json"
        main(["generate", "--k", "4", "--paths", "12", "--rules", "10",
              "--capacity", "0", "--ingresses", "4", "-o", str(inst)])
        out = tmp_path / "placement.json"
        assert main(["solve", str(inst), "-o", str(out)]) == 2

    def test_verify_good(self, instance_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        main(["solve", str(instance_file), "-o", str(out)])
        code = main(["verify", str(instance_file), str(out), "--simulate"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, instance_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        main(["solve", str(instance_file), "-o", str(out)])
        data = json.loads(out.read_text())
        # Drop a placed rule entirely.
        data["placed"] = data["placed"][1:]
        out.write_text(json.dumps(data))
        code = main(["verify", str(instance_file), str(out)])
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().err

    def test_report(self, instance_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        main(["solve", str(instance_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["report", str(instance_file), str(out)]) == 0
        text = capsys.readouterr().out
        assert "utilization" in text
        assert "ingress" in text

    def test_report_instance_only(self, instance_file, capsys):
        assert main(["report", str(instance_file)]) == 0
        assert "Instance:" in capsys.readouterr().out


class TestExportLp:
    def test_writes_lp(self, instance_file, tmp_path):
        out = tmp_path / "model.lp"
        assert main(["export-lp", str(instance_file), "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("\\ Model:")
        assert "Binaries" in text

    def test_merging_flag(self, tmp_path):
        inst = tmp_path / "instance.json"
        main(["generate", "--k", "4", "--paths", "8", "--rules", "5",
              "--ingresses", "3", "--blacklist", "2", "-o", str(inst)])
        out = tmp_path / "model.lp"
        assert main(["export-lp", str(inst), "-o", str(out), "--merging"]) == 0
        assert "vm[" in out.read_text()


class TestPolicies:
    def test_prints_text_form(self, instance_file, capsys):
        assert main(["policies", str(instance_file)]) == 0
        text = capsys.readouterr().out
        assert "# policy for ingress" in text
        assert "deny" in text or "permit" in text

    def test_ingress_filter(self, instance_file, capsys):
        import json

        data = json.loads(instance_file.read_text())
        first = data["policies"][0]["ingress"]
        assert main(["policies", str(instance_file), "--ingress", first]) == 0
        text = capsys.readouterr().out
        assert text.count("# policy for ingress") == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_objective_choices(self, instance_file, tmp_path):
        out = tmp_path / "placement.json"
        for objective in ("rules", "upstream", "combined"):
            assert main(["solve", str(instance_file), "-o", str(out),
                         "--objective", objective]) == 0


class TestChaos:
    def test_chaos_converges(self, instance_file, capsys):
        code = main([
            "chaos", str(instance_file), "--seeds", "3", "--horizon", "15",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 schedules converged fail-closed" in out
        assert "digest=" in out

    def test_chaos_with_saved_placement(self, instance_file, tmp_path,
                                        capsys):
        placement = tmp_path / "placement.json"
        assert main(["solve", str(instance_file), "-o", str(placement)]) == 0
        capsys.readouterr()
        code = main([
            "chaos", str(instance_file), str(placement),
            "--seeds", "2", "--horizon", "12",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 schedules converged fail-closed" in out

    def test_chaos_no_fail_secure_detects_violations(self, instance_file,
                                                     capsys):
        """Sanity for the oracle: disabling the fail-secure safety net
        across enough seeds must surface at least one violation."""
        code = main([
            "chaos", str(instance_file), "--seeds", "15",
            "--no-fail-secure",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestServe:
    def test_sigusr1_dumps_stacks_and_keeps_serving(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         "..", "src")
        log = tmp_path / "serve.log"
        with open(log, "w") as out:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
                env=env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True)
        try:
            port = _wait_for(daemon, log, r"serving on [0-9.]+:([0-9]+)")
            daemon.send_signal(signal.SIGUSR1)
            _wait_for(daemon, log, r"\(most recent call first\)")
            assert main(["ping", "--port", port]) == 0
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60.0) == 0
        finally:
            try:
                os.killpg(daemon.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            daemon.wait(timeout=10.0)


def _wait_for(daemon, log, pattern: str, timeout: float = 60.0) -> str:
    """The first group (or whole match) of ``pattern`` once the live
    daemon's log has it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and daemon.poll() is None:
        found = re.search(pattern, log.read_text())
        if found:
            return found.group(found.lastindex or 0)
        time.sleep(0.05)
    raise AssertionError(f"{pattern!r} not in the log of the daemon "
                         f"(exit {daemon.poll()}):\n{log.read_text()}")


class TestChurn:
    def test_environment_does_not_size_the_matrix(self, tmp_path,
                                                  monkeypatch, capsys):
        """Only the flags size the churn matrix: ``--quick`` means 3
        seeds whatever ``REPRO_CHURN_SEEDS`` says."""
        monkeypatch.setenv("REPRO_CHURN_SEEDS", "1")
        out = tmp_path / "churn.json"
        assert main(["churn", "--quick", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["seeds"] == 3
        assert "3 seeds" in capsys.readouterr().out
