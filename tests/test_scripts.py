import importlib.util
import subprocess
import sys
from pathlib import Path

from partmaps import verification

CENSUS = Path(__file__).resolve().parent.parent / "scripts" / "census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("census_script", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCensusScript:
    def test_check_runs_the_harness_laws(self):
        proc = subprocess.run(
            [sys.executable, str(CENSUS), "--n", "3", "--check"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[2].split() == ["0,1,2", "27", "27", "6", "10"]
        assert lines[-3].split() == ["sum", "99", "51", "18", "20"]
        # five partitions: five counts and four sequences each
        assert lines[-2:] == [
            "[PASS] cardinality-formulas-vs-enumeration: 25 cases",
            "[PASS] brute-vs-constructive-enumeration: 20 cases",
        ]

    def test_check_exits_one_on_a_failed_law(self, monkeypatch, capsys):
        census = load_census()
        monkeypatch.setattr(sys, "argv", ["census.py", "--n", "2", "--check"])
        monkeypatch.setattr(verification, "count_units", lambda profile: 0)
        assert census.main() == 1
        out = capsys.readouterr().out
        assert "[FAIL] cardinality-formulas-vs-enumeration: 10 cases, 2 failures" in out
        assert "[PASS] brute-vs-constructive-enumeration: 8 cases" in out


class TestBenchScripts:
    BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

    def test_every_script_requires_out(self):
        # no default file name, so no run overwrites a committed result unasked
        scripts = sorted(self.BENCHMARKS.glob("bench_*.py"))
        assert len(scripts) == 5
        for script in scripts:
            proc = subprocess.run(
                [sys.executable, str(script), "--src", "tree=src"],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 2, script.name
            assert "the following arguments are required: --out" in proc.stderr
