"""tools/bench_record.py keeps a record only of a run that can back a claim."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

HOST = {"nproc": 1, "cpu": "stub", "python": "3", "numpy": "2", "blas": "stub", "blas_threads": 1}
WORKLOAD = "workload detect: rounds 11, 26.1 s timed, attempted 4, failed 0"


def stub_checkout(root: Path, last_line: str, workload: str) -> None:
    """A checkout whose perfbench/run.py prints a host line, `workload` and
    `last_line`."""
    (root / "perfbench").mkdir()
    output = f"host {json.dumps(HOST)}\n{workload}\n{last_line}"
    (root / "perfbench" / "run.py").write_text(f"print({output!r})\n")


def record_of(tmp_path, monkeypatch, last_line, workload=WORKLOAD):
    """bench_record's exit code and the record it left, or None."""
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    stub_checkout(tmp_path, last_line, workload)
    code = bench_record.main(["stub", "--", "--seconds", "1"])
    out = tmp_path / "BENCH_stub.json"
    return code, json.loads(out.read_text()) if out.exists() else None


def run_line(correct, failed):
    return json.dumps({"correct": correct, "attempted": 4, "failed": failed,
                       "metrics": {"setup_s": {"value": 0.2, "unit": "s"}}})


def test_correct_run_is_recorded(tmp_path, monkeypatch):
    code, record = record_of(tmp_path, monkeypatch, run_line(True, 0))
    assert code == 0
    assert record["host"] == HOST
    assert record["workload"] == WORKLOAD
    assert record["run"] == json.loads(run_line(True, 0))
    assert record["command"] == ["python3", "perfbench/run.py", "--seconds", "1"]


@pytest.mark.parametrize("last_line, why", [
    (run_line(False, 0), "not correct"),
    (run_line(True, 1), "1 operations failed"),
    ("rounds 2", "not a JSON object"),
])
def test_run_that_cannot_back_a_claim_is_not_recorded(tmp_path, monkeypatch, capsys,
                                                      last_line, why):
    code, record = record_of(tmp_path, monkeypatch, last_line)
    assert code == 1
    assert record is None
    assert why in capsys.readouterr().err


def test_run_without_its_workload_line_is_not_recorded(tmp_path, monkeypatch, capsys):
    code, record = record_of(tmp_path, monkeypatch, run_line(True, 0), workload="")
    assert code == 1
    assert record is None
    assert "no host or workload line" in capsys.readouterr().err
