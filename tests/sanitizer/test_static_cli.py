"""Tests for the static-pass CLI: ``--protocol``, exit codes, ``--json``
output and baseline handling."""

import json
import pathlib
import subprocess
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

ERROR_SNIPPET = '''
from repro.runtime.directives import task

def helper_write(dst, src):
    dst[:] = src * 2

@task(inputs=["a", "b"])
def f(a, b):
    helper_write(b, a)
'''

WARNING_SNIPPET = '''
from repro.runtime.directives import task

@task(inputs=["a", "b"], inouts=["c"])
def g(a, b, c):
    c += a * 2
'''

CLEAN_SNIPPET = '''
from repro.runtime.directives import task

@task(inputs=["a"], inouts=["c"])
def h(a, c):
    c += a
'''


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.sanitizer", *args],
        capture_output=True,
        text=True,
        cwd=cwd or str(REPO_ROOT),
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


class TestExitCodes:
    def test_clean_tree_is_zero(self, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text(CLEAN_SNIPPET)
        proc = run_cli(str(p))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_errors_are_one(self, tmp_path):
        p = tmp_path / "bad.py"
        p.write_text(ERROR_SNIPPET)
        proc = run_cli(str(p))
        assert proc.returncode == 1
        assert "SAN-S001" in proc.stdout

    def test_warnings_alone_are_zero(self, tmp_path):
        p = tmp_path / "warn.py"
        p.write_text(WARNING_SNIPPET)
        proc = run_cli(str(p))
        assert proc.returncode == 0
        assert "SAN-S002" in proc.stdout

    def test_strict_promotes_warnings(self, tmp_path):
        p = tmp_path / "warn.py"
        p.write_text(WARNING_SNIPPET)
        proc = run_cli("--strict", str(p))
        assert proc.returncode == 1

    def test_no_paths_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_shipped_tree_is_clean_under_static(self):
        proc = run_cli("--strict", "src", "examples")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "sanitizer: clean" in proc.stdout

    def test_small_without_protocol_is_usage_error(self, tmp_path):
        # --small only scopes the model check; alone it would silently
        # run none
        p = tmp_path / "clean.py"
        p.write_text(CLEAN_SNIPPET)
        proc = run_cli("--small", str(p))
        assert proc.returncode == 2
        assert "--protocol" in proc.stderr


class TestJsonOutput:
    def test_shape_and_counts(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(ERROR_SNIPPET + WARNING_SNIPPET)
        proc = run_cli("--json", str(bad))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert set(doc) == {"findings", "errors", "warnings"}
        assert doc["errors"] == 1 and doc["warnings"] == 1
        codes = [f["code"] for f in doc["findings"]]
        assert "SAN-S001" in codes and "SAN-S002" in codes
        for f in doc["findings"]:
            assert f["file"] == str(bad)
            assert isinstance(f["line"], int)

    def test_clean_json_is_empty(self, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text(CLEAN_SNIPPET)
        proc = run_cli("--json", str(p))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc == {"findings": [], "errors": 0, "warnings": 0}


class TestBaseline:
    def test_write_then_apply_round_trip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(ERROR_SNIPPET)
        base = tmp_path / "baseline.json"

        assert run_cli(str(bad)).returncode == 1
        proc = run_cli("--write-baseline", str(base), str(bad))
        assert proc.returncode == 0
        assert json.loads(base.read_text())["version"] == 1

        proc = run_cli("--baseline", str(base), str(bad))
        assert proc.returncode == 0, proc.stdout

    def test_stale_baseline_entry_is_reported(self, tmp_path):
        bad = tmp_path / "code.py"
        bad.write_text(ERROR_SNIPPET)
        base = tmp_path / "baseline.json"
        run_cli("--write-baseline", str(base), str(bad))

        bad.write_text(CLEAN_SNIPPET)  # the finding is fixed
        proc = run_cli("--baseline", str(base), str(bad))
        assert proc.returncode == 0  # stale entries warn, not fail
        assert "SAN-L005" in proc.stdout
        proc = run_cli("--strict", "--baseline", str(base),
                       str(bad))
        assert proc.returncode == 1

    def test_corrupt_baseline_is_usage_error(self, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text(CLEAN_SNIPPET)
        base = tmp_path / "baseline.json"
        base.write_text("{}")
        proc = run_cli("--baseline", str(base), str(p))
        assert proc.returncode == 2


class TestWaivers:
    def test_waiver_suppresses_and_stale_waiver_reports(self, tmp_path):
        # SAN-S001 anchors at the declaration (`def`) line, so that is
        # where the waiver goes
        p = tmp_path / "waived.py"
        p.write_text(ERROR_SNIPPET.replace(
            "def f(a, b):",
            "def f(a, b):  # san-ignore: SAN-S001",
        ))
        proc = run_cli(str(p))
        assert proc.returncode == 0, proc.stdout

        stale = tmp_path / "stale.py"
        stale.write_text(CLEAN_SNIPPET.replace(
            "    c += a",
            "    c += a  # san-ignore: SAN-S001",
        ))
        proc = run_cli(str(stale))
        assert proc.returncode == 0
        assert "SAN-L005" in proc.stdout


class TestProtocolMode:
    def test_protocol_small_needs_no_paths(self):
        proc = run_cli("--protocol", "--small")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout


class TestListCodes:
    def test_new_code_families_are_documented(self):
        proc = run_cli("--list-codes")
        assert proc.returncode == 0
        for code in ("SAN-L005", "SAN-S001", "SAN-S005", "SAN-S010",
                     "SAN-S013", "SAN-P001", "SAN-P004"):
            assert code in proc.stdout
        l002 = next(ln for ln in proc.stdout.splitlines()
                    if ln.startswith("SAN-L002"))
        assert "retired" in l002 and "SAN-S001" in l002
