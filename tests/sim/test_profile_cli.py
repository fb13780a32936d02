"""``python -m repro.sim --profile``: the cProfile entry of DESIGN.md §17."""

from repro.sim.__main__ import main


def test_profile_counts_and_unknown_workload(capsys):
    assert main(["--profile", "--workload", "matmul8-node-versioning", "--top", "3"]) == 0
    out, err = capsys.readouterr()
    assert "function calls" in out
    assert "[537 events, 512 tasks]" in err
    (line,) = [ln for ln in err.splitlines() if ln.startswith("[calls per task: ")]
    assert float(line[len("[calls per task: "):-1]) > 0
    assert main(["--profile", "--workload", "no-such-workload"]) == 2
    assert "unknown workload 'no-such-workload'" in capsys.readouterr().err
