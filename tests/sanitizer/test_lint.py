"""Tests for the static directive lint (SAN-L*) inside the one static
pass, and for undeclared body writes (SAN-S001, which replaced the
retired SAN-L002)."""

import pathlib

from repro.sanitizer import CODES, Severity
from repro.sanitizer.lint import DirectiveLinter, collect_lint
from repro.sanitizer.static import check_static

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def write(tmp_path, name, source):
    p = tmp_path / name
    p.write_text(source)
    return str(p)


def codes(diags):
    return sorted(d.code for d in diags)


def def_line(path, name):
    """1-based line of ``def <name>`` in a file (where SAN-S001 anchors)."""
    lines = pathlib.Path(path).read_text().splitlines()
    return next(i for i, ln in enumerate(lines, 1)
                if ln.startswith(f"def {name}("))


class TestCleanTree:
    def test_examples_and_apps_lint_clean(self):
        """The satellite gate: the shipped tree has zero findings."""
        diags = check_static([
            str(REPO_ROOT / "examples"),
            str(REPO_ROOT / "src" / "repro" / "apps"),
        ])
        assert diags == [], "\n".join(d.render() for d in diags)

    def test_finds_declarations_in_shipped_tree(self):
        # guard against the lint silently parsing nothing
        files = [
            str(p)
            for p in (REPO_ROOT / "src" / "repro" / "apps").glob("*.py")
        ]
        linter = DirectiveLinter(files)
        n = sum(len(m.decls) for m in linter.modules)
        assert n >= 10  # matmul 3 + cholesky 6 + pbpi 7


class TestClauseNames:
    def test_unknown_clause_name(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a", "nosuch"], outputs=["b"])
def f(a, b):
    b[:] = a
''')
        diags = check_static([f])
        assert codes(diags) == ["SAN-L001"]
        d = diags[0]
        assert "nosuch" in d.message
        assert d.severity is Severity.ERROR
        assert d.file == f and d.line is not None

    def test_callable_clause_spec_is_skipped(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=lambda xs, y: list(xs), outputs=["y"])
def f(xs, y):
    y[:] = 0
''')
        assert check_static([f]) == []


class TestBodyWrites:
    def test_input_assigned_in_body(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a", "b"])
def f(a, b):
    b[:] = a
''')
        diags = check_static([f])
        assert codes(diags) == ["SAN-S001"]
        assert "'b'" in diags[0].message and "by a store" in diags[0].message
        assert diags[0].line == def_line(f, "f")

    def test_augmented_assignment_counts(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], outputs=["b"])
def f(a, b):
    a += 1
    b[:] = a
''')
        diags = check_static([f])
        assert codes(diags) == ["SAN-S001"]
        assert "'a'" in diags[0].message
        assert "in-place arithmetic" in diags[0].message
        assert diags[0].line == def_line(f, "f")

    def test_inout_write_is_fine(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], inouts=["b"])
def f(a, b):
    b += a
''')
        assert check_static([f]) == []

    def test_local_rebinding_is_not_a_region_write(self, tmp_path):
        # rebinding the *name* does not mutate the caller's array
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], outputs=["b"])
def f(a, b):
    tmp = a * 2
    b[:] = tmp
''')
        assert check_static([f]) == []

    def test_rebinding_the_parameter_name_is_not_a_write(self, tmp_path):
        # the parameter name itself rebound: the caller's array is
        # untouched, so nothing is reported
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], outputs=["b"])
def copies(a, b):
    a = a.copy()
    a *= 2
    b[:] = a

@task(inputs=["a"], outputs=["b"])
def loops(a, b):
    b[:] = a
    for a in range(3):
        b[a] = 0
''')
        assert check_static([f]) == []


class TestDuplicates:
    def test_same_name_twice_in_one_clause(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a", "a"], outputs=["b"])
def f(a, b):
    b[:] = a
''')
        assert codes(check_static([f])) == ["SAN-L003"]

    def test_same_name_in_two_clauses(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], outputs=["a"])
def f(a):
    a[:] = 0
''')
        assert codes(check_static([f])) == ["SAN-L003"]


class TestImplementsConsistency:
    def test_mismatched_clause_sets(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task, target

@task(inputs=["x"], outputs=["y"])
def main_v(x, y):
    y[:] = x

@target(device="cuda", implements=main_v)
@task(inputs=["x"], inouts=["y"])
def alt_v(x, y):
    y[:] = x
''')
        # raw lint findings: effect inference adds a SAN-S003 note on
        # alt_v's write-only inout, which is not what this test is about
        diags = collect_lint(DirectiveLinter([f]))
        assert codes(diags) == ["SAN-L004"]
        assert "alt_v" in diags[0].message and "main_v" in diags[0].message

    def test_matching_clause_sets(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task, target

@task(inputs=["x"], inouts=["y"])
def main_v(x, y):
    y += x

@target(device="cuda", implements=main_v)
@task(inputs=["x"], inouts=["y"])
def alt_v(x, y):
    y += x
''')
        assert check_static([f]) == []

    def test_positionally_identical_renamed_params_ok(self, tmp_path):
        # call form: clauses map to the same parameter positions
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task, target

def kern_a(A, B):
    B[:] = A

def kern_b(X, Y):
    Y[:] = X

main = task(kern_a, inputs=["A"], outputs=["B"], name="t_main")
alt = target(device="cuda", implements=main)(
    task(kern_b, inputs=["X"], outputs=["Y"], name="t_alt")
)
''')
        assert check_static([f]) == []


class TestWaivers:
    def test_san_ignore_comment_waives_finding(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], inouts=["b"])
def f(a, b):  # san-ignore: SAN-S001
    a += 1
    b += a
''')
        assert check_static([f]) == []

    def test_wrong_code_does_not_waive(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], inouts=["b"])
def f(a, b):  # san-ignore: SAN-L001
    a += 1
    b += a
''')
        # the finding survives, and the waiver that suppressed nothing
        # is itself reported as stale
        assert codes(check_static([f])) == ["SAN-L005", "SAN-S001"]

    def test_retired_l002_waiver_is_stale(self, tmp_path):
        # nothing reports SAN-L002 any more: the write is SAN-S001 at the
        # def line, and the old waiver is reported where it stands
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

@task(inputs=["a"], inouts=["b"])
def f(a, b):
    a += 1  # san-ignore: SAN-L002
    b += a
''')
        diags = check_static([f])
        assert [(d.code, d.line) for d in diags] == [
            ("SAN-S001", def_line(f, "f")),
            ("SAN-L005", def_line(f, "f") + 1),
        ]
        assert "SAN-L002" in diags[1].message


class TestCallForm:
    def test_call_form_resolves_kernel_signature(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

def my_kernel(p, q):
    q[:] = p

bound = task(my_kernel, inputs=["p", "wrong"], outputs=["q"], name="k")
''')
        diags = check_static([f])
        assert codes(diags) == ["SAN-L001"]
        assert "wrong" in diags[0].message

    def test_kwargs_dict_expansion(self, tmp_path):
        f = write(tmp_path, "a.py", '''
from repro.runtime.directives import task

def my_kernel(p, q):
    q[:] = p

shared = dict(inputs=["p", "oops"], outputs=["q"])
bound = task(my_kernel, name="k", **shared)
''')
        diags = check_static([f])
        assert codes(diags) == ["SAN-L001"]


class TestDiagnosticModel:
    def test_every_emitted_code_is_registered(self):
        for code in ("SAN-L001", "SAN-L003", "SAN-L004", "SAN-L005"):
            assert code in CODES
        # retired, kept so old waivers and baselines still parse
        assert CODES["SAN-L002"].startswith("retired")

    def test_unknown_code_rejected(self):
        import pytest

        from repro.sanitizer import Diagnostic

        with pytest.raises(ValueError):
            Diagnostic(code="SAN-X999", message="nope")
