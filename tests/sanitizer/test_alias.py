"""Tests for the aliasing diagnostic (SAN-R003) in the dependence graph."""

import numpy as np
import pytest

from repro.runtime.dataregion import AccessKind, DataAccess, region_of
from repro.runtime.dependences import DependenceGraph
from repro.runtime.directives import task
from repro.runtime.runtime import OmpSsRuntime, RuntimeConfig
from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
from repro.sanitizer import SanitizerError
from repro.sim.perfmodel import AffineBytesCostModel
from repro.sim.topology import minotauro_node


def make_def(name="t"):
    d = TaskDefinition(name)
    d.add_version(TaskVersion(name + "_v", name, ("smp",), "k", is_main=True))
    return d


def overlapping_regions():
    base = np.zeros(128)
    return region_of(base), region_of(base[:64])


class TestReportPolicy:
    def test_report_collects_diagnostic_instead_of_raising(self):
        whole, half = overlapping_regions()
        d = make_def()
        g = DependenceGraph(alias_policy="report")
        t1 = TaskInstance(d, [DataAccess(whole, AccessKind.INOUT)], label="writer")
        t2 = TaskInstance(d, [DataAccess(half, AccessKind.INPUT)], label="reader")
        g.add_task(t1)
        g.add_task(t2)  # must not raise
        assert len(g.alias_diagnostics) == 1
        diag = g.alias_diagnostics[0]
        assert diag.code == "SAN-R003"
        # task names and both region intervals are in the message
        assert "writer" in diag.message and "reader" in diag.message
        assert "0x" in diag.message
        (iv_new, iv_old, owner) = diag.meta
        assert owner == "writer"
        assert iv_new[0] == half.base and iv_old[0] == whole.base

    def test_no_diagnostic_for_disjoint_regions(self):
        a, b = region_of(np.zeros(64)), region_of(np.zeros(64))
        d = make_def()
        g = DependenceGraph(alias_policy="report")
        g.add_task(TaskInstance(d, [DataAccess(a, AccessKind.INOUT)]))
        g.add_task(TaskInstance(d, [DataAccess(b, AccessKind.INOUT)]))
        assert g.alias_diagnostics == []

    def test_same_region_reused_is_not_aliasing(self):
        r = region_of(np.zeros(64))
        d = make_def()
        g = DependenceGraph(alias_policy="report")
        g.add_task(TaskInstance(d, [DataAccess(r, AccessKind.INOUT)]))
        g.add_task(TaskInstance(d, [DataAccess(r, AccessKind.INPUT)]))
        assert g.alias_diagnostics == []


class TestRejectPolicyCompat:
    def test_reject_message_names_the_tasks(self):
        whole, half = overlapping_regions()
        d = make_def()
        g = DependenceGraph(alias_policy="reject")
        g.add_task(TaskInstance(d, [DataAccess(whole, AccessKind.INOUT)], label="first"))
        with pytest.raises(ValueError, match="first"):
            g.add_task(
                TaskInstance(d, [DataAccess(half, AccessKind.INPUT)], label="second")
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="alias_policy"):
            DependenceGraph(alias_policy="maybe")


class TestRuntimeIntegration:
    def test_alias_report_surfaces_through_validate(self):
        registry = {}

        @task(inouts=["x"], registry=registry)
        def bump(x):
            x += 1

        m = minotauro_node(2, 0, noise_cv=0.0, seed=5)
        m.register_kernel_for_kind("smp", "bump", AffineBytesCostModel(0.0, 1e9))
        rt = OmpSsRuntime(
            m, "breadth-first", config=RuntimeConfig(alias_policy="report")
        )
        base = np.zeros(128)
        with rt:
            bump(base)
            bump(base[:64])  # overlapping view: distinct region, aliased
        res = rt.result()
        diags = res.race_diagnostics()
        assert any(d.code == "SAN-R003" for d in diags)
        with pytest.raises(SanitizerError):
            res.validate()
