"""Tests for the worker abstraction."""

from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
from repro.runtime.worker import Worker
from repro.sim.devices import DeviceKind, GPUDevice, SMPDevice


def make_task():
    d = TaskDefinition("t")
    d.add_version(TaskVersion("v", "t", (DeviceKind.SMP,), "v", is_main=True))
    return TaskInstance(d, [])


class TestWorker:
    def test_name_and_space(self):
        w = Worker(SMPDevice("smp0"))
        assert w.name == "w:smp0"
        assert w.space == "host"
        wg = Worker(GPUDevice("gpu1"))
        assert wg.space == "gpu1"

    def test_queue_fifo(self):
        w = Worker(SMPDevice("smp0"))
        t1, t2 = make_task(), make_task()
        w.enqueue(t1)
        w.enqueue(t2)
        assert w.peek() is t1
        assert w.pop() is t1
        assert w.pop() is t2
        assert w.peek() is None

    def test_load_counts_running_task(self):
        w = Worker(SMPDevice("smp0"))
        assert w.load() == 0
        w.enqueue(make_task())
        assert w.load() == 1
        w.current = w.pop()
        assert w.load() == 1
        w.enqueue(make_task())
        assert w.load() == 2
