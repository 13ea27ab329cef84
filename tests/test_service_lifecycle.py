"""Every system begins, ends and cuts short a request's service through
``ColocationSystem``.

``begin_service``, ``end_service`` and ``evict`` (``repro.sched.base``)
are the three chokepoints: the completion count, the latency record,
the response hook, the flight's ``complete`` and ``preempt`` marks and
the requeue of a preempted request's rest each happen in exactly one
place, the same for VESSEL and every baseline.  The static test walks
the AST of every module under ``repro/vessel`` and ``repro/baselines``
and fails on a system doing one of those steps itself; the runtime test
runs each system and counts one ``end_service`` call per completed
request.
"""

import ast
import os

import pytest

from repro.experiments.common import make_l_app, system_factory
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: the packages whose systems must go through the chokepoints
SYSTEM_PACKAGES = ("repro/vessel", "repro/baselines")
#: (receiver name, attribute) pairs only the base class may touch; a
#: receiver of None matches any receiver
BYPASSES = {
    (None, "complete"),              # the deleted App.complete
    ("flight", "on_complete"),       # end_service closes the flight
    ("latency", "record"),           # end_service records the latency
    ("batch_run", "preempt"),        # evict cuts a batch chunk short
    ("queue", "appendleft"),         # evict requeues a preempted request
}

SYSTEM_NAMES = ("ideal", "vessel", "caladan", "caladan-dr-l",
                "caladan-dr-h", "arachne", "linux-cfs")


def _receiver(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def lifecycle_bypasses(tree):
    """``(receiver.attribute, line)`` for every access matching one of
    :data:`BYPASSES`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        receiver = _receiver(node.value)
        if (None, node.attr) in BYPASSES \
                or (receiver, node.attr) in BYPASSES:
            found.append((f"{receiver}.{node.attr}", node.lineno))
    return found


def _system_modules():
    for package in SYSTEM_PACKAGES:
        root = os.path.join(SRC, package)
        for filename in sorted(os.listdir(root)):
            if filename.endswith(".py"):
                yield f"{package}/{filename}", os.path.join(root, filename)


def test_systems_end_and_evict_only_through_the_base_class():
    found = {}
    for module, path in _system_modules():
        with open(path, encoding="utf-8") as handle:
            bypasses = lifecycle_bypasses(ast.parse(handle.read(),
                                                    filename=path))
        if bypasses:
            found[module] = bypasses
    assert not found, (
        "a system ends or evicts a request itself; call "
        f"ColocationSystem.end_service / evict instead: {found}")


def test_scan_finds_every_bypass():
    tree = ast.parse(
        "def f(self, state, request, app):\n"
        "    request.app.complete(request, 0)\n"
        "    self.flight.on_complete(request)\n"
        "    app.latency.record(5)\n"
        "    state.batch_run.preempt()\n"
        "    request.app.queue.appendleft(request)\n"
        "    self.end_service(request)\n"
        "    self.evict(state, requeue=True)\n"
        "    state.core.preempt()\n"
        "    app.queue.append(request)\n")
    assert sorted(lifecycle_bypasses(tree)) == [
        ("app.complete", 2), ("batch_run.preempt", 5),
        ("flight.on_complete", 3), ("latency.record", 4),
        ("queue.appendleft", 6)]


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_end_service_runs_once_per_completed_request(name):
    sim = Simulator()
    machine = Machine(sim, CostModel(), 5)
    rngs = RngStreams(42)
    system = system_factory(name)(sim, machine, rngs)
    app, sampler = make_l_app("memcached", "mc", rngs)
    system.add_app(app)
    system.add_app(linpack_app())
    ended = []
    end_service = system.end_service

    def counting_end_service(request):
        ended.append(request)
        end_service(request)

    system.end_service = counting_end_service
    system.start()
    OpenLoopSource(sim, app, system.submit, 0.5, sampler,
                   rngs.stream("arrivals/mc"))
    sim.run(until=3 * MS)
    assert app.completed > 100
    assert len(ended) == app.completed
    assert len({id(request) for request in ended}) == len(ended)
