"""Pluggable scheduling policies (the ghOSt model).

The VESSEL *mechanism* — Uintr preemption, call-gate switches, SMAS
bookkeeping, failure containment — is fixed and trusted; the scheduling
*policy* is a small replaceable class that receives structured events
and returns decisions.  The mechanism executes each decision through
the existing machinery, charging the same ledger operations, so a run
under the default policy is byte-identical to the pre-framework
scheduler, and a new policy is ~100 lines plus a registry entry.

Events (called by the mechanism; see ``VesselSystem``):

=====================  ================================================
``on_arrival(app)``     requests pending for ``app`` (after the
                        scheduler-core reaction delay); returns
                        placement decisions for parked server threads
``on_request_done``     a request finished on a core (informational —
                        MLFQ/SJF-style policies track usage here)
``on_thread_park``      a server thread found its app queue empty and
                        is about to park (informational)
``on_quantum_expiry``   the running thread exhausted ``quantum_ns`` at
                        a request boundary with others queued; return
                        ``Rotate`` to time-slice or ``None`` to let it
                        keep the core
``on_core_idle(core)``  a core has nothing to run; return ``Run``,
                        ``Steal`` or ``Idle``
``on_tick()``           the periodic scheduler scan; yields any mix of
                        decisions (activations, fills, preemptions)
                        computed from queue-depth signals
=====================  ================================================

Decisions (executed — and validated — by the mechanism):

=========================================  ===========================
``Place(thread, core_id)``                 wake an idle core with a
                                           parked server thread
``Preempt(core_id, victim, incoming)``     evict ``victim`` (a BE
                                           thread via Uintr, or a
                                           long-running L request) in
                                           favour of ``incoming``
``Enqueue(thread, core_id)``               append a parked thread to a
                                           core's run queue
``Run(thread, core_id)``                   start a queued/best-effort
                                           thread on an idle core
``Rotate(core_id)``                        requeue the current thread
                                           and run the queue head
``Steal(core_id, from_core_id)``           pull the head of another
                                           core's queue onto this one
``Idle(core_id)``                          leave the core in UMWAIT
=========================================  ===========================

A policy never touches cores, queues of other layers, or the ledger
directly: it reads state through the mechanism context and returns
decisions.  Invalid decisions (stale thread, occupied core) are
*rejected* by the mechanism and counted — a buggy policy degrades
service but cannot corrupt mechanism state (the same stance §4.3 takes
for buggy applications).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, TYPE_CHECKING

from repro.sched import queues
from repro.uprocess.threads import UThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import App, Request

#: rotate to the run-queue head after the current thread has run this
#: long with other threads waiting (one uniform default for rotation
#: and mid-request preemption; a slice ends early when the app's queue
#: drains, so the quantum only binds for backlogged applications)
DEFAULT_ROTATION_QUANTUM_NS = 20_000
#: preempt an L request mid-service once it has blocked queued threads
#: for this long (§4.4)
DEFAULT_L_PREEMPT_QUANTUM_NS = 20_000
#: cap on new server activations per app per reaction
DEFAULT_ACTIVATION_BURST = 4


# ----------------------------------------------------------------------
# Decisions
# ----------------------------------------------------------------------
class Decision:
    """Base class for scheduling decisions (markers, no behaviour)."""

    __slots__ = ()


class Place(Decision):
    """Wake an idle core with a parked server thread (UMWAIT wake)."""

    __slots__ = ("thread", "core_id")

    def __init__(self, thread, core_id: int) -> None:
        self.thread = thread
        self.core_id = core_id


class Preempt(Decision):
    """Evict ``victim`` on ``core_id`` in favour of ``incoming``.

    When the core runs best-effort work this is the Uintr path (command
    push + ``senduipi``); when it is serving a long L request this is
    the §4.4 mid-request preemption (remaining service returns to the
    app queue's front).  ``incoming=None`` on a best-effort core means
    *forced idle*: the victim is evicted and the core left in UMWAIT —
    what Linux core scheduling does to a mismatched SMT sibling (the
    trust-group policy uses this).
    """

    __slots__ = ("core_id", "victim", "incoming")

    def __init__(self, core_id: int, victim, incoming) -> None:
        self.core_id = core_id
        self.victim = victim
        self.incoming = incoming


class Enqueue(Decision):
    """Append a parked thread to a core's run queue (activated,
    waiting its turn)."""

    __slots__ = ("thread", "core_id")

    def __init__(self, thread, core_id: int) -> None:
        self.thread = thread
        self.core_id = core_id


class Run(Decision):
    """Start ``thread`` (queued on the core or best-effort) on the
    idle core ``core_id``."""

    __slots__ = ("thread", "core_id")

    def __init__(self, thread, core_id: int) -> None:
        self.thread = thread
        self.core_id = core_id


class Rotate(Decision):
    """Requeue the running thread and switch to the run-queue head."""

    __slots__ = ("core_id",)

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id


class Steal(Decision):
    """Run the head of ``from_core_id``'s queue on ``core_id``."""

    __slots__ = ("core_id", "from_core_id")

    def __init__(self, core_id: int, from_core_id: int) -> None:
        self.core_id = core_id
        self.from_core_id = from_core_id


class Idle(Decision):
    """Leave the core idle (UMWAIT until the next event)."""

    __slots__ = ("core_id",)

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id


# ----------------------------------------------------------------------
# The policy base class — also the default (VESSEL §4.5) behaviour
# ----------------------------------------------------------------------
class SchedPolicy:
    """Event-driven scheduling policy.

    The base class implements the paper's one-level global policy
    (FIFO run queues + quantum rotation + BE preemption), so subclasses
    override only the hooks they change.  ``bind`` is called once by
    the mechanism before ``start``; ``self.ctx`` then exposes:

    * ``ctx.now`` — simulation time (ns);
    * ``ctx.core_states()`` — per-core states in fixed order, each with
      ``.core``, ``.fifo``, ``.kind`` (None | "L" | "B" | "switch"),
      ``.thread``, ``.request``, ``.run_started``;
    * ``ctx.app_states()`` / ``ctx.app_state(name)`` — per-app states
      with ``.app``, ``.threads``, ``.parked``, ``.queued_servers``;
    * ``ctx.next_be_thread()`` — peek the runnable head of the global
      best-effort queue (suspended apps skipped), or ``None``;
    * ``ctx.sibling_of(core_id)`` — the SMT sibling's core state (the
      worker cores pair up in order), or ``None``.

    Policies must treat everything reached through ``ctx`` as
    read-only; state changes only via returned decisions.
    """

    name = "default"

    def __init__(self,
                 rotation_quantum_ns: int = DEFAULT_ROTATION_QUANTUM_NS,
                 l_preempt_quantum_ns: int = DEFAULT_L_PREEMPT_QUANTUM_NS,
                 activation_burst: int = DEFAULT_ACTIVATION_BURST) -> None:
        self.rotation_quantum_ns = rotation_quantum_ns
        self.l_preempt_quantum_ns = l_preempt_quantum_ns
        self.activation_burst = activation_burst
        self.ctx = None

    # -- lifecycle ------------------------------------------------------
    def bind(self, ctx) -> None:
        """Attach the mechanism context (called once, pre-start)."""
        self.ctx = ctx

    def make_core_queue(self):
        """Run-queue discipline for one core (override for MLFQ etc.)."""
        return queues.FifoQueue()

    def on_app_added(self, app_state) -> None:
        """A new application joined the domain."""

    def on_app_removed(self, app_state) -> None:
        """An application was destroyed; drop any bookkeeping for it."""

    # -- knobs the mechanism consults ----------------------------------
    def quantum_ns(self, core_state) -> Optional[int]:
        """Rotation quantum for the thread on ``core_state`` (None =
        never rotate).

        Asked at a request boundary only when the core's run queue is
        non-empty, so it must be free of side effects: how often it is
        called is not part of the contract.
        """
        return self.rotation_quantum_ns

    def pick_request(self, core_state, app: "App") -> Optional["Request"]:
        """Dequeue the next request this thread should serve (FCFS by
        default; SJF-style policies reorder here).

        The mechanism resolves this hook, ``on_request_done`` and
        ``on_thread_park`` once, when it is built: where a policy keeps
        the base class's, it pops the queue inline or skips the no-op
        hook.  Override them on the class or the instance before the
        system is constructed.
        """
        return app.pop_request()

    # -- events ---------------------------------------------------------
    def on_arrival(self, app_state) -> Iterable[Decision]:
        """Activate server threads to cover ``app_state``'s queue.

        Returns the placement decisions one at a time (a generator); the
        mechanism executes each before the next is computed, so later
        choices see the updated core states.  When no decision can come
        out, the common case, it returns ``()`` and builds no generator
        (this runs on every arrival and, for each backlogged app, on
        every tick).
        """
        parked = app_state.parked
        if not parked:
            return ()
        # Requests not yet covered by a queued server thread; with none
        # left no decision can come out.
        need = len(app_state.app.queue) - app_state.queued_servers
        if need <= 0:
            return ()
        # Running threads cover the rest.  Once they cover all of it the
        # deficit is <= 0 whatever the full count, so the walk stops
        # there.
        running = UThreadState.RUNNING
        active = 0
        for thread in app_state.threads:
            if thread.state is running:
                active += 1
                if active >= need:
                    return ()
        return self._placements(
            app_state, min(need - active, len(parked), self.activation_burst))

    def _placements(self, app_state, deficit: int) -> Iterator[Decision]:
        for _ in range(deficit):
            decision = self.place_one(app_state)
            if decision is None:
                break
            yield decision

    def place_one(self, app_state) -> Optional[Decision]:
        """One placement for a parked server thread: an idle core
        first, then a preemptible best-effort core, then the shortest
        eligible run queue.  Returns None when nowhere fits."""
        if not app_state.parked:
            return None
        thread = app_state.parked[0]
        idle = queues.first_idle(self.ctx.core_states())
        if idle is not None:
            return Place(thread, idle.core.id)
        victim = queues.first_of_kind(self.ctx.core_states(), "B")
        if victim is not None:
            return Preempt(victim.core.id, victim.thread, thread)
        target = self.shortest_queue_core(app_state)
        if target is None:
            return None
        return Enqueue(thread, target.core.id)

    def shortest_queue_core(self, app_state):
        """Shortest "L" run queue not already holding this app (one
        queued server per app per core)."""
        uproc = app_state.uproc

        def eligible(state) -> bool:
            if state.kind != "L":
                return False
            if any(t.uproc is uproc for t in state.fifo):
                return False
            if state.thread is not None and state.thread.uproc is uproc:
                return False
            return True

        return queues.shortest_queue(self.ctx.core_states(), eligible)

    def on_request_done(self, core_state, request: "Request") -> None:
        """A request completed on ``core_state`` (informational)."""

    def on_thread_park(self, core_state, thread) -> None:
        """``thread`` is about to park, app queue empty (informational)."""

    def on_quantum_expiry(self, core_state) -> Optional[Rotate]:
        """Quantum used up at a request boundary with threads queued."""
        return Rotate(core_state.core.id)

    def on_core_idle(self, core_state) -> Decision:
        """Pick work for a core with nothing to run: the run-queue
        head first, then the global best-effort queue, else UMWAIT."""
        head = core_state.fifo.peek()
        if head is not None:
            return Run(head, core_state.core.id)
        be_thread = self.ctx.next_be_thread()
        if be_thread is not None:
            return Run(be_thread, core_state.core.id)
        return Idle(core_state.core.id)

    def on_tick(self) -> Iterator[Decision]:
        """Periodic scan: re-dispatch backlogged L-apps, fill idle
        cores, and preempt long-running requests (§4.4)."""
        for app_state in self.ctx.app_states():
            if app_state.app.is_latency and app_state.app.queue:
                yield from self.on_arrival(app_state)
        for core_state in self.ctx.core_states():
            if core_state.kind is None and not core_state.core.busy:
                yield self.on_core_idle(core_state)
            elif core_state.kind == "L":
                decision = self.check_long_request(core_state)
                if decision is not None:
                    yield decision

    def check_long_request(self, core_state) -> Optional[Preempt]:
        """§4.4 condition: a request is hogging a core that other
        latency threads are queued on."""
        if core_state.request is None or not core_state.fifo:
            return None
        now = self.ctx.now
        ran = now - (core_state.request.start_ns or now)
        if ran < self.l_preempt_quantum_ns:
            return None
        return Preempt(core_state.core.id, core_state.thread,
                       core_state.fifo.peek())

    def contribute(self, report) -> None:
        """Copy controller state into the run's report (none by default)."""

    def add_probes(self, gauges) -> None:
        """Register controller-state gauge probes (none by default)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, type] = {}


def register_policy(cls: type) -> type:
    """Class decorator: make a policy constructible by name.

    A name belongs to one class, so a subclass that forgot to set its own
    ``name`` (and inherited its parent's) is rejected.
    """
    owner = _REGISTRY.get(cls.name)
    if owner is not None and owner is not cls:
        raise ValueError(f"policy name {cls.name!r} already belongs to "
                         f"{owner.__name__}; {cls.__name__} needs its own")
    _REGISTRY[cls.name] = cls
    return cls


register_policy(SchedPolicy)


def _load_builtin_policies() -> None:
    """Import the modules whose import registers the built-in zoo."""
    import repro.sched.zoo  # noqa: F401
    import repro.overload.autoscaler  # noqa: F401
    import repro.cluster.coordinator  # noqa: F401


def make_policy(name: str, **params) -> SchedPolicy:
    """Instantiate a registered policy by name."""
    _load_builtin_policies()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{sorted(_REGISTRY)}") from None
    return cls(**params)
