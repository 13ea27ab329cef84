"""The userspace context switch (§4.4, Figure 6).

Both switch flavours end the same way — the core's PKRU is rewritten to
the target uProcess's value and CPUID_TO_TASK_MAP is updated — and differ
only in how the runtime gains control:

* *park*: the running thread enters the call gate voluntarily
  (Table 1: 0.161 µs on average);
* *preempt*: the scheduler pushes a command and sends a Uintr; the
  victim's handler enters the call gate (adds send + delivery + uiret).

The functional effects execute against real objects (PKRU register,
message pipe, thread contexts) and the returned cost feeds the
performance layer.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.hardware.machine import Core, CoreMode
from repro.hardware.timing import VESSEL_SWITCH_NOISE_SIGMA_NS, CostModel
from repro.obs.ledger import NULL_LEDGER, OpLedger
from repro.uprocess.smas import Smas
from repro.uprocess.threads import UThread, UThreadState


class UserspaceSwitch:
    """Executes uProcess context switches on cores."""

    def __init__(self, smas: Smas, costs: CostModel,
                 rng: Optional[random.Random] = None,
                 ledger: Optional[OpLedger] = None) -> None:
        self.smas = smas
        self.costs = costs
        self.rng = rng or random.Random(0)
        self.ledger = ledger or NULL_LEDGER
        self.park_switches = 0
        self.preempt_switches = 0
        # One runtime-mode PKRU reused for pipe writes (never mutated;
        # allocating a fresh one per switch showed up in profiles).
        self._runtime_pkru = Smas.runtime_pkru()
        #: pkey -> the app-mode PKRU value a core loads for it (a pure
        #: function of the pkey; see Smas.app_pkru)
        self._app_pkru: Dict[int, int] = {}
        # The composite path costs are constant for one cost model.
        self._park_ns = costs.vessel_park_switch_ns()
        self._preempt_ns = costs.vessel_preempt_switch_ns()
        #: per-op charge handles: the switch path charges the same eight
        #: ops for every one of the millions of switches a sweep executes,
        #: and a handle skips the ledger's per-charge key lookup
        self._handles = {op: self.ledger.handle("uproc", op)
                         for op in self._SWITCH_OPS}

    # ------------------------------------------------------------------
    def install(self, core: Core, thread: UThread) -> None:
        """Put ``thread`` on ``core`` without a from-thread (cold start)."""
        if thread.state is UThreadState.RUNNING \
                and thread.core_id is not None and thread.core_id != core.id:
            raise RuntimeError(
                f"thread {thread.name} is already running on core "
                f"{thread.core_id}"
            )
        pipe = self.smas.pipe
        pipe.set_task(self._runtime_pkru, core.id, thread)
        core.pkru.wrpkru(self._app_pkru_value(thread.uproc.slot.pkey))
        core.mode = CoreMode.USER
        thread.state = UThreadState.RUNNING
        thread.core_id = core.id

    def switch(self, core: Core, to_thread: UThread,
               preempt: bool = False) -> int:
        """Switch ``core`` to ``to_thread``; returns the modeled cost (ns).

        The previous thread (if any) must already have been suspended by
        the caller (its state set and remaining work re-queued); this
        routine performs the Figure 6 state transition: save side is the
        caller's, here we update the map, restore the target context, and
        flip the PKRU.
        """
        if to_thread.state is UThreadState.DEAD:
            raise RuntimeError(f"switching to dead thread {to_thread.name}")
        if to_thread.state is UThreadState.RUNNING \
                and to_thread.core_id is not None \
                and to_thread.core_id != core.id:
            raise RuntimeError(
                f"thread {to_thread.name} is already running on core "
                f"{to_thread.core_id}; scheduling it on core {core.id} "
                "would run one context on two cores"
            )
        pipe = self.smas.pipe
        previous = pipe.cpuid_to_task.get(core.id)
        if previous is not None and previous.core_id == core.id:
            previous.core_id = None

        # Privileged-mode effects (we are conceptually inside the gate).
        core.mode = CoreMode.RUNTIME
        pipe.set_task(self._runtime_pkru, core.id, to_thread)
        to_thread.state = UThreadState.RUNNING
        to_thread.core_id = core.id

        # Resume at the saved return address (Line 7 of Listing 1) with
        # the target's stack, then drop privilege to the target's PKRU.
        pkey = to_thread.uproc.slot.pkey
        target_pkru = self._app_pkru.get(pkey)
        if target_pkru is None:
            target_pkru = self._app_pkru_value(pkey)
        core.pkru.wrpkru(target_pkru)
        core.mode = CoreMode.USER

        if preempt:
            self.preempt_switches += 1
            cost = self._preempt_ns
        else:
            self.park_switches += 1
            cost = self._park_ns
        # The per-switch spread (cache/TLB state), then rare machine
        # interference with CostModel's jitter_* constants; this is
        # their only draw site.
        rng = self.rng
        costs = self.costs
        noise = int(abs(rng.gauss(0.0, VESSEL_SWITCH_NOISE_SIGMA_NS)))
        if rng.random() < costs.jitter_probability:
            jitter = rng.randint(costs.jitter_min_ns, costs.jitter_max_ns)
        else:
            jitter = 0
        if self.ledger.enabled:
            self._charge_switch_ops(core.id, preempt, noise, jitter)
        return cost + noise + jitter

    def _app_pkru_value(self, pkey: int) -> int:
        value = self._app_pkru.get(pkey)
        if value is None:
            value = self._app_pkru[pkey] = Smas.app_pkru(pkey).value
        return value

    _SWITCH_OPS = ("uctx_save", "callgate_enter", "runtime_queue",
                   "uctx_restore", "callgate_exit", "uiret",
                   "switch_noise", "switch_jitter")

    def _charge_switch_ops(self, core_id: int, preempt: bool,
                           noise: int, jitter: int) -> None:
        """Itemize one switch into the ledger (Table 1's breakdown).

        The park-path rows sum exactly to the end-to-end cost
        :meth:`switch` returns — no unattributed nanoseconds.  For a
        preemptive switch only the handler-side ``uiret`` is charged
        here; ``uintr_send``/``uintr_deliver`` are charged by the
        :class:`~repro.hardware.uintr.UintrController` when the wire
        operations actually execute, so the two layers never double
        count one preemption.
        """
        c = self.costs
        handles = self._handles
        handles["uctx_save"].charge(c.uctx_save_ns, core_id)
        handles["callgate_enter"].charge(c.callgate_enter_ns, core_id)
        handles["runtime_queue"].charge(c.runtime_queue_ns, core_id)
        handles["uctx_restore"].charge(c.uctx_restore_ns, core_id)
        handles["callgate_exit"].charge(c.callgate_exit_ns, core_id)
        if preempt:
            handles["uiret"].charge(c.uiret_ns, core_id)
        handles["switch_noise"].charge(noise, core_id)
        handles["switch_jitter"].charge(jitter, core_id)

    def park_current(self, core: Core) -> None:
        """Mark the core's current thread parked (it called park())."""
        current = self.smas.pipe.cpuid_to_task.get(core.id)
        if current is not None and current.state is UThreadState.RUNNING:
            current.state = UThreadState.PARKED
