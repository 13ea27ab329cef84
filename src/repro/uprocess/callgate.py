"""The call gate (§4.2, Listing 1).

The gate is the only legal way into the userspace privileged mode: *as
long as a core is in privileged mode, it must be executing trusted
runtime code.*  The model executes the four stages of Listing 1 against
real core state (the PKRU register) and real SMAS state (the message-pipe
maps), and implements the three defenses the paper adds on top of
ERIM/Hodor:

1. memory-configuration syscalls that would make pages executable are
   prohibited (enforced by the runtime's syscall proxy, see
   ``repro.vessel.runtime``), so no unvetted WRPKRU can appear;
2. privileged functions are dispatched through a *function-pointer
   vector* kept in the read-only message pipe, never through the PLT;
3. the caller's stack is switched to a per-core stack in the runtime
   region before the call, so sibling threads cannot rewrite the return
   address.

Defense toggles (``stack_switch``, ``pkru_recheck``) exist so the attack
tests can demonstrate what each defense buys (the ``ablations``
experiment varies ``CostModel`` constants, not these toggles).

No simulated run calls :meth:`CallGate.invoke`: ``UserspaceSwitch.switch``
writes PKRU and the message pipe inline and charges the gate's
``callgate_enter``/``callgate_exit`` constants.  The gate is the
functional model of that path, checked by ``tests/uprocess/test_callgate.py``
and ``tests/uprocess/test_attacks.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.hardware.machine import Core, CoreMode
from repro.hardware.mpk import AccessKind
from repro.obs.ledger import NULL_LEDGER, OpLedger
from repro.uprocess.smas import Smas
from repro.uprocess.threads import UThread


class CallGateViolation(RuntimeError):
    """An illegal use of the call gate was detected and stopped."""


class CallGate:
    """The trusted entry/exit path between uProcess and runtime mode."""

    def __init__(self, smas: Smas, stack_switch: bool = True,
                 pkru_recheck: bool = True,
                 ledger: Optional[OpLedger] = None) -> None:
        self.smas = smas
        self.stack_switch = stack_switch
        self.pkru_recheck = pkru_recheck
        #: gate traversals are counted only — their nanoseconds are the
        #: callgate_enter/exit rows the switch path charges
        self.ledger = ledger or NULL_LEDGER
        self.invocations = 0
        self.hijacks_defeated = 0

    # ------------------------------------------------------------------
    def register_privileged(self, name: str, fn: Callable[..., Any]) -> None:
        """Runtime-side registration into the function-pointer vector."""
        self.smas.pipe.register_function(Smas.runtime_pkru(), name, fn)

    # ------------------------------------------------------------------
    def invoke(self, core: Core, thread: UThread, func_name: str,
               *args: Any) -> Any:
        """The legitimate Listing-1 flow.

        The privileged function may context-switch the core to a different
        thread (Figure 6); stage 3 therefore restores the PKRU and stack of
        whatever CPUID_TO_TASK_MAP says is current *after* the call.
        """
        pipe = self.smas.pipe
        if not thread.uproc.alive:
            # Crash containment: a thread whose uProcess was reaped while
            # it was descheduled must not re-enter privileged mode on
            # behalf of freed state.
            if self.ledger.enabled:
                self.ledger.count_op("deny:callgate_dead", core=core.id,
                                     domain="uproc")
            raise CallGateViolation(
                f"gate entry refused: uProcess of {thread} is dead"
            )
        self.invocations += 1
        if self.ledger.enabled:
            self.ledger.count_op(f"callgate:{func_name}", core=core.id,
                                 domain="uproc")

        # -- Stage 1: enter privileged mode ---------------------------
        core.pkru.wrpkru(Smas.runtime_pkru().value)
        core.mode = CoreMode.RUNTIME

        # -- Stage 2: stack switch + vectored dispatch -----------------
        if self.stack_switch:
            # Listing 1 lines 5-6: the task's RSP is already saved in its
            # context structure; run on the per-core runtime stack.
            runtime_rsp = pipe.cpuid_to_runtime_rsp[core.id]
            # The runtime stack must live in the runtime region.
            self.smas.aspace.check_access(runtime_rsp - 8, AccessKind.WRITE,
                                          core.pkru)
        fn = pipe.func_vector.get(func_name)
        if fn is None:
            # Unknown privileged operation: leave privileged mode cleanly.
            self._exit_to(core, thread)
            raise CallGateViolation(
                f"no privileged function {func_name!r} in the vector"
            )
        result = fn(*args)

        # -- Stages 3-4: restore the *current* task's permissions ------
        current = pipe.cpuid_to_task.get(core.id, thread)
        self._exit_to(core, current)
        return result

    def _exit_to(self, core: Core, thread: UThread) -> None:
        expected = thread.uproc.pkru().value
        core.pkru.wrpkru(expected)
        if self.pkru_recheck:
            # Stage 4 (lines 15-20): re-read PKRU and loop until it matches
            # the task's recorded value.  In the legitimate flow this
            # passes on the first try.
            while core.pkru.rdpkru() != expected:
                core.pkru.wrpkru(expected)  # pragma: no cover - legit flow
        core.mode = CoreMode.USER

    # ------------------------------------------------------------------
    # Attack surface models (used by repro.uprocess.attacks and tests)
    # ------------------------------------------------------------------
    def hijack_stage3(self, core: Core, forged_pkru: int) -> int:
        """Control-flow hijack: jump straight to Line 13 with a forged eax.

        Returns the PKRU value the attacker ends up with.  With the
        recheck enabled the loop at lines 15-20 rewrites the register to
        the current task's legitimate value, defeating the attack; with
        the recheck disabled (ERIM/Hodor-less ablation) the forged value
        survives.
        """
        core.pkru.wrpkru(forged_pkru)
        if not self.pkru_recheck:
            return core.pkru.rdpkru()
        current = self.smas.pipe.cpuid_to_task.get(core.id)
        if current is None:
            raise CallGateViolation("no task mapped on this core")
        expected = current.uproc.pkru().value
        while core.pkru.rdpkru() != expected:
            core.pkru.wrpkru(expected)
        self.hijacks_defeated += 1
        core.mode = CoreMode.USER
        return core.pkru.rdpkru()

    def return_address_location(self, core: Core, thread: UThread) -> int:
        """Where the gate's return address lives during a privileged call.

        With the stack switch it is on the per-core runtime stack (runtime
        pkey, unwritable by apps); without it, on the caller's own stack
        (writable by every thread of the same uProcess).
        """
        if self.stack_switch:
            return self.smas.pipe.cpuid_to_runtime_rsp[core.id] - 8
        return thread.context.rsp - 8
