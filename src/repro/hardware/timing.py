"""The calibrated cost model.

Every nanosecond charged anywhere in the simulation comes from one instance
of :class:`CostModel`, so ablations can vary a single constant and every
scheduler sees the change.  Constants are calibrated from the paper itself
(and the references it cites); each field carries its provenance.

Two composite paths deserve explanation because the headline results flow
from them:

* **VESSEL park-switch** (Table 1: 0.161 µs average, 0.706 µs P999).  The
  path is: save user context -> call gate entry (stack switch + WRPKRU to
  the runtime key) -> runtime queue ops -> restore target context -> call
  gate exit (WRPKRU to the target's key + recheck).  The constants below
  sum to ~160 ns; the tail comes from the ``jitter_*`` constants, rare
  machine-level interference (SMIs, TLB shootdowns by unmanaged
  processes) that :meth:`~repro.uprocess.switch.UserspaceSwitch.switch`
  draws per switch.

* **Caladan core reallocation** (Figure 3: 5.3 µs total).  The kernel
  pipeline is ioctl -> IPI -> kernel trap -> SIGUSR-driven user save ->
  kernel context switch (page tables + bookkeeping) -> restore.  The six
  phase constants below sum to 5.3 µs; the Figure 3 experiment runs them
  as :class:`~repro.kernel.kschedule.KernelReallocPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import random

#: standard deviation of the userspace switch path's per-switch spread
#: (cache/TLB state); the uProcess switch draws it inline
VESSEL_SWITCH_NOISE_SIGMA_NS = 3.0


@dataclass
class CostModel:
    """Nanosecond costs of every modeled hardware/kernel operation."""

    # ------------------------------------------------------------------
    # MPK (§2.3: WRPKRU takes 11-260 cycles; ~2 GHz -> ~5-130 ns)
    # ------------------------------------------------------------------
    wrpkru_ns: int = 20
    rdpkru_ns: int = 10
    #: pkey_mprotect / pkey_alloc syscalls (kernel-mediated, used only at
    #: uProcess setup time, not on the switch path).
    pkey_syscall_ns: int = 700

    # ------------------------------------------------------------------
    # Call gate (§4.2, Listing 1)
    # ------------------------------------------------------------------
    #: stack switch + function-pointer-vector dispatch + WRPKRU(RUNTIME_KEY)
    callgate_enter_ns: int = 45
    #: WRPKRU(app key) + RDPKRU recheck loop + stack restore
    callgate_exit_ns: int = 40

    # ------------------------------------------------------------------
    # Context save/restore in userspace (registers + FP state subset)
    # ------------------------------------------------------------------
    uctx_save_ns: int = 25
    uctx_restore_ns: int = 25
    #: runtime bookkeeping per switch (queue pop/push, map update)
    runtime_queue_ns: int = 25

    # ------------------------------------------------------------------
    # Uintr (§2.2: up to 15x lower latency than IPI-based signals)
    # ------------------------------------------------------------------
    #: senduipi cost on the sender core
    uintr_send_ns: int = 50
    #: hardware delivery to a receiver running in user mode
    uintr_deliver_ns: int = 120
    #: uiret on handler exit
    uiret_ns: int = 40

    # ------------------------------------------------------------------
    # Kernel paths (used by Caladan / Arachne / CFS baselines)
    # ------------------------------------------------------------------
    #: one user->kernel->user crossing (mitigations disabled, §6.1)
    syscall_ns: int = 150
    #: IPI send + delivery + kernel interrupt entry on the victim
    ipi_deliver_ns: int = 1800
    #: posting + delivering a POSIX signal to a userspace handler
    signal_deliver_ns: int = 900
    #: kernel context switch: runqueue ops + page-table switch + TLB effects
    kernel_ctx_switch_ns: int = 1400

    # ------------------------------------------------------------------
    # Figure 3: Caladan core-reallocation pipeline phases (sum = 5300 ns)
    # ------------------------------------------------------------------
    caladan_ioctl_ns: int = 800
    caladan_ipi_ns: int = 1000
    caladan_trap_sigusr_ns: int = 700
    caladan_user_save_ns: int = 800
    caladan_kernel_switch_ns: int = 1200
    caladan_restore_ns: int = 800

    #: Caladan's cheaper, park-based (cooperative) switch: the core yields
    #: through the runtime (caladan_park_yield_ns) and the iokernel
    #: rebinds it to the next app (caladan_park_switch_ns); the sum is the
    #: one-way switch Table 1 reports at 2.103 µs average.
    caladan_park_yield_ns: int = 150
    caladan_park_switch_ns: int = 1950
    #: how quickly the IOKernel's poll loop notices a congested app
    caladan_iokernel_react_ns: int = 1000

    # ------------------------------------------------------------------
    # Arachne (core-estimator baseline)
    # ------------------------------------------------------------------
    arachne_estimator_interval_ns: int = 50_000_000
    #: kernel-mediated core grant/revoke (measured ~29 µs in Arachne)
    arachne_core_grant_ns: int = 29_000
    #: per-request kernel block/wake path in Arachne's runtime
    arachne_wake_ns: int = 2_000

    #: per-request kernel network stack cost (softirq + epoll + syscalls)
    #: paid by apps that do not kernel-bypass (the CFS baseline)
    kernel_net_ns: int = 2_500

    # ------------------------------------------------------------------
    # Scheduler cadence (§4.5, Figure 7)
    # ------------------------------------------------------------------
    #: VESSEL's scheduler scan interval over the per-core FIFO queues
    vessel_scan_interval_ns: int = 1000
    #: Caladan's IOKernel core-allocation interval ("every 10 µs", §2.1)
    caladan_core_alloc_interval_ns: int = 10_000
    #: Caladan: an idle core steals for >= 2 µs before parking (Fig. 7a)
    caladan_steal_before_park_ns: int = 2000
    #: cost of one work-steal attempt inside an application
    steal_attempt_ns: int = 100
    #: UMWAIT wake latency (light-weight power state, §4.5 footnote)
    umwait_wake_ns: int = 100
    #: control-plane capacity: per-managed-core work of one VESSEL
    #: scheduler pass; the scan interval stretches once the pass no longer
    #: fits in vessel_scan_interval_ns (knee at ~42 cores, Figure 12)
    vessel_sched_per_core_ns: int = 23
    #: same for Caladan's IOKernel, which also forwards packets and is
    #: an order of magnitude heavier per core (knee at ~34 cores)
    caladan_iokernel_per_core_ns: int = 295
    #: how quickly the busy-polling scheduler notices a new arrival
    sched_react_ns: int = 300

    # ------------------------------------------------------------------
    # CFS (kernel scheduler baseline)
    # ------------------------------------------------------------------
    cfs_sched_latency_ns: int = 24_000_000
    cfs_min_granularity_ns: int = 3_000_000
    #: wakeup-to-run latency through the kernel (enqueue + IPI + switch)
    cfs_wakeup_ns: int = 5_000

    # ------------------------------------------------------------------
    # Jitter model: rare machine-level interference producing the P999
    # tails of Table 1 (0.706 µs for VESSEL, 5.461 µs for Caladan).
    # ------------------------------------------------------------------
    jitter_probability: float = 0.002
    jitter_min_ns: int = 350
    jitter_max_ns: int = 750
    #: the kernel paths see larger interference (softirqs, timer ticks)
    kernel_jitter_probability: float = 0.002
    kernel_jitter_min_ns: int = 2500
    kernel_jitter_max_ns: int = 4200

    def kernel_jitter_ns(self, rng: random.Random) -> int:
        """Occasional extra latency on kernel-mediated paths."""
        if rng.random() < self.kernel_jitter_probability:
            return rng.randint(self.kernel_jitter_min_ns,
                               self.kernel_jitter_max_ns)
        return 0

    def caladan_switch_noise_ns(self, rng: random.Random) -> int:
        """Per-switch spread of the kernel-mediated cooperative path."""
        noise = int(abs(rng.gauss(0.0, 25.0)))
        if rng.random() < 0.02:  # occasional softirq on the way
            noise += rng.randint(150, 450)
        return noise

    # ------------------------------------------------------------------
    # Composite paths
    # ------------------------------------------------------------------
    def vessel_park_switch_ns(self) -> int:
        """Cooperative uProcess switch (Fig. 6 via park): pure user code."""
        return (
            self.uctx_save_ns
            + self.callgate_enter_ns
            + self.runtime_queue_ns
            + self.uctx_restore_ns
            + self.callgate_exit_ns
        )

    def vessel_preempt_switch_ns(self) -> int:
        """Preemptive uProcess switch: Uintr delivery + handler + switch."""
        return (
            self.uintr_send_ns
            + self.uintr_deliver_ns
            + self.vessel_park_switch_ns()
            + self.uiret_ns
        )

    def copy(self, **overrides: int) -> "CostModel":
        """A copy with selected constants overridden (for ablations)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(overrides)
        return CostModel(**values)
