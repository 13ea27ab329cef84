"""§2.2 microbenchmark: Uintr vs kernel-signal (IPI) latency.

"Uintr enables two kernel threads to ... send and receive interrupts
directly in userspace, achieving up to 15x lower latencies than
IPI-based signals."  We measure both paths end to end on the simulated
machine: sender fires, receiver's handler runs.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import Simulator
from repro.hardware.machine import Machine
from repro.experiments.common import ExperimentConfig, format_table

PAPER_RATIO = 15.0
#: interrupts sent down each path
ITERATIONS = 1000


def run(cfg: ExperimentConfig = None) -> Dict:
    cfg = cfg or ExperimentConfig()

    # --- Uintr path --------------------------------------------------
    sim = Simulator()
    machine = Machine(sim, cfg.costs, 2)
    latencies_uintr = []
    fired = {}
    machine.uintr.register_handler(1, lambda vec: latencies_uintr.append(
        sim.now - fired["t"]))
    machine.uintr.on_user_resume(1)
    index = machine.uintr.register_sender(0, 1, vector=3)
    for _ in range(ITERATIONS):
        fired["t"] = sim.now
        machine.uintr.senduipi(0, index)
        sim.run()

    # --- IPI + signal path -------------------------------------------
    sim2 = Simulator()
    machine2 = Machine(sim2, cfg.costs, 2)
    latencies_ipi = []
    fired2 = {}

    def kernel_handler(vector: int) -> None:
        # The kernel handler posts a signal to the userspace handler.
        sim2.after(cfg.costs.signal_deliver_ns,
                   lambda: latencies_ipi.append(sim2.now - fired2["t"]))

    machine2.ipi.register_handler(1, kernel_handler)
    for _ in range(ITERATIONS):
        fired2["t"] = sim2.now
        # The sender must trap into the kernel to issue the IPI.
        sim2.after(cfg.costs.syscall_ns, machine2.ipi.send, 1)
        sim2.run()

    uintr_ns = sum(latencies_uintr) / len(latencies_uintr)
    ipi_ns = sum(latencies_ipi) / len(latencies_ipi)
    return {
        "uintr_us": uintr_ns / 1000.0,
        "ipi_signal_us": ipi_ns / 1000.0,
        "ratio": ipi_ns / uintr_ns,
        "paper_ratio": PAPER_RATIO,
        "delivered": machine.uintr.delivered,
    }


def main(cfg: ExperimentConfig = None) -> Dict:
    results = run(cfg)
    print("2.2 microbenchmark: user-interrupt vs IPI-signal latency")
    print(format_table(
        ["path", "latency (us)"],
        [["uintr", round(results["uintr_us"], 3)],
         ["IPI + signal", round(results["ipi_signal_us"], 3)]]))
    print(f"ratio: {results['ratio']:.1f}x "
          f"(paper: up to {results['paper_ratio']:.0f}x)")
    return results
