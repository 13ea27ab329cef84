"""``chaos --op-breakdown`` names each run's fault plan above its table.

The harness heads every per-op breakdown table with the system name
only, so the three drop rates of one system's sweep would print under
the same header.  ``chaos`` prints a ``[chaos] <run>`` label before each
run when the flag is set, and nothing extra without it.
"""

from repro.__main__ import main as front_end

LABELS = [f"[chaos] {system} drop_p={drop_p}"
          for system in ("vessel", "caladan")
          for drop_p in ("0.00", "0.02", "0.05")] \
    + ["[chaos] vessel full chaos"]


def test_op_breakdown_labels_each_run_before_its_table(capsys):
    assert front_end(["chaos", "--smoke", "--op-breakdown"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.strip()]
    labels = [line for line in lines if line.startswith("[chaos] ")]
    assert labels == LABELS
    for label in labels:
        system = label.split()[1]
        after = lines[lines.index(label) + 1]
        assert after == f"[{system}] per-op breakdown (measurement window)"


def test_no_labels_without_the_flag(capsys):
    assert front_end(["chaos", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "[chaos]" not in out and "per-op breakdown" not in out
