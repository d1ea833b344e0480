#!/usr/bin/env python
"""Live orchestration: real numerical kernels under the threaded driver.

Runs an actual NumPy Gray-Scott solver with a real isosurface analysis on
*wall-clock* time, with the DYFLOW stages (Monitor → Decision →
Arbitration/Actuation) running as threads connected by queues, exactly
as in the paper's Fig. 2 implementation.

Two live behaviours are demonstrated:

* **Monitoring** — the analysis' real loop times stream through a
  TAU-style PACE sensor into the Decision stage.
* **Failure recovery (§4.5 live)** — the analysis crashes mid-run (an
  injected software failure); Savanna-style status records carry the
  exit code to the STATUS sensor, and RESTART_ON_FAILURE brings the
  analysis back while the solver keeps running.  The restart is planned
  and actuated by the same Arbitration and Actuation stages the
  simulator runs, through a live launcher.

Run:  python examples/live_gray_scott.py   (takes ~15 wall seconds)
"""

import time

import numpy as np

from repro.api import (
    ActionType,
    GrayScottSolver,
    GroupBySpec,
    isosurface_cell_count,
    LiveTaskSpec,
    PolicyApplication,
    PolicySpec,
    SensorSpec,
    ThreadedDyflow,
    reason_counts,
)

GRID = (256, 256)
TOTAL_STEPS = 40
CRASH_AT_STEP = 12


def main() -> None:
    solver = GrayScottSolver.preset("stripes", shape=GRID, seed=3)
    latest = {"field": solver.snapshot()["v"]}
    crashed = {"done": False}
    cells = []

    # Each step pairs real compute with a wall-clock pace of ~0.2 s so the
    # run unfolds on a human timescale (a real solver step would).
    def sim_work(step: int, _nworkers: int) -> None:
        solver.step(20)
        latest["field"] = solver.snapshot()["v"]
        time.sleep(0.15)

    def analysis_work(step: int, _nworkers: int) -> None:
        if step == CRASH_AT_STEP and not crashed["done"]:
            crashed["done"] = True
            raise RuntimeError("injected software failure (buffer overrun)")
        field = latest["field"]
        count = sum(isosurface_cell_count(field, iso) for iso in (0.1, 0.2, 0.3))
        cells.append(count)
        time.sleep(0.15)

    runner = ThreadedDyflow(
        "LIVE-GS",
        [
            LiveTaskSpec("Solver", sim_work, total_steps=TOTAL_STEPS),
            LiveTaskSpec("Isosurface", analysis_work, total_steps=TOTAL_STEPS),
        ],
        poll_interval=0.1,
        warmup=0.5,
        settle=0.5,
    )
    runner.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    runner.monitor_task("Isosurface", "PACE")
    runner.add_sensor(SensorSpec("STATUS", "ERRORSTATUS", (GroupBySpec("task", "FIRST"),)))
    runner.monitor_task("Isosurface", "STATUS", var=None)
    runner.add_policy(
        PolicySpec("RESTART_ON_FAILURE", "STATUS", "GT", 0.0, ActionType.RESTART,
                   frequency=0.5)
    )
    runner.apply_policy(
        PolicyApplication("RESTART_ON_FAILURE", "LIVE-GS", ("Isosurface",),
                          assess_task="Isosurface")
    )

    print(f"live run: Gray-Scott {GRID} solver + isosurface analysis "
          f"(injected crash at analysis step {CRASH_AT_STEP})")
    runner.start()
    finished = runner.wait_until_done(timeout=120.0)
    runner.stop()

    print(f"\nall tasks finished: {finished}; solver advanced {solver.step_count} PDE steps")
    print(f"isosurface analysis ran {runner.launcher.record('Isosurface').incarnations} "
          "incarnations (1 crash + 1 DYFLOW restart expected)")
    # Every suggestion ends in one Outcome in the run log, as on the simulator.
    print("\nhow DYFLOW's suggestions ended:")
    for reason, count in sorted(reason_counts(runner.launcher.log).items()):
        print(f"  {reason:>18}: {count}")
    for plan in runner.plans:
        print(f"  {plan.plan_id} granted {', '.join(plan.accepted)} "
              f"(response {plan.response_time:.2f} s)")
    status = runner.hub.filesystem.read("status/LIVE-GS/Isosurface")
    print("\nexit-status records the STATUS sensor observed:")
    for record in status:
        print(f"  t={record['time']:6.1f}s  incarnation {record['incarnation']} "
              f"exit code {record['code']}")
    pace = [v for u in runner.server.history if u.task == "Isosurface" and u.var == "looptime"
            for v in [u.value]]
    if pace:
        print(f"\nanalysis pace: mean {np.mean(pace)*1e3:.1f} ms/step over {len(pace)} "
              f"observed steps; active isosurface cells grew to {max(cells):,}")


if __name__ == "__main__":
    main()
