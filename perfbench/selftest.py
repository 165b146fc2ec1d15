"""Calibration self-test: is the kernel's speed independent of program state?

Reference time is only sound if the kernel measures the host and not
the program: a kernel that ran slower with a full-scale world in memory
(cache or allocator pressure, GC bookkeeping of program objects) would
turn program state into a phantom speed-up.

The host's own speed swings by up to 2x within seconds, so two blocks
timed apart cannot be compared.  Instead a helper process that never
holds program state runs kernel passes in strict alternation with this
process, both pinned to the same vCPU: each pair of passes sees the same
host.  The median pair ratio is taken first with no world in either
process, then with a full-scale world alive in this one; the test fails
when the world moves the ratio by more than ``TOLERANCE``.

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import multiprocessing
import os
import statistics

from calibration import KERNEL_REF_MS, kernel_pass, pin_to

import repro.world.generator as generator_mod
from repro.world.calibration import DEFAULT_SEED, FULL_SCALE

PAIRS = 400
TOLERANCE = 0.05


def _alone(conn) -> None:
    """Kernel passes on request, in a process holding no program state."""
    while conn.recv():
        conn.send(kernel_pass())


def _paired(conn) -> tuple[list[float], list[float]]:
    here, there = [], []
    for _ in range(PAIRS):
        here.append(kernel_pass())
        conn.send(True)
        there.append(conn.recv())
    return here, there


def main() -> int:
    pin_to([max(os.sched_getaffinity(0))])
    context = multiprocessing.get_context("spawn")
    conn, child_conn = context.Pipe()
    helper = context.Process(target=_alone, args=(child_conn,), daemon=True)
    helper.start()
    try:
        before = _paired(conn)
        world = generator_mod.generate_world(seed=DEFAULT_SEED,
                                             scale=FULL_SCALE)
        alive = _paired(conn)
        samples = len(world.truth.all_samples)
    finally:
        conn.send(False)
        helper.join(timeout=30.0)
        if helper.is_alive():
            helper.terminate()
            helper.join()

    def ratio(pair):
        return statistics.median(a / b for a, b in zip(*pair))

    base, loaded = ratio(before), ratio(alive)
    shift = loaded / base - 1.0
    print(f"kernel, no world anywhere : this "
          f"{statistics.median(before[0]):.4f} ms, helper "
          f"{statistics.median(before[1]):.4f} ms, "
          f"pair ratio {base:.4f}  (n={PAIRS})")
    print(f"kernel, world alive here  : this "
          f"{statistics.median(alive[0]):.4f} ms, helper "
          f"{statistics.median(alive[1]):.4f} ms, "
          f"pair ratio {loaded:.4f}  ({samples} samples in memory)")
    print(f"world effect on the kernel {shift:+.2%} (tolerance "
          f"±{TOLERANCE:.0%}; reference {KERNEL_REF_MS} ms)")
    ok = abs(shift) <= TOLERANCE
    print("selftest", "passed" if ok else
          "FAILED: the kernel depends on program state")
    return 0 if ok else 1
