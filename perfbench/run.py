"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-full --seed 20220322 \\
        --seconds 30 --trace 0

A run measures a fixed number of units of work, set by ``--seconds``
(each workload has a nominal unit length), and reports medians over
them.  Unit ``j`` studies world ``seed + j * WORLD_STRIDE`` (modulo
the workload's number of worlds), so unit 0 is the ``--seed`` world
itself; service-xl unit ``j`` draws its requests from the mix seed
``mix_seed + j * MIX_STRIDE`` (``--mix-seed``, default: the seed).
Every unit's output is checked; the run prints one line per metric
(reference value, unit, raw value beside it) and, last, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Exit status is 0 only when every check
passed.

``--selftest`` times the calibration kernel alone and with a full-scale
world alive in the process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")

END_TO_END = (("setup_s", "s"), ("study_s", "s"), ("peak_rss_mb", "MB"))

#: reference seconds one unit of each workload takes, kernel included;
#: ``--seconds`` buys round(seconds / nominal) units
NOMINAL_UNIT_S = {"batch-full": 10.5, "service-xl": 10.5,
                  "sharded-full": 7.0}
#: distance between the world seeds a run studies
WORLD_STRIDE = 1_000_003
#: distinct worlds per run (None: a new world every unit).  Only
#: batch-full, whose own digest is the serial one, gets a world per
#: unit: any other workload's output check costs a serial study of each
#: world not met before, as long as a unit itself.  Two worlds still
#: damp the spread that the worlds' own work differences put between
#: runs of different seeds.
WORLDS = {"batch-full": None, "service-xl": 2, "sharded-full": 2}
#: distance between the request-mix seeds of consecutive service-xl units
MIX_STRIDE = 1_000_003
#: the string hash seed of every run (see pin_hash_seed)
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_UNIT_S))
    parser.add_argument("--seed", type=int, default=None,
                        help="world seed of the first unit "
                             "(default: the program's, 20220322)")
    parser.add_argument("--mix-seed", type=int, default=None,
                        help="service-xl request-mix seed (default: --seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="time the kernel with and without a world alive")
    args = parser.parse_args(argv)
    if args.workload is None and not args.selftest:
        parser.error("--workload is required")
    return args


def import_program() -> bool:
    """Put the checkout's ``src/`` on the path; False if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    return True


def pin_hash_seed(argv) -> None:
    """Re-exec under a fixed ``PYTHONHASHSEED``.

    Pickle sizes (checkpoint bytes, shard-result bytes) follow set
    iteration order, which follows the string hash seed, and dict and
    set layouts move the program's speed by several per cent from one
    hash seed to the next.  One hash seed for every run makes every
    count repeat exactly and keeps that from the spread between runs of
    different ``--seed``.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)


def plan(args) -> list[tuple[int, bool]]:
    """``(unit index j, traced)`` per unit.  A traced run pairs an
    untraced and a traced unit on the same inputs, so the overhead ratio
    compares like with like."""
    units = max(1, round(args.seconds / NOMINAL_UNIT_S[args.workload]))
    if args.trace:
        return [(j, traced) for j in range(max(1, units // 2))
                for traced in (False, True)]
    return [(j, False) for j in range(units)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not import_program():
        print("perfbench: no program sources at src/repro in this "
              "checkout; nothing to measure", file=sys.stderr)
        return 2
    from repro.world.calibration import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    pin_hash_seed(argv)
    os.makedirs(WORKDIR, exist_ok=True)
    tempfile.tempdir = WORKDIR
    if args.selftest:
        import selftest
        return selftest.main()

    import checks
    import layers
    import workloads
    from calibration import KERNEL_REF_MS, pin_to, spread
    from tracing import SpanRecorder

    mix_seed = seed if args.mix_seed is None else args.mix_seed
    unit_fn, scale_key = workloads.WORKLOADS[args.workload]
    # the kernel must run on the vCPU the work runs on: vCPUs drift
    # independently, so the process is held to one of them (sharded-full
    # gives its shard workers, which keep their own clocks, all of them)
    pin_to([max(os.sched_getaffinity(0))])
    worlds = WORLDS[args.workload]
    untraced, traced = [], []
    for index, (j, trace_this) in enumerate(plan(args)):
        mix = (mix_seed + j * MIX_STRIDE if args.workload == "service-xl"
               else None)
        world = seed + (j if worlds is None else j % worlds) * WORLD_STRIDE
        ctx = workloads.Context(args.workload, world, mix, WORKDIR, index)
        recorder = SpanRecorder() if trace_this else None
        try:
            unit = unit_fn(ctx, recorder)
        finally:
            if recorder is not None:
                recorder.restore()
        (traced if trace_this else untraced).append((unit, recorder))
    rss = workloads.peak_rss_mb(children=args.workload == "sharded-full")
    units = [u for u, _ in untraced + traced]
    verdict = checks.check_run(units, scale_key, WORKDIR)
    plain = [u for u, _ in untraced]
    setup = median_over_worlds(plain, "setup")
    study = median_over_worlds(plain, "study")

    print(f"perfbench {args.workload} seed={seed} "
          f"mix_seed={mix_seed if args.workload == 'service-xl' else '-'} "
          f"units={len(untraced)} untraced + {len(traced)} traced")
    for u in units:
        print(f"  unit {u.ctx.index} world {u.ctx.seed}: setup "
              f"{u.setup[0]:.4f} s (raw {u.setup[1]:.4f})  study "
              f"{u.study[0]:.4f} s (raw {u.study[1]:.4f})  "
              f"kernel {statistics.median(u.timeline.kernel_ms):.3f} ms")
    print(f"  setup_s      {setup[0]:.4f} s   (raw {setup[1]:.4f} s)")
    print(f"  study_s      {study[0]:.4f} s   (raw {study[1]:.4f} s)")
    print(f"  peak_rss_mb  {rss:.1f} MB")
    for line in layers.latency_lines(plain):
        print(f"  {line}")
    print(f"  failed_ratio {verdict.failed / verdict.attempted:.6f} "
          f"({verdict.failed}/{verdict.attempted})")
    kernel = [k for u in units for k in u.timeline.kernel_ms]
    print(f"  bench.kernel_ms {statistics.median(kernel):.4f} ms   "
          f"bench.kernel_spread {spread(kernel):.4f}   "
          f"(reference {KERNEL_REF_MS} ms)")
    for change in verdict.changes:
        print(f"  BEHAVIOUR CHANGE: {change}")
    for problem in verdict.problems:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        unit, recorder = traced[0]
        metrics = layers.layer_metrics(recorder, unit, plain[0])
        metrics["obs.tracing_overhead_ratio"] = statistics.median(
            t.study[0] / u.study[0]
            for (u, _), (t, _) in zip(untraced, traced))
        print(f"  self time by span, world {unit.ctx.seed} (reference s):")
        for name, calls, total, own in layers.self_time_table(
                recorder, unit.timeline):
            print(f"    {name:<34} calls={calls:<7} total={total:.4f} "
                  f"self={own:.4f}")
        path = os.path.join(
            WORKDIR, f"spans-{args.workload}-{unit.ctx.seed}.jsonl")
        recorder.dump(path, unit.timeline.factor_at)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
        catalogue = layers.PER_LAYER
    else:
        metrics = {"setup_s": setup[0], "study_s": study[0],
                   "peak_rss_mb": rss}
        catalogue = END_TO_END
    print(json.dumps({
        "correct": verdict.correct, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_name}
                    for name, unit_name in catalogue}}))
    return 0 if verdict.correct else 1


def median_pair(pairs):
    """Median reference and median raw seconds of ``(ref, raw)`` pairs."""
    refs, raws = zip(*pairs)
    return statistics.median(refs), statistics.median(raws)


def median_over_worlds(units, attr: str):
    """Median over the run's worlds of the median over each world's units,
    so that a world with more units does not outweigh the others."""
    by_world: dict[int, list] = {}
    for unit in units:
        by_world.setdefault(unit.ctx.seed, []).append(getattr(unit, attr))
    return median_pair(median_pair(pairs) for pairs in by_world.values())


if __name__ == "__main__":
    sys.exit(main())
