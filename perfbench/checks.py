"""Output checks: the byte-identity oracle and the exact-count guard.

Every unit's dataset digest must equal the serial digest of its world.
For the worlds a default run studies (``--seed 20220322``) the serial
digests are committed in ``expected.json``, computed by plain serial
``run_study`` calls.  For any other world the serial digest is computed
once -- by the first ``batch-full`` unit of that world, whose stepped
day loop is the serial engine, or else by a serial ``run_study`` after
the measurement -- and kept in ``.perfbench/reference.json`` for later
runs in the same checkout.  After ``service-xl`` unit 0 a second
``StudyService`` on its checkpoint directory must resume finalized with
the same digest.

Every count a unit reports (samples, records, capture rows, checkpoint
bytes, requests by status, cacheable reads, ETag hits) must repeat
exactly for its workload, world and request mix: against
``expected.json`` for a default run, otherwise against the first unit
that reported it in this checkout.  A moved request-status count fails
the run, since a request answered with another status is a wrong
output.  Any other moved count is printed as a behaviour change and
does not fail the run: records and checkpoint bytes are what an
intended change to the program moves.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import repro.core.study as study_mod
import repro.service.server as server_mod
import repro.world.generator as generator_mod
from repro.core.cache import dataset_digest
from repro.world.calibration import FULL_SCALE, XL_SCALE

__all__ = ["Verdict", "check_run"]

_SCALES = {"full": FULL_SCALE, "xl": XL_SCALE}
#: digests and counts of the default run's worlds, committed
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")


@dataclasses.dataclass
class Verdict:
    correct: bool
    attempted: int
    failed: int
    problems: list
    #: moved counts that are not failures
    changes: list


class ReferenceStore:
    """Committed expectations, then first-seen values in this checkout."""

    def __init__(self, path: str):
        self.path = path
        with open(EXPECTED) as fh:
            self.expected = json.load(fh)
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def get(self, key: str):
        if key in self.expected:
            return self.expected[key]
        return self.data.get(key)

    def put(self, key: str, value) -> None:
        self.data[key] = value
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def serial_digest(scale_key: str, seed: int) -> str:
    """Digest of a plain serial study of this world (untimed)."""
    world = generator_mod.generate_world(seed=seed, scale=_SCALES[scale_key])
    return dataset_digest(study_mod.run_study(world)[2])


def check_resume(unit) -> list[str]:
    """A second service on the unit's checkpoints resumes, finalized."""
    try:
        again = server_mod.StudyService(unit.ctx.seed, XL_SCALE,
                                        checkpoint_dir=unit.checkpoint_dir)
        problems = []
        if not (again.resumed and again.finalized):
            problems.append("restarted service did not resume finalized")
        if again.digest() != unit.digest:
            problems.append("restarted service digest differs")
        return problems
    finally:
        shutil.rmtree(unit.checkpoint_dir, ignore_errors=True)


def check_run(units, scale_key: str, workdir: str) -> Verdict:
    """Check every unit's outputs; run this after peak RSS is read."""
    problems = [p for u in units for p in u.problems]
    failed = sum(u.failed for u in units)
    attempted = sum(u.attempted for u in units)
    changes = []
    store = ReferenceStore(os.path.join(workdir, "reference.json"))
    for index, unit in enumerate(units):
        ctx = unit.ctx
        where = f"unit {index} (world {ctx.seed})"
        if unit.checkpoint_dir is not None:
            restart = check_resume(unit) if not unit.problems else []
            problems.extend(f"{where}: {p}" for p in restart)
            failed += len(restart)
        digest_key = f"digest/{scale_key}/{ctx.seed}"
        reference = store.get(digest_key)
        if reference is None:
            reference = (unit.digest if ctx.workload == "batch-full"
                         else serial_digest(scale_key, ctx.seed))
            store.put(digest_key, reference)
        if unit.digest != reference:
            problems.append(f"{where}: dataset digest {unit.digest[:16]} "
                            f"!= serial {reference[:16]}")
            failed += 1
        counts_key = f"counts/{ctx.workload}/{ctx.seed}/{ctx.mix_seed}"
        expected = store.get(counts_key)
        if expected is None:
            store.put(counts_key, unit.counts)
            continue
        statuses = {k for k in (*expected, *unit.counts)
                    if k.startswith("status_")}
        shared = statuses | (expected.keys() & unit.counts.keys())
        moved = sorted((k, expected.get(k, 0), unit.counts.get(k, 0))
                       for k in shared
                       if expected.get(k, 0) != unit.counts.get(k, 0))
        wrong = [m for m in moved if m[0] in statuses]
        if wrong:
            problems.append(f"{where}: requests by status moved "
                            + _moves(wrong))
            failed += 1
        if len(wrong) < len(moved):
            changes.append(f"{where}: counts moved " + _moves(
                [m for m in moved if m[0] not in statuses]))
    return Verdict(correct=not problems, attempted=max(attempted, 1),
                   failed=failed, problems=problems, changes=changes)


def _moves(moved) -> str:
    return ", ".join(f"{key} {was} -> {now}" for key, was, now in moved)
