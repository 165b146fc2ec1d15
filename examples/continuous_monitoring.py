#!/usr/bin/env python3
"""MalNet as an always-on monitoring service (paper sections 1 and 6a).

Runs the study service ``repro serve`` runs, on an ephemeral port, and
ingests the study one feed day at a time over its HTTP API.  After each
day it polls the two monitoring views a SOC subscriber would read,
``GET /alerts?since=DAY`` and ``GET /rules?since=DAY``, and prints the
live alert feed — new C2 discoveries, TI blind spots ("live C2 unknown
to every feed — block it now"), first exploit sightings, attacks caught
mid-launch — plus the firewall rules shipped that day.

Run:  python examples/continuous_monitoring.py
"""

import threading
from collections import Counter

from repro.core.monitor import Alert, AlertKind
from repro.service import StudyClient, StudyService, build_server
from repro.world import StudyScale


def main() -> None:
    scale = StudyScale(sample_fraction=0.08, probe_days=2,
                       observe_duration=1200.0)
    service = StudyService(seed=2132642, scale=scale)
    server = build_server(service)  # port 0: ephemeral
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = StudyClient(f"http://127.0.0.1:{server.server_address[1]}")

    print(f"monitoring {scale.total_samples} binaries over "
          f"{service.runner.total_days} feed days ...\n")
    counts: Counter = Counter()
    blind_spots: list[Alert] = []
    shown = 0
    finalized = False
    while not finalized:
        ingested = client.ingest(1)   # the last day also finalizes
        day, finalized = ingested["last_day"], ingested["finalized"]
        for doc in client.alerts(since=day)["alerts"]:
            alert = Alert(AlertKind(doc["kind"]), doc["day"],
                          doc["subject"], doc["detail"])
            counts[alert.kind] += 1
            if alert.kind is AlertKind.TI_BLIND_SPOT:
                blind_spots.append(alert)
            if shown < 25 or alert.kind in (AlertKind.ATTACK_IN_PROGRESS,
                                            AlertKind.TI_BLIND_SPOT):
                print(alert.render())
                shown += 1
        shipped = client.rules(since=day).splitlines()
        if shipped and shown < 40:
            print(f"[day {day:>3}] shipped {len(shipped)} "
                  f"new firewall rules")

    print()
    print("alert totals:")
    for kind in AlertKind:
        print(f"  {kind.value:<16} {counts[kind]}")
    print()
    print(f"datasets accumulated: {client.status()['datasets']}")
    on_time = 0
    for alert in blind_spots:
        shipped = service.first_rule_day(alert.subject)
        if shipped is not None and shipped <= alert.day:
            on_time += 1
    print(f"\n{len(blind_spots)} live C2s were unknown to all TI feeds when "
          f"found; {on_time} of them were blocked by a rule shipped that "
          "same day — the just-in-time value a binary-centric monitor "
          "provides.")
    client.close()
    server.shutdown()
    server.server_close()
    thread.join()


if __name__ == "__main__":
    main()
