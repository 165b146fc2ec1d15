"""Paper-derived constants in one place.

Every number here traces to a statement in the paper; the world generator
consumes these so that the *measured* outputs of the pipeline land in the
paper's ballpark.  Changing a constant here is how the ablation benches
explore "what if the world were different".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.internet import SECONDS_PER_DAY, STUDY_EPOCH

#: Default experiment seed (the paper's collection started 2022-03-22 is
#: not meaningful here; this is just a stable default).
DEFAULT_SEED = 20220322

#: Total samples collected over the year (Table 1).
TOTAL_SAMPLES = 1447

#: The study spans 31 active collection weeks (Figure 1 / Appendix E).
ACTIVE_WEEKS = 31

#: Appendix E's mapping from study week (1-based) to (year, iso week).
WEEK_DATES: dict[int, tuple[int, int]] = {}
for _study_week in range(1, 32):
    if _study_week == 1:
        WEEK_DATES[_study_week] = (2021, 14)
    elif 2 <= _study_week <= 11:
        WEEK_DATES[_study_week] = (2021, 24 + (_study_week - 2))
    elif 12 <= _study_week <= 20:
        WEEK_DATES[_study_week] = (2021, 44 + (_study_week - 12))
    else:
        WEEK_DATES[_study_week] = (2022, 2 + (_study_week - 21))

#: Simulated-time offset of each active study week from the epoch.  We lay
#: the 31 active weeks on consecutive simulated weeks 0..30 and keep the
#: calendar mapping above for reporting.
def week_start(study_week: int) -> float:
    """Simulation time at which active study week (1-based) begins."""
    if not 1 <= study_week <= ACTIVE_WEEKS:
        raise ValueError(f"study week out of range: {study_week}")
    return STUDY_EPOCH + (study_week - 1) * 7 * SECONDS_PER_DAY

#: Query date for the second TI measurement: "May 7th 2022" — after the
#: last active week (week 31 ends at epoch + 31 weeks; we add 8 weeks).
MAY_7_2022 = STUDY_EPOCH + (ACTIVE_WEEKS + 8) * 7 * SECONDS_PER_DAY

#: Family mix of the collected samples (paper lists the families in
#: Table 1 but not their proportions; Mirai/Gafgyt dominance and a
#: substantial Mozi share follow the ecosystem reports it cites).
FAMILY_MIX: tuple[tuple[str, float], ...] = (
    ("mirai", 0.40),
    ("gafgyt", 0.28),
    ("mozi", 0.13),
    ("tsunami", 0.07),
    ("daddyl33t", 0.06),
    ("hajime", 0.03),
    ("vpnfilter", 0.03),
)

#: Fraction of C2 endpoints that are domain names rather than IPs.
#: Derived from Table 3: 15.3 = f*57.6 + (1-f)*13.3  =>  f ~ 4.5%.
DNS_C2_FRACTION = 0.06

#: Distribution of samples-per-campaign (Figure 5's reuse CDF): ~40% of
#: C2s serve one binary, ~20% serve more than ten.
CAMPAIGN_SIZES: tuple[tuple[int, float], ...] = (
    (1, 0.40), (2, 0.11), (3, 0.07), (4, 0.05), (5, 0.05),
    (7, 0.05), (9, 0.04), (11, 0.07), (13, 0.06), (15, 0.06),
    (17, 0.04),
)

#: C2 server lifetime (days online): genuinely short — this drives the
#: 60% dead-on-arrival rate of section 3.2 (feed latency of up to a day
#: plus next-noon analysis outlives most servers).
LIFETIME_BUCKETS: tuple[tuple[float, float, float], ...] = (
    # (low_days, high_days, probability)
    (0.08, 0.5, 0.65),
    (0.5, 1.5, 0.24),
    (1.5, 8.0, 0.08),
    (8.0, 30.0, 0.03),
)

#: Referral spread: over how many days a campaign's binaries surface.
#: This IS the observed-lifespan distribution of Figure 2: ~80% of C2s
#: are referred within a single day; the tail stretches to ~40 days and
#: pulls the mean to ~4 days.
SPREAD_BUCKETS: tuple[tuple[float, float, float], ...] = (
    (0.0, 0.7, 0.78),
    (2.0, 10.0, 0.06),
    (12.0, 35.0, 0.10),
    (35.0, 48.0, 0.06),
)

#: Share of C2s hosted in the top-10 ASes (section 3.1: 69.7%).
TOP10_AS_SHARE = 0.75

#: Relative weights of the top-10 ASes (Figure 1's dark rows: the top
#: four are consistently more active).
TOP10_AS_WEIGHTS: tuple[tuple[int, float], ...] = (
    (36352, 0.22),   # ColoCrossing
    (211252, 0.17),  # Delis LLC
    (14061, 0.15),   # DigitalOcean
    (53667, 0.13),   # FranTech
    (202306, 0.08),  # HOSTGLOBAL
    (399471, 0.07),  # Serverion
    (16276, 0.05),   # OVH
    (44812, 0.05),   # IP SERVER (spikes near week 28)
    (139884, 0.04),  # Apeiron (spikes near week 28)
    (50673, 0.04),   # Serverius
)

#: TI obscurity model (see repro.intel.vendors): IP-based C2s draw
#: obscurity U(0, IP_OBSCURITY_MAX); DNS C2s get an extra shift.
IP_OBSCURITY_MAX = 1.01
DNS_OBSCURITY_SHIFT = 0.40
#: probability the endpoint is known to feeds the same day it surfaces
SAME_DAY_PUBLICITY_IP = 0.95
SAME_DAY_PUBLICITY_DNS = 0.65
#: mean days of feed lag when not same-day
PUBLICITY_LAG_MEAN_DAYS = 12.0

#: Exploit arsenal: probability a (non-P2P) sample carries exploits at all
#: — Table 1: 197 of 1447 samples yielded exploits.
EXPLOIT_ARMED_FRACTION = 0.175

#: DDoS attack plan (section 5): 42 commands over 6 variants and 17 C2s.
ATTACK_COMMAND_COUNT = 42
ATTACK_C2_COUNT = 17
#: method mix chosen to reproduce Figures 10 and 11 (see DESIGN.md).
ATTACK_METHOD_PLAN: tuple[tuple[str, str, int], ...] = (
    # (family, method, count)
    ("mirai", "udp", 12),
    ("mirai", "syn", 3),
    ("mirai", "tls", 1),
    ("mirai", "stomp", 1),
    ("mirai", "dns", 2),        # udp flood aimed at port 53
    ("gafgyt", "udp", 4),
    ("gafgyt", "std", 1),
    ("gafgyt", "vse", 1),
    ("daddyl33t", "udpraw", 7),
    ("daddyl33t", "hydrasyn", 3),
    ("daddyl33t", "tls", 3),
    ("daddyl33t", "blacknurse", 3),
    ("daddyl33t", "nfo", 1),
)

#: attack-launching C2s live ~10 days (section 5) vs the 4-day average
ATTACK_C2_LIFETIME_DAYS = (8.0, 14.0)
#: countries of attack C2s: USA/NL/CZ issue 80% of attacks (section 5)
ATTACK_C2_COUNTRIES = ("US", "US", "US", "NL", "NL", "CZ", "CZ", "RU", "DE")

#: victim mix (section 5.3): 45% ISP ASes, 36% hosting, rest business;
#: 21% of attacks hit port 80, 7% port 443.
VICTIM_KIND_MIX = (("isp", 0.45), ("hosting", 0.36), ("business", 0.19))
PORT80_SHARE = 0.21
PORT443_SHARE = 0.07
#: 25% of targets are hit by two different attack types in one session
DOUBLE_ATTACK_TARGET_SHARE = 0.25

#: D-PC2 probing campaign (section 2.3b, Table 5, Appendix B).
PROBE_PORTS = (1312, 666, 1791, 9506, 606, 6738, 5555, 1014, 3074, 6969,
               42516, 81)
PROBE_SUBNET_COUNT = 6
PROBE_DAYS = 14
PROBE_INTERVAL_HOURS = 4
PROBED_C2_COUNT = 7

#: responsiveness of probed C2s (section 3.2: 91% no-repeat after success)
PROBED_P_OPEN = 0.28
PROBED_P_STAY = 0.09

#: downloader servers: 47 distinct addresses, 12 of them NOT also C2s,
#: all serving on port 80 (section 3.1).
DOWNLOADER_TOTAL = 47
DOWNLOADER_NOT_C2 = 12
DOWNLOADER_PORT = 80

#: DGA scenario (opt-in via StudyScale.dga; ROADMAP item 3).  Endpoint
#: churn dominates evasion in the wild ("Analyzing Endpoints in the
#: Internet of Things Malware"), so a sizable minority of DGA-capable
#: campaigns rotates domains instead of pinning one endpoint.
DGA_CAMPAIGN_FRACTION = 0.35
#: registrar-won candidates actually registered per day (of the family's
#: daily_candidates); operators pre-register only a couple of names
DGA_REGISTERED_PER_DAY = 2
#: per-candidate probability the operator wins the registration race
DGA_REGISTER_RATE = 0.5
#: extra server "generations" stood up after each takedown (inclusive)
DGA_EXTRA_GENERATIONS = (1, 3)
#: lifetime of each replacement generation (days, uniform)
DGA_GENERATION_DAYS = (1.0, 4.0)


@dataclass
class StudyScale:
    """Knobs to shrink the study for tests and smoke runs."""

    sample_fraction: float = 1.0
    probe_days: int = PROBE_DAYS
    observe_duration: float = 2 * 3600.0
    observe_poll_interval: float = 300.0
    scan_budget: int = 260
    #: fraction of generated samples built for ARM instead of MIPS
    #: (0.0 reproduces the paper's MIPS-only corpus; §6d extension)
    arm_fraction: float = 0.0
    #: opt-in DGA + defender co-simulation (``--dga``); off keeps the
    #: golden digests byte-identical because no extra RNG draws happen
    dga: bool = False

    @property
    def total_samples(self) -> int:
        return max(8, int(TOTAL_SAMPLES * self.sample_fraction))


FULL_SCALE = StudyScale()
SMOKE_SCALE = StudyScale(
    sample_fraction=0.05, probe_days=4, observe_duration=1800.0,
    observe_poll_interval=300.0, scan_budget=120,
)
#: ~10x the smoke corpus: the columnar-core stress scale.  Smoke-sized
#: probe/observe windows keep wall-clock in CI range while the sample
#: count (and hence packet volume) grows an order of magnitude.
XL_SCALE = StudyScale(
    sample_fraction=0.5, probe_days=4, observe_duration=1800.0,
    observe_poll_interval=300.0, scan_budget=120,
)
