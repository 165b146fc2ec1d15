"""WorldGenerator: one year of IoT malware activity, calibrated to MalNet.

Builds the closed world the pipeline measures: the network with its
AS-structured address space, C2 servers with lifespans and schedules,
malware campaigns whose binaries flow into the VirusTotal/MalwareBazaar
feeds, downloader servers, threat-intel knowledge, DDoS attack plans, and
the probe-able subnets of the D-PC2 experiment.

Everything is driven by one seed; generating the same world twice yields
byte-identical binaries and identical timelines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..binary.builder import build_sample
from ..binary.config import BotConfig
from ..botnet.c2server import C2Server, DownloaderHttp, ResponsivenessModel
from ..botnet.exploits import KEY_TO_INDEX, LOADER_WEIGHTS, POPULARITY_WEIGHTS
from ..botnet.families import (
    ATTACK_FAMILIES,
    dga_domains,
    dga_schedule_seed,
    get_family,
)
from ..defense import DnsDefense
from ..determinism import stable_unit
from ..botnet.protocols.base import AttackCommand
from ..feeds.malwarebazaar import MalwareBazaarService
from ..feeds.virustotal import VirusTotalService
from ..intel.asdb import AsDatabase, TOP_C2_ASES
from ..intel.vendors import IocIntel
from ..netsim.addresses import AddressAllocator, Subnet, int_to_ip
from ..netsim.internet import (
    Listener,
    Network,
    SECONDS_PER_DAY,
    STUDY_EPOCH,
)
from ..netsim.packet import Protocol
from . import calibration as cal
from .model import (
    C2Deployment,
    Campaign,
    GroundTruth,
    PlannedAttack,
    PlannedSample,
)

#: ports C2 operators actually use (seen throughout the IoT ecosystem)
C2_PORTS = (23, 48101, 666, 1312, 3074, 81, 6969, 1791, 9506, 42516)

ANALYSIS_HOUR_OFFSET = 12 * 3600.0  # daily analysis batch starts at 12:00


@dataclass(frozen=True)
class World:
    """The generated closed world handed to the pipeline.

    A value: data only, and no run writes to it.  It holds no traffic
    engine, clock or random stream: each run builds its own
    :class:`~repro.netsim.internet.VirtualInternet` over :attr:`network`
    and passes its own fault injector to the feeds, so one world serves
    any number of runs, threads and forked processes.
    """

    network: Network
    asdb: AsDatabase
    vt: VirusTotalService
    bazaar: MalwareBazaarService
    truth: GroundTruth
    scale: cal.StudyScale
    #: the generator seed: every stream a run draws derives from it, and
    #: the sharded runner regenerates this exact world from it
    seed: int
    #: start of the D-PC2 probing window
    probe_start: float

    @property
    def epoch(self) -> float:
        return STUDY_EPOCH


class WorldGenerator:
    """Deterministic builder of a :class:`World`."""

    def __init__(self, seed: int = cal.DEFAULT_SEED,
                 scale: cal.StudyScale | None = None):
        self.seed = seed
        self.scale = scale or cal.FULL_SCALE
        self.rng = random.Random(seed)
        self.network = Network()
        self.asdb = AsDatabase(random.Random(seed + 2))
        self.vt = VirusTotalService()
        self.bazaar = MalwareBazaarService()
        #: the feeds' publication-latency streams: generation draws them,
        #: the world keeps only the entries they produced
        self._vt_rng = random.Random(seed + 3)
        self._bazaar_rng = random.Random(seed + 4)
        self.allocator = AddressAllocator(random.Random(seed + 5))
        self.truth = GroundTruth()
        self._sample_budget = self.scale.total_samples
        self._dedicated_downloaders: list[int] = []
        self._downloader_pool: list[int] = []
        self._bootstrap_peers: list[str] = []
        self._binary_seed = 0
        # every Table 4 vulnerability must be carried by a few samples
        # (the paper observed all rows); queue each index twice so losing
        # one carrier to activation failure still leaves coverage
        self._pending_vulns = [
            index for index in KEY_TO_INDEX.values() for _ in range(2)
        ]
        self.rng.shuffle(self._pending_vulns)

    # -- entry point ---------------------------------------------------------

    def generate(self) -> World:
        if self.scale.dga:
            # the defender watches the registrar feed, so it must be in
            # place before the first domain registration
            self.network.zones.defense = DnsDefense(seed=self.seed)
        self._create_downloader_only_hosts()
        self._create_p2p_bootstrap()
        self._plan_attack_campaigns()
        self._plan_regular_campaigns()
        self._submit_chaff()
        self._register_intel()
        probe_start = self._plan_probing_world()
        return World(
            network=self.network, asdb=self.asdb, vt=self.vt,
            bazaar=self.bazaar, truth=self.truth, scale=self.scale,
            seed=self.seed, probe_start=probe_start,
        )

    # -- helpers ------------------------------------------------------------------

    def _weighted_choice(self, pairs) -> object:
        total = sum(weight for _value, weight in pairs)
        pick = self.rng.random() * total
        cumulative = 0.0
        for value, weight in pairs:
            cumulative += weight
            if pick <= cumulative:
                return value
        return pairs[-1][0]

    def _week_volume_weights(self) -> list[tuple[int, float]]:
        """Per-week sample volume (Figure 1: more since Jan 2022, peak wk 28)."""
        weights = []
        for week in range(1, cal.ACTIVE_WEEKS + 1):
            if week == 28:
                weight = 3.5
            elif week >= 21:
                weight = 1.6
            elif week >= 12:
                weight = 0.9
            else:
                weight = 0.6
            weights.append((week, weight))
        return weights

    def _pick_c2_asn(self, week: int) -> int:
        if self.rng.random() < cal.TOP10_AS_SHARE:
            weights = list(cal.TOP10_AS_WEIGHTS)
            if week >= 28:  # the late-study surge of AS-44812 / AS-139884
                weights = [
                    (asn, w * (7.0 if asn in (44812, 139884) else 1.0))
                    for asn, w in weights
                ]
            return self._weighted_choice(weights)
        tail = [asn for asn in self.asdb.records
                if asn not in {r.asn for r in TOP_C2_ASES}]
        return self.rng.choice(tail)

    def _bucket_draw(self, buckets) -> float:
        bucket = self._weighted_choice(
            [((low, high), p) for low, high, p in buckets]
        )
        low, high = bucket
        return self.rng.uniform(low, high)

    def _lifetime_days(self) -> float:
        return self._bucket_draw(cal.LIFETIME_BUCKETS)

    def _spread_days(self) -> float:
        return self._bucket_draw(cal.SPREAD_BUCKETS)

    def _make_domain(self) -> str:
        words = ("cnc", "net", "boat", "scan", "sora", "owari", "kill",
                 "dark", "pain", "okiru")
        tlds = ("xyz", "cc", "pw", "top", "ru", "net")
        return (f"{self.rng.choice(words)}{self.rng.randrange(100)}."
                f"{self.rng.choice(words)}.{self.rng.choice(tlds)}")

    def _next_binary_rng(self) -> random.Random:
        self._binary_seed += 1
        return random.Random((self.seed << 20) ^ self._binary_seed)

    # -- infrastructure ------------------------------------------------------------

    def _create_downloader_only_hosts(self) -> None:
        """The 12 downloader addresses that are not C2s (section 3.1)."""
        for _ in range(cal.DOWNLOADER_NOT_C2):
            asn = self._pick_c2_asn(week=1)
            address = self.asdb.allocate_address(asn, self.allocator, self.rng)
            host = self.network.add_host(address, name="downloader")
            host.bind(Listener(port=cal.DOWNLOADER_PORT, protocol=Protocol.TCP,
                               service=DownloaderHttp()))
            self._dedicated_downloaders.append(address)
            self.truth.downloader_only_addresses.append(address)

    def _create_p2p_bootstrap(self) -> None:
        """Stable DHT bootstrap nodes for Mozi/Hajime configs."""
        for _ in range(3):
            asn = self.rng.choice(list(self.asdb.records))
            address = self.asdb.allocate_address(asn, self.allocator, self.rng)
            self.network.add_host(address, name="dht-bootstrap")
            self._bootstrap_peers.append(f"{int_to_ip(address)}:6881")

    # -- C2 deployment ----------------------------------------------------------------

    def _deploy_c2(
        self,
        family: str,
        variant: str,
        week: int,
        lifetime_days: float | None = None,
        asn: int | None = None,
        is_attack: bool = False,
    ) -> C2Deployment:
        asn = asn if asn is not None else self._pick_c2_asn(week)
        address = self.asdb.allocate_address(asn, self.allocator, self.rng)
        port = self.rng.choice(C2_PORTS)
        online_from = cal.week_start(week) + self.rng.uniform(0, 6.5) * SECONDS_PER_DAY
        days = lifetime_days if lifetime_days is not None else self._lifetime_days()
        online_until = online_from + days * SECONDS_PER_DAY
        domain = None
        if self.rng.random() < cal.DNS_C2_FRACTION:
            domain = self._make_domain()
            self.network.zones.register(domain, address, since=online_from)
            self.network.zones.register(domain, None, since=online_until)
        host = self.network.add_host(address, name=f"c2-{family}")
        host.set_lifetime(online_from, online_until)
        # a discarded word: drawing it keeps every later draw of the
        # generator stream, and so every dataset digest, where it is
        self.rng.getrandbits(32)
        server = C2Server(get_family(family))
        host.bind(Listener(port=port, protocol=Protocol.TCP, service=server))
        # most C2 hosts co-host the loader-distribution service on port 80
        host.bind(Listener(port=cal.DOWNLOADER_PORT, protocol=Protocol.TCP,
                           service=DownloaderHttp()))
        if domain is None:
            obscurity = self.rng.uniform(0.0, cal.IP_OBSCURITY_MAX)
            same_day = cal.SAME_DAY_PUBLICITY_IP
        else:
            obscurity = (self.rng.uniform(0.0, cal.IP_OBSCURITY_MAX)
                         + cal.DNS_OBSCURITY_SHIFT)
            same_day = cal.SAME_DAY_PUBLICITY_DNS
        delay = (0.0 if self.rng.random() < same_day
                 else self.rng.expovariate(1.0 / cal.PUBLICITY_LAG_MEAN_DAYS))
        deployment = C2Deployment(
            address=address, port=port, family=family, variant=variant,
            asn=asn, domain=domain, online_from=online_from,
            online_until=online_until, server=server, obscurity=obscurity,
            publicity_delay_days=delay, is_attack_c2=is_attack,
        )
        self.truth.deployments.append(deployment)
        return deployment

    def _convert_to_dga(self, deployment: C2Deployment) -> None:
        """Rework a fresh deployment into a domain-rotating C2.

        The operator stands the *same* C2 server up on a chain of
        replacement addresses ("generations") as each one is taken down,
        and each day registers the registrar-won subset of that day's
        generated candidates pointing at whichever generation is alive.
        Surviving an IP takedown by rotating names is exactly the churn
        the defender loop then has to chase.
        """
        family = deployment.family
        deployment.dga = True
        deployment.dga_seed = dga_schedule_seed(
            self.seed, family, deployment.address
        )
        generations = [
            (deployment.address, deployment.online_from, deployment.online_until)
        ]
        for index in range(self.rng.randint(*cal.DGA_EXTRA_GENERATIONS)):
            address = self.asdb.allocate_address(
                deployment.asn, self.allocator, self.rng
            )
            start = generations[-1][2]
            end = start + self.rng.uniform(*cal.DGA_GENERATION_DAYS) * SECONDS_PER_DAY
            host = self.network.add_host(
                address, name=f"c2-{family}-gen{index + 1}"
            )
            host.set_lifetime(start, end)
            host.bind(Listener(port=deployment.port, protocol=Protocol.TCP,
                               service=deployment.server))
            host.bind(Listener(port=cal.DOWNLOADER_PORT, protocol=Protocol.TCP,
                               service=DownloaderHttp()))
            generations.append((address, start, end))
        deployment.generations = generations
        deployment.online_until = generations[-1][2]
        first_day = int((deployment.online_from - STUDY_EPOCH) // SECONDS_PER_DAY)
        last_day = int((deployment.online_until - STUDY_EPOCH) // SECONDS_PER_DAY)
        for day in range(first_day, last_day + 1):
            day_start = STUDY_EPOCH + day * SECONDS_PER_DAY
            day_end = day_start + SECONDS_PER_DAY
            noon = day_start + ANALYSIS_HOUR_OFFSET
            live = [g for g in generations if g[1] < day_end and day_start < g[2]]
            if not live:
                continue
            # prefer the generation serving at analysis time; else the
            # first one alive at any point of the day
            active = next(
                (g for g in live if g[1] <= noon < g[2]), live[0]
            )
            candidates = dga_domains(deployment.dga_seed, family, day)
            # the registrar race is a pure function of (world seed, name)
            # so every shard derives the identical won subset
            won = [
                name for name in candidates
                if stable_unit("dga-registrar", self.seed, name)
                < cal.DGA_REGISTER_RATE
            ]
            if not won:
                # a day with zero names would orphan the whole botnet;
                # operators fall back to hand-registering the first
                won = candidates[:1]
            for domain in won[: cal.DGA_REGISTERED_PER_DAY]:
                since = max(day_start, active[1], deployment.online_from)
                until = min(day_end, active[2])
                if until <= since:
                    continue
                self.network.zones.register(domain, active[0], since=since)
                self.network.zones.register(domain, None, since=until)
                deployment.dga_domains.append((day, domain))

    # -- campaign planning ----------------------------------------------------------------

    def _arsenal(self) -> tuple[list[int], str, str]:
        """(exploit ids, loader name, downloader) for an armed sample."""
        weighted = [(KEY_TO_INDEX[key], weight)
                    for key, weight in POPULARITY_WEIGHTS.items()]
        count = self._weighted_choice(((1, 0.2), (2, 0.25), (3, 0.25),
                                       (4, 0.2), (5, 0.1)))
        ids: list[int] = []
        if self._pending_vulns:
            ids.append(self._pending_vulns.pop())
        while len(ids) < count:
            pick = self._weighted_choice(weighted)
            if pick not in ids:
                ids.append(pick)
        loader = self._weighted_choice(list(LOADER_WEIGHTS.items()))
        return sorted(ids), loader, ""

    def _build_campaign_samples(
        self, campaign: Campaign, size: int, armed_bias: float
    ) -> None:
        deployment = campaign.c2
        family = get_family(campaign.family)
        for index in range(size):
            if self._sample_budget <= 0:
                return
            armed = (not family.is_p2p) and self.rng.random() < armed_bias
            exploit_ids: list[int] = []
            loader = ""
            downloader = ""
            if armed:
                exploit_ids, loader, _ = self._arsenal()
                if deployment is not None:
                    downloader = self._pick_downloader(deployment)
            dga = deployment is not None and deployment.dga
            config = BotConfig(
                family=campaign.family,
                # DGA binaries carry the schedule seed instead of a host
                c2_host="" if dga else (deployment.endpoint if deployment else ""),
                c2_port=deployment.port if deployment else 0,
                scan_ports=[23, 2323] if not family.is_p2p else [],
                exploit_ids=exploit_ids,
                loader_name=loader,
                downloader=downloader,
                attacks=list(family.attack_methods),
                variant=campaign.variant,
                p2p_bootstrap=(
                    self.rng.sample(self._bootstrap_peers, 2)
                    if family.is_p2p else []
                ),
                dga_seed=deployment.dga_seed if dga else 0,
            )
            arch = ("arm" if self.rng.random() < self.scale.arm_fraction
                    else "mips")
            sample = build_sample(config, self._next_binary_rng(),
                                  variant=campaign.variant, arch=arch)
            if deployment is not None:
                if campaign.spread_days is None:
                    if deployment.is_attack_c2:
                        campaign.spread_days = (
                            deployment.lifetime_days * self.rng.uniform(0.6, 0.9)
                        )
                    else:
                        campaign.spread_days = self._spread_days()
                if index == 0:
                    offset_days = self.rng.uniform(0.0, 0.2)
                elif deployment.is_attack_c2:
                    # attack campaigns keep referring to the C2 late into
                    # its (long) life — their observed lifespan ~10 days
                    offset_days = campaign.spread_days * self.rng.uniform(0.6, 1.0)
                else:
                    offset_days = self.rng.uniform(0.0, campaign.spread_days)
                submit = deployment.online_from + offset_days * SECONDS_PER_DAY
            else:
                week = self._weighted_choice(self._week_volume_weights())
                submit = (cal.week_start(week)
                          + self.rng.uniform(0, 7) * SECONDS_PER_DAY)
            planned = PlannedSample(
                sample=sample, submit_time=submit, c2=deployment,
                submitted_to_vt=True,
                submitted_to_bazaar=self.rng.random() < 0.5,
            )
            campaign.samples.append(planned)
            self.vt.submit_sample(sample, submit, self._vt_rng)
            if planned.submitted_to_bazaar:
                self.bazaar.submit_sample(sample, submit, self._bazaar_rng)
            self._sample_budget -= 1

    def _pick_downloader(self, deployment: C2Deployment) -> str:
        """Downloader address for an armed sample.

        Authors reuse a small set of loader-distribution servers: most are
        C2 hosts (section 3.1 finds 47 distinct downloaders, only 12 not
        C2s), so armed campaigns share a bounded pool of C2-colocated
        downloaders plus the dedicated ones.
        """
        pool_cap = cal.DOWNLOADER_TOTAL - cal.DOWNLOADER_NOT_C2
        pick = self.rng.random()
        if pick < 0.2:
            address = self.rng.choice(self._dedicated_downloaders)
        elif self._downloader_pool and (pick < 0.7
                                        or len(self._downloader_pool) >= pool_cap):
            address = self.rng.choice(self._downloader_pool)
        else:
            address = deployment.address
            if address not in self._downloader_pool:
                self._downloader_pool.append(address)
        return f"{int_to_ip(address)}:{cal.DOWNLOADER_PORT}"

    def _plan_regular_campaigns(self) -> None:
        while self._sample_budget > 0:
            family_name = self._weighted_choice(list(cal.FAMILY_MIX))
            family = get_family(family_name)
            variant = self.rng.choice(family.variants)
            size = self._weighted_choice(list(cal.CAMPAIGN_SIZES))
            week = self._weighted_choice(self._week_volume_weights())
            deployment = None
            if not family.is_p2p:
                deployment = self._deploy_c2(family_name, variant, week)
                if (self.scale.dga and family.dga is not None
                        and self.rng.random() < cal.DGA_CAMPAIGN_FRACTION):
                    self._convert_to_dga(deployment)
            campaign = Campaign(family=family_name, variant=variant,
                                c2=deployment)
            self._build_campaign_samples(
                campaign, size, armed_bias=cal.EXPLOIT_ARMED_FRACTION
            )
            self.truth.campaigns.append(campaign)

    def _submit_chaff(self) -> None:
        """Non-MIPS noise in the feeds (the collector must filter it).

        Real feeds deliver binaries for every architecture plus corrupt
        uploads; MalNet keeps only MIPS 32B ELF files (section 2.2).  One
        chaff artifact per ~8 real samples keeps the filter honest.
        """
        from ..binary.builder import build_chaff

        count = max(4, self.scale.total_samples // 8)
        kinds = ("arm", "x86", "junk", "truncated")
        for index in range(count):
            data = build_chaff(self.rng, kinds[index % len(kinds)])
            week = self._weighted_choice(self._week_volume_weights())
            when = cal.week_start(week) + self.rng.uniform(0, 7) * SECONDS_PER_DAY
            from ..binary.builder import MalwareSample

            # wrapped as a feed upload; the family field is a placeholder —
            # the collector's MIPS filter drops chaff before any labeling
            fake = MalwareSample(data=data, config=BotConfig(family="mirai"),
                                 family="mirai", variant="chaff")
            self.vt.submit_sample(fake, when, self._vt_rng)
            self.truth.chaff_hashes.add(fake.sha256)

    # -- attack plan ----------------------------------------------------------------------

    def _attack_asns_by_country(self) -> dict[str, list[int]]:
        by_country: dict[str, list[int]] = {}
        for record in self.asdb.records.values():
            by_country.setdefault(record.country, []).append(record.asn)
        return by_country

    def _victim_pool(self) -> list[tuple[int, int, str, str]]:
        """(address, asn, kind, country) victims matching section 5.3."""
        victims = []
        candidates = list(self.asdb.records.values())
        gaming = [r for r in candidates if r.specialization == "gaming"]
        pool_size = 30
        # deterministic kind mix (section 5.3): 45% ISP, 36% hosting,
        # 19% business; ~18% of the pool gaming-specialized
        quota = {
            "isp": round(0.45 * pool_size),
            "hosting": round(0.36 * pool_size),
            "business": pool_size - round(0.45 * pool_size)
                        - round(0.36 * pool_size),
        }
        gaming_quota = round(0.18 * pool_size)
        for kind, want in quota.items():
            for _ in range(want):
                pool = [r for r in candidates if r.kind == kind]
                use_gaming = (gaming_quota > 0
                              and any(r.kind == kind for r in gaming))
                if use_gaming and self.rng.random() < 0.5:
                    record = self.rng.choice([r for r in gaming
                                              if r.kind == kind])
                    gaming_quota -= 1
                else:
                    record = self.rng.choice(pool)
                address = self.asdb.allocate_address(
                    record.asn, self.allocator, self.rng)
                victims.append(
                    (address, record.asn, record.kind, record.country))
        self.rng.shuffle(victims)
        return victims

    def _attack_port(self, method: str) -> int:
        if method == "dns":
            return 53
        if method == "nfo":
            return 238
        if method == "blacknurse":
            return 0
        # fixed-port methods (dns/nfo/blacknurse) cover ~1/4 of the plan;
        # scale the web-port shares up so the *overall* attack mix hits
        # the paper's 21% port-80 / 7% port-443
        eligible_fraction = 32 / 42
        pick = self.rng.random() * eligible_fraction
        if pick < cal.PORT80_SHARE:
            return 80
        if pick < cal.PORT80_SHARE + cal.PORT443_SHARE:
            return 443
        return self.rng.choice((4567, 27015, 61613, 9307, 37777, 8888))

    def _plan_attack_campaigns(self) -> None:
        by_country = self._attack_asns_by_country()
        plan = [
            (family, method)
            for family, method, count in cal.ATTACK_METHOD_PLAN
            for _ in range(count)
        ]
        self.rng.shuffle(plan)
        # stand up the attack C2s: longer-lived, country mix US/NL/CZ-heavy
        deployments: dict[str, list[C2Deployment]] = {f: [] for f in
                                                      ATTACK_FAMILIES}
        campaigns: dict[int, Campaign] = {}
        count_per_family = {
            "mirai": 7, "gafgyt": 3, "daddyl33t": 7,
        }
        week_pool = list(range(3, cal.ACTIVE_WEEKS))
        country_cursor = 0
        for family, how_many in count_per_family.items():
            fam = get_family(family)
            for index in range(how_many):
                # deterministic round-robin over the country mix: the 17
                # attack C2s land 7/9 in US/NL/CZ, so ~80% of attacks
                # issue from there regardless of seed (section 5)
                country = cal.ATTACK_C2_COUNTRIES[
                    country_cursor % len(cal.ATTACK_C2_COUNTRIES)]
                country_cursor += 1
                asns = by_country.get(country) or list(self.asdb.records)
                variant = fam.variants[index % len(fam.variants)]
                week = self.rng.choice(week_pool)
                deployment = self._deploy_c2(
                    family, variant, week,
                    lifetime_days=self.rng.uniform(*cal.ATTACK_C2_LIFETIME_DAYS),
                    asn=self.rng.choice(asns),
                    is_attack=True,
                )
                deployments[family].append(deployment)
                campaign = Campaign(family=family, variant=variant,
                                    c2=deployment)
                self._build_campaign_samples(campaign, size=2, armed_bias=0.3)
                self.truth.campaigns.append(campaign)
                campaigns[deployment.address] = campaign

        victims = self._victim_pool()
        method_counts: dict[str, int] = {}
        for _family, method, count in cal.ATTACK_METHOD_PLAN:
            method_counts[method] = method_counts.get(method, 0) + count
        #: (c2 address, analysis day) -> last (victim, method) — used to
        #: re-attack the same target with a second type in one session
        last_session: dict[tuple[int, float], tuple] = {}
        carrier_cache: dict[int, object] = {}
        for family, method in plan:
            options = deployments[family]
            deployment = self.rng.choice(options)
            campaign = campaigns[deployment.address]
            if not campaign.samples:
                continue
            # schedule the attack during the listening window of a sample
            # that will actually activate under emulation — otherwise the
            # command fires with nobody connected and is unobservable by
            # construction (the real study, too, only saw attacks that
            # happened while a bot it ran was connected)
            from ..sandbox.qemu import MipsEmulator

            carrier = carrier_cache.get(deployment.address)
            if carrier is None:
                checker = MipsEmulator()
                activating = [s for s in campaign.samples
                              if checker.activates(s.sample.sha256)]
                carrier = self.rng.choice(activating or campaign.samples)
                carrier_cache[deployment.address] = carrier
            # anchor to the first feed appearance: the pipeline analyzes a
            # sample the day it surfaces on EITHER feed
            published_times = []
            vt_entry = self.vt.lookup_hash(carrier.sample.sha256)
            if vt_entry is not None:
                published_times.append(vt_entry.published)
            mb_entry = self.bazaar.lookup_hash(carrier.sample.sha256)
            if mb_entry is not None:
                published_times.append(mb_entry.published)
            published = min(published_times) if published_times else carrier.submit_time
            day_start = (int((published - STUDY_EPOCH) // SECONDS_PER_DAY)
                         * SECONDS_PER_DAY + STUDY_EPOCH)
            # rare attack types (one or two planned instances) fire early
            # in the listening window so a single carrier suffices to
            # observe them — losing the only NFO/VSE/STD to bad timing
            # would wipe an entire Figure 11 category
            if method_counts.get(method, 0) <= 2:
                latest = min(600.0, self.scale.observe_duration / 3)
            else:
                latest = max(60.0, self.scale.observe_duration - 120.0)
            when = (day_start + ANALYSIS_HOUR_OFFSET
                    + self.rng.uniform(30.0, latest))
            # "one target hit by multiple attacks": with some probability
            # re-attack this session's previous target with a new type
            session_key = (deployment.address, day_start)
            previous = last_session.get(session_key)
            if (previous is not None and previous[1] != method
                    and self.rng.random() < 2 * cal.DOUBLE_ATTACK_TARGET_SHARE):
                address, asn, kind, country = previous[0]
            else:
                address, asn, kind, country = self.rng.choice(victims)
            last_session[session_key] = ((address, asn, kind, country), method)
            # attack operators keep the server up through the attack: if a
            # late carrier pushes the command past the planned lifetime,
            # stretch the deployment (attack C2s live longest, section 5)
            needed_until = when + self.scale.observe_duration + 3600.0
            needed_from = when - self.scale.observe_duration - 3600.0
            if (needed_until > deployment.online_until
                    or needed_from < deployment.online_from):
                deployment.online_from = min(deployment.online_from, needed_from)
                deployment.online_until = max(deployment.online_until, needed_until)
                host = self.network.host(deployment.address)
                host.set_lifetime(deployment.online_from, deployment.online_until)
            real_method = "udp" if method == "dns" else method
            command = AttackCommand(
                method=real_method, target_ip=address,
                target_port=self._attack_port(method),
                duration=self.rng.choice((60, 120, 300)),
            )
            deployment.server.schedule_attack(when, command)
            self.truth.attacks.append(
                PlannedAttack(c2=deployment, command=command, when=when,
                              target_asn=asn, target_kind=kind,
                              target_country=country)
            )

    # -- threat intel registration ------------------------------------------------------

    def _register_intel(self) -> None:
        first_seen: dict[str, float] = {}
        for planned in self.truth.all_samples:
            if planned.c2 is None:
                continue
            endpoint = planned.c2.endpoint
            current = first_seen.get(endpoint)
            if current is None or planned.submit_time < current:
                first_seen[endpoint] = planned.submit_time
        for deployment in self.truth.deployments:
            when = first_seen.get(deployment.endpoint, deployment.online_from)
            self.vt.register_ioc(IocIntel(
                ioc=deployment.endpoint,
                first_public=when,
                obscurity=deployment.obscurity,
                publicity_delay_days=deployment.publicity_delay_days,
            ))
        for address in self.truth.downloader_only_addresses:
            self.vt.register_ioc(IocIntel(
                ioc=int_to_ip(address),
                first_public=STUDY_EPOCH,
                obscurity=self.rng.uniform(0.2, 1.0),
                publicity_delay_days=0.0,
            ))

    # -- D-PC2 probing world -----------------------------------------------------------

    def _plan_probing_world(self) -> float:
        """Six probe-able /24s with 7 elusive C2s and benign decoys;
        returns the start of the probing window."""
        probe_week = min(10, cal.ACTIVE_WEEKS)
        probe_start = cal.week_start(probe_week)
        probe_end = probe_start + (self.scale.probe_days + 2) * SECONDS_PER_DAY
        subnets: list[Subnet] = []
        top_asns = [record.asn for record in TOP_C2_ASES[:6]]
        for asn in top_asns:
            prefix = self.asdb.prefixes_for(asn)[0]
            # carve a /24 out of the AS's /16
            slash24 = Subnet(prefix.network | (self.rng.randrange(256) << 8), 24)
            subnets.append(slash24)
        self.truth.probe_subnets = subnets
        families = ["gafgyt", "gafgyt", "gafgyt", "gafgyt",
                    "mirai", "mirai", "mirai"][: cal.PROBED_C2_COUNT]
        for index, family in enumerate(families):
            subnet = subnets[index % len(subnets)]
            address = self.allocator.allocate(subnet)
            port = self.rng.choice(cal.PROBE_PORTS)
            host = self.network.add_host(address, name=f"probed-c2-{index}")
            host.set_lifetime(probe_start - SECONDS_PER_DAY, probe_end)
            # the host is offline from probe_end on, so no probe reads
            # the chain past it
            model = ResponsivenessModel(
                seed=self.seed * 1000 + index,
                horizon=probe_end,
                p_open=cal.PROBED_P_OPEN,
                p_stay_open=cal.PROBED_P_STAY,
                origin=probe_start,
            )
            self.rng.getrandbits(32)  # see _deploy_c2
            server = C2Server(get_family(family))
            host.bind(Listener(port=port, protocol=Protocol.TCP,
                               service=server, accepts=model.is_open))
            deployment = C2Deployment(
                address=address, port=port, family=family,
                variant=get_family(family).variants[0],
                asn=top_asns[index % len(top_asns)],
                online_from=probe_start - SECONDS_PER_DAY,
                online_until=probe_end, server=server,
                obscurity=self.rng.uniform(0.3, 1.2),
                publicity_delay_days=self.rng.uniform(0.0, 10.0),
                is_probed=True,
            )
            self.truth.probed_deployments.append(deployment)
            self.truth.deployments.append(deployment)
            self.vt.register_ioc(IocIntel(
                ioc=deployment.endpoint, first_public=probe_start,
                obscurity=deployment.obscurity,
                publicity_delay_days=deployment.publicity_delay_days,
            ))
        # benign decoys: live web servers with well-known banners, which the
        # probing methodology must filter out (section 2.6)
        for subnet in subnets:
            for _ in range(2):
                address = self.allocator.allocate(subnet)
                host = self.network.add_host(address, name="decoy-web")
                service = DownloaderHttp()
                host.bind(Listener(
                    port=self.rng.choice(cal.PROBE_PORTS),
                    protocol=Protocol.TCP, service=service,
                    banner=b"HTTP/1.0 200 OK\r\nServer: Apache/2.4.41\r\n\r\n",
                ))
        return probe_start


def generate_world(seed: int = cal.DEFAULT_SEED,
                   scale: cal.StudyScale | None = None) -> World:
    """Convenience one-call world construction."""
    return WorldGenerator(seed, scale).generate()
