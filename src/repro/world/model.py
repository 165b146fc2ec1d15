"""Ground-truth dataclasses for the generated world.

These records are what *actually happened* in the closed world.  The
MalNet pipeline never reads them — it measures through the sandbox and
the feeds — but benchmarks compare pipeline output against them, and the
generator uses them for bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.builder import MalwareSample
from ..botnet.c2server import C2Server
from ..botnet.protocols.base import AttackCommand


@dataclass
class C2Deployment:
    """One C2 server stood up in the virtual Internet."""

    address: int
    port: int
    family: str
    variant: str
    asn: int
    domain: str | None = None          # set for DNS-named C2s
    online_from: float = 0.0
    online_until: float = 0.0
    server: C2Server | None = field(default=None, repr=False)
    obscurity: float = 0.5
    publicity_delay_days: float = 0.0
    is_attack_c2: bool = False
    is_probed: bool = False
    downloader_colocated: bool = True
    # -- DGA scenario (StudyScale.dga) -----------------------------------
    #: rotates generated domains instead of pinning one endpoint
    dga: bool = False
    #: 32-bit schedule seed embedded in this campaign's bot configs
    dga_seed: int = 0
    #: successive server addresses as (address, online_from, online_until);
    #: each replaces the previous one after its takedown
    generations: list[tuple[int, float, float]] = field(default_factory=list)
    #: registrar-won names actually registered, as (day, domain)
    dga_domains: list[tuple[int, str]] = field(default_factory=list)

    @property
    def endpoint(self) -> str:
        """The IoC string binaries embed (domain when one exists)."""
        from ..netsim.addresses import int_to_ip

        return self.domain or int_to_ip(self.address)

    @property
    def lifetime_days(self) -> float:
        return (self.online_until - self.online_from) / 86400.0


@dataclass
class PlannedSample:
    """One generated malware binary and its fate in the feeds."""

    sample: MalwareSample
    submit_time: float
    c2: C2Deployment | None           # None for P2P samples
    submitted_to_vt: bool = True
    submitted_to_bazaar: bool = False


@dataclass
class PlannedAttack:
    """One scheduled DDoS command (ground truth)."""

    c2: C2Deployment
    command: AttackCommand
    when: float
    target_asn: int
    target_kind: str                  # "isp" | "hosting" | "business"
    target_country: str


@dataclass
class Campaign:
    """A malware campaign: one C2 (or P2P swarm) plus its binaries."""

    family: str
    variant: str
    c2: C2Deployment | None
    samples: list[PlannedSample] = field(default_factory=list)
    #: days over which this campaign's binaries surface in the feeds
    spread_days: float | None = None


@dataclass
class GroundTruth:
    """Everything the generator created, for benchmark comparison."""

    campaigns: list[Campaign] = field(default_factory=list)
    deployments: list[C2Deployment] = field(default_factory=list)
    attacks: list[PlannedAttack] = field(default_factory=list)
    probed_deployments: list[C2Deployment] = field(default_factory=list)
    downloader_only_addresses: list[int] = field(default_factory=list)
    probe_subnets: list = field(default_factory=list)
    #: sha256 of non-MIPS feed noise the collector must drop
    chaff_hashes: set[str] = field(default_factory=set)

    @property
    def all_samples(self) -> list[PlannedSample]:
        return [s for c in self.campaigns for s in c.samples]

    def deployment_for(self, endpoint: str) -> C2Deployment | None:
        for deployment in self.deployments:
            if deployment.endpoint == endpoint:
                return deployment
        return None
