"""Binary-centric network profiles — the paper's central artifact.

A :class:`BinaryNetworkProfile` is "the desired output" of the problem
statement (section 1): for one binary, its C2 communication, its
proliferation techniques, and its attacks, all attributed to that binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..botnet.protocols.base import AttackCommand


@dataclass
class ExploitObservation:
    """One exploit the binary used, recovered by the handshaker."""

    vuln_key: str
    loader: str | None
    downloader: str | None
    port: int
    payload: bytes = b""


@dataclass
class AttackObservation:
    """One DDoS command this binary received (and acted on)."""

    command: AttackCommand
    family_profile: str       # which protocol profile decoded it
    when: float
    verified: bool            # manual-verification checks passed
    via_heuristic: bool = False


@dataclass
class BinaryNetworkProfile:
    """Full network-level profile of one malware binary."""

    sha256: str
    published: float
    day: int                       # study day of collection
    source: str                    # "virustotal" | "malwarebazaar" | "both"
    family_label: str | None = None
    label_source: str = ""         # "yara" | "avclass" | ""
    activated: bool = False
    is_p2p: bool = False
    # -- C2 --------------------------------------------------------------
    c2_endpoint: str | None = None
    c2_port: int | None = None
    c2_is_dns: bool = False
    c2_live_on_day0: bool = False
    vt_flagged_day0: bool = False
    #: DGA schedule seed recovered from the binary (0 = static endpoint).
    #: compare=False: only set in opt-in --dga runs, and the plain-run
    #: golden digests must stay byte-identical.
    dga_seed: int = field(default=0, compare=False)
    # -- proliferation -----------------------------------------------------
    exploits: list[ExploitObservation] = field(default_factory=list)
    scan_ports: list[int] = field(default_factory=list)
    # -- attacks -------------------------------------------------------------
    attacks: list[AttackObservation] = field(default_factory=list)
    # -- degradation ---------------------------------------------------------
    #: analysis raised; this is a stub profile recording the failure
    quarantined: bool = False
    quarantine_reason: str = ""

    @property
    def has_c2(self) -> bool:
        return self.c2_endpoint is not None

    def summary_line(self) -> str:
        """One-line triage summary used by the report renderer."""
        if self.quarantined:
            return (f"{self.sha256[:12]} {self.family_label or '?':<10} "
                    f"QUARANTINED ({self.quarantine_reason})")
        c2 = self.c2_endpoint or ("P2P" if self.is_p2p else "-")
        return (
            f"{self.sha256[:12]} {self.family_label or '?':<10} "
            f"c2={c2} live={int(self.c2_live_on_day0)} "
            f"exploits={len(self.exploits)} attacks={len(self.attacks)}"
        )
