"""MalNet core: the paper's pipeline, datasets, and analyses."""

from . import (
    c2_analysis,
    ddos_analysis,
    exploit_analysis,
    report,
    ti_analysis,
)
from .datasets import (
    C2Record,
    Datasets,
    DdosRecord,
    ExploitRecord,
    ProbeObservation,
)
from .firewall import FirewallRule, RuleBundle, compile_rules, coverage_report
from .monitor import Alert, AlertKind
from .pipeline import MalNet, PipelineConfig
from .probing import ProbingCampaign
from .profiles import (
    AttackObservation,
    BinaryNetworkProfile,
    ExploitObservation,
)
from .study import run_probing, run_study, select_probe_binaries

__all__ = [
    "Alert",
    "AlertKind",
    "AttackObservation",
    "BinaryNetworkProfile",
    "C2Record",
    "FirewallRule",
    "RuleBundle",
    "Datasets",
    "DdosRecord",
    "ExploitObservation",
    "ExploitRecord",
    "MalNet",
    "PipelineConfig",
    "ProbeObservation",
    "ProbingCampaign",
    "c2_analysis",
    "ddos_analysis",
    "exploit_analysis",
    "report",
    "compile_rules",
    "coverage_report",
    "run_probing",
    "run_study",
    "select_probe_binaries",
    "ti_analysis",
]
