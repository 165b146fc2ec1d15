"""Dynamic analysis sandbox: emulation, containment, handshaker, modes."""

from .handshaker import DEFAULT_FANOUT_THRESHOLD, Handshaker
from .inetsim import FAKE_NET_BASE, FakeConversation, FakeInternetAdapter
from .qemu import (
    ACTIVATION_RATE,
    ActivationError,
    EmulatedProcess,
    EmulationError,
    MipsEmulator,
)
from .sandbox import (
    CncHunterSandbox,
    LiveInternetAdapter,
    LiveReport,
    OfflineReport,
    ProbeResult,
    SANDBOX_IP,
)
from .snort import Alert, EgressPolicy, FilteredAdapter, PolicyMode, SnortIds

__all__ = [
    "ACTIVATION_RATE",
    "ActivationError",
    "Alert",
    "CncHunterSandbox",
    "DEFAULT_FANOUT_THRESHOLD",
    "EgressPolicy",
    "EmulatedProcess",
    "EmulationError",
    "FAKE_NET_BASE",
    "FakeConversation",
    "FakeInternetAdapter",
    "FilteredAdapter",
    "Handshaker",
    "LiveInternetAdapter",
    "LiveReport",
    "MipsEmulator",
    "OfflineReport",
    "PolicyMode",
    "ProbeResult",
    "SANDBOX_IP",
    "SnortIds",
]
