"""Applications built on the traffic control service (paper Secs. 4.3-4.4).

* :mod:`antispoof` — worldwide anti-spoofing / DDoS reflector defense
  (the headline application of Sec. 4.3),
* :mod:`firewall` — distributed firewall-like filtering, incl. the
  protocol-misuse (RST/ICMP teardown) rules,
* :mod:`spie_traceback` — worldwide packet traceback service on the TCS,
* :mod:`triggers` — automated reaction to network anomalies,
* :mod:`debugging` — network debugging and traffic statistics.
"""

from repro.core.apps.antispoof import AntiSpoofApp, antispoof_fluid_filter
from repro.core.apps.firewall import DistributedFirewallApp, FirewallRule
from repro.core.apps.spie_traceback import SpieTracebackApp
from repro.core.apps.triggers import AutoReactionApp
from repro.core.apps.debugging import NetworkDebuggingApp, LinkEstimate
from repro.core.apps.statistics import DistributedStatisticsApp, TrafficMatrixCollector, TrafficReport
from repro.core.apps.defender import DefenseAction, ReactiveDefender

__all__ = [
    "AntiSpoofApp",
    "antispoof_fluid_filter",
    "DistributedFirewallApp",
    "FirewallRule",
    "SpieTracebackApp",
    "AutoReactionApp",
    "NetworkDebuggingApp",
    "LinkEstimate",
    "DistributedStatisticsApp",
    "TrafficMatrixCollector",
    "TrafficReport",
    "ReactiveDefender",
    "DefenseAction",
]
