"""Discrete-event cluster simulator: machines, cores, network.

This substrate replaces the paper's physical 15-machine / 1 GigE testbed
(see DESIGN.md, substitutions).  All protocol logic executes for real; only
the clock is virtual.
"""

from .cost import CostModel, log2_ceil
from .machine import Machine, MachineStats
from .metrics import ClusterReport, MachineReport, cluster_report, utilization_curve
from .network import DeadMachineError, Message, Network
from .simulation import EventHandle, SimulationEngine, SimulationError
from .topology import Actor, SimulatedCluster

__all__ = [
    "Actor",
    "ClusterReport",
    "CostModel",
    "DeadMachineError",
    "EventHandle",
    "Machine",
    "MachineReport",
    "MachineStats",
    "Message",
    "Network",
    "SimulatedCluster",
    "SimulationEngine",
    "SimulationError",
    "cluster_report",
    "utilization_curve",
    "log2_ceil",
]
