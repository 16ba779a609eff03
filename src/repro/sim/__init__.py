"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy.
Simulation *processes* are Python generators that yield :class:`Event`
objects (resource requests, other processes, conditions) or, to sleep,
a delay; the :class:`Environment` advances virtual time and resumes them.

This kernel is the substrate for all performance experiments in the
NeST reproduction: the 2002 testbed (GigE cluster, IBM disks, kernel
buffer cache, OS schedulers) is modelled on top of it in
:mod:`repro.models`, and the simulated NeST/JBOS servers in
:mod:`repro.simnest` run as processes within it.

Determinism: events scheduled for the same time break ties on
(priority, insertion sequence), so a run is a pure function of its
inputs and seed.
"""

from repro.sim.core import (
    Environment,
    Event,
    Process,
    Timeout,
    Interrupt,
    AllOf,
    AnyOf,
    SimulationError,
)
from repro.sim.resources import Resource, PriorityResource, Container, Store
from repro.sim.trace import KernelTrace

__all__ = [
    "KernelTrace",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
]
