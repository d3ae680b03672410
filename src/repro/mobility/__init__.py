"""Moving-object substrate.

The paper generates object traces with MOTO (Dittrich et al., SSTD 2009),
an open-source moving-object trace generator that is not redistributable
here.  :mod:`repro.mobility.moto` implements the equivalent
network-constrained random-waypoint generator: objects travel along edges
at individual speeds, pick a random outgoing edge at each vertex, and
report ``<o, e, d, t>`` messages at a configurable frequency ``f`` — and
always at least once per ``t_delta``, which is the system contract the
index relies on (Section II).

:mod:`repro.mobility.workload` assembles full experiment workloads:
initial placements, interleaved update streams and query sets.
"""

from repro.mobility.moto import MotoGenerator
from repro.mobility.objects import MovingObject
from repro.mobility.patterns import RushHourGenerator, hotspot_placements
from repro.mobility.workload import Workload, make_workload, random_locations

__all__ = [
    "MotoGenerator",
    "MovingObject",
    "Workload",
    "make_workload",
    "random_locations",
    "RushHourGenerator",
    "hotspot_placements",
]
