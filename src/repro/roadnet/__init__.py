"""Road-network substrate: graphs, shortest paths, generators and datasets.

This subpackage implements the directed weighted road-network model from
Section II of the paper, plus everything the evaluation needs around it:

* :mod:`repro.roadnet.graph` — the :class:`RoadNetwork` container.
* :mod:`repro.roadnet.location` — on-edge locations ``<edge, offset>``.
* :mod:`repro.roadnet.dijkstra` — single/multi-source, bounded and
  point-to-point shortest paths.
* :mod:`repro.roadnet.generators` — synthetic road-network generators used
  in place of the (unavailable) DIMACS downloads.
* :mod:`repro.roadnet.dimacs` — DIMACS ``.gr``/``.co`` readers and writers
  so the real datasets drop in unchanged.
* :mod:`repro.roadnet.datasets` — the six named evaluation networks at a
  reduced scale (see DESIGN.md section 2).

Search is Dijkstra-family only: G-Grid's kNN (GPU SDist over the
candidate cells, then bounded-Dijkstra refinement) never runs a
goal-directed or precomputed point-to-point search.
"""

from repro.roadnet.graph import Edge, RoadNetwork, Vertex
from repro.roadnet.location import NetworkLocation
from repro.roadnet.dijkstra import (
    bounded_dijkstra,
    dijkstra,
    multi_source_dijkstra,
    shortest_path_distance,
)
from repro.roadnet.generators import grid_road_network, random_road_network
from repro.roadnet.datasets import DATASET_SPECS, load_dataset

__all__ = [
    "Edge",
    "Vertex",
    "RoadNetwork",
    "NetworkLocation",
    "dijkstra",
    "multi_source_dijkstra",
    "bounded_dijkstra",
    "shortest_path_distance",
    "grid_road_network",
    "random_road_network",
    "DATASET_SPECS",
    "load_dataset",
]
