"""Generalized random-graph substrate.

The analytical model treats one execution of the gossip algorithm as the
construction of a generalized random graph (an arc ``x → y`` means "x gossips
the message to y").  This subpackage provides the graph-level machinery the
simulation and the empirical validation of the percolation predictions rely
on:

* :mod:`repro.graphs.degree_sequence` — sampling degree (fanout) sequences
  and computing their empirical moments,
* :mod:`repro.graphs.configuration_model` — building random (di)graphs with a
  prescribed degree sequence,
* :mod:`repro.graphs.components` — union-find, connected components, and
  source-reachability (the "who receives the message" question),
* :mod:`repro.graphs.gossip_graph` — the gossip-induced digraph of one
  execution with fail-stop failures applied,
* :mod:`repro.graphs.ensemble` — the batched graph-percolation ensemble
  engine (replicas of ``Gossip(n, P, q)`` graphs realised and measured as
  one array program), and
* :mod:`repro.graphs.metrics` — empirical giant-component / percolation
  statistics used to validate the analytical model.
"""

from repro.graphs.degree_sequence import (
    sample_degree_sequence,
    empirical_moments,
    is_graphical,
)
from repro.graphs.components import (
    UnionFind,
    component_labels,
    connected_components,
    largest_component_size,
    reachable_from,
)
from repro.graphs.ensemble import (
    GossipGraphEnsemble,
    GraphEnsembleResult,
    PercolationEnsembleResult,
    percolation_ensemble,
)
from repro.graphs.configuration_model import (
    configuration_model_edges,
    directed_configuration_edges,
)
from repro.graphs.gossip_graph import GossipGraph, build_gossip_graph
from repro.graphs.metrics import (
    degree_statistics,
    component_size_distribution,
    empirical_giant_component,
)

__all__ = [
    "sample_degree_sequence",
    "empirical_moments",
    "is_graphical",
    "UnionFind",
    "component_labels",
    "connected_components",
    "largest_component_size",
    "reachable_from",
    "GossipGraphEnsemble",
    "GraphEnsembleResult",
    "PercolationEnsembleResult",
    "percolation_ensemble",
    "configuration_model_edges",
    "directed_configuration_edges",
    "GossipGraph",
    "build_gossip_graph",
    "degree_statistics",
    "component_size_distribution",
    "empirical_giant_component",
]
