"""Multiplex heterogeneous graph substrate."""

from .graph import RelationGraph, canonical_edges
from .masking import (
    AttributeMask,
    EdgeMask,
    SubgraphMask,
    attribute_mask,
    attribute_swap,
    edge_mask,
    subgraph_mask,
)
from .multiplex import MultiplexGraph, check_attributes
from .sampling import (
    edges_touching,
    edges_within,
    random_walk_with_restart,
    sample_edges,
    sample_nodes,
    sample_rwr_subgraphs,
)
from .generators import (
    behavior_multiplex,
    random_multiplex,
    review_multiplex,
    social_multiplex,
)
from .io import (
    from_edge_dict,
    graph_fingerprint,
    load_multiplex,
    read_edge_list,
    save_multiplex,
    write_edge_list,
)

__all__ = [
    "AttributeMask",
    "EdgeMask",
    "MultiplexGraph",
    "RelationGraph",
    "SubgraphMask",
    "attribute_mask",
    "attribute_swap",
    "behavior_multiplex",
    "canonical_edges",
    "check_attributes",
    "edge_mask",
    "edges_touching",
    "edges_within",
    "from_edge_dict",
    "graph_fingerprint",
    "load_multiplex",
    "random_multiplex",
    "random_walk_with_restart",
    "read_edge_list",
    "review_multiplex",
    "sample_edges",
    "sample_nodes",
    "sample_rwr_subgraphs",
    "save_multiplex",
    "social_multiplex",
    "subgraph_mask",
    "write_edge_list",
]
