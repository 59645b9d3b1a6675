"""Exact top-k closeness centrality for large directed and undirected graphs,
via breadth-first searches that stop as soon as an upper bound on a vertex's
closeness falls to the running k-th best value."""

from .engine import (
    RunStats,
    TopKResult,
    bfs_cut,
    closeness_upper_bound,
    farness_lower_bound,
    interval_closeness_bound,
    top_k,
)
from .graph import Graph, bfs, connected_components, from_edges, load_edge_list, write_edge_list
from .oracle import exact_closeness_all, top_k_textbook
from .scc import compute_alpha_omega, compute_scc_dag, reachability_for

__all__ = [
    "Graph",
    "RunStats",
    "TopKResult",
    "bfs",
    "bfs_cut",
    "closeness_upper_bound",
    "compute_alpha_omega",
    "compute_scc_dag",
    "connected_components",
    "exact_closeness_all",
    "farness_lower_bound",
    "from_edges",
    "interval_closeness_bound",
    "load_edge_list",
    "reachability_for",
    "top_k",
    "top_k_textbook",
    "write_edge_list",
]
