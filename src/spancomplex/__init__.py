"""Spanning simplicial complexes of uni-cyclic multigraphs.

Exact-arithmetic construction and cross-verification: spanning tree
enumeration (closed form and backtracking oracle), f-vectors and Euler
characteristics, facet ideals with their primary decomposition via
minimal vertex covers, and integer simplicial homology.  Boundary ranks
are taken over GF(2); they equal the rational ranks because a matroid
complex is shellable, so its integer homology is free and every boundary
map has unit invariant factors.
"""

from .analysis import AnalysisReport, Discrepancy, run_analyze, run_verify
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    DuplicateEdgeIdError,
    EmptyGraphError,
    GraphValidationError,
    LoopEdgeError,
    NotUnicyclicError,
    SchemaError,
    SpanComplexError,
    UnknownEndpointError,
)
from .fvector import (
    FVector,
    binomial,
    dimension,
    euler_characteristic,
    f_vector_closed_form,
)
from .homology import (
    BettiProfile,
    GradedFaces,
    betti_numbers,
    boundary_matrix,
    euler_from_betti,
    graded_faces,
)
from .ideal import (
    facet_ideal_generic,
    minimal_vertex_covers_closed_form,
    minimal_vertex_covers_generic,
)
from .multigraph import (
    Multigraph,
    ParallelClass,
    UnicyclicLayout,
    build_multigraph,
    load_graph_file,
    multigraph_from_json,
    parallel_classes,
    recognize_unicyclic,
)
from .spanning import (
    count_spanning_trees_layout,
    enumerate_spanning_trees_generic,
    enumerate_spanning_trees_layout,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BettiProfile",
    "BudgetExceededError",
    "DisconnectedGraphError",
    "Discrepancy",
    "DuplicateEdgeIdError",
    "EmptyGraphError",
    "FVector",
    "GradedFaces",
    "GraphValidationError",
    "LoopEdgeError",
    "Multigraph",
    "NotUnicyclicError",
    "ParallelClass",
    "SchemaError",
    "SpanComplexError",
    "UnicyclicLayout",
    "UnknownEndpointError",
    "betti_numbers",
    "binomial",
    "boundary_matrix",
    "build_multigraph",
    "count_spanning_trees_layout",
    "dimension",
    "euler_characteristic",
    "euler_from_betti",
    "enumerate_spanning_trees_generic",
    "enumerate_spanning_trees_layout",
    "f_vector_closed_form",
    "facet_ideal_generic",
    "graded_faces",
    "load_graph_file",
    "minimal_vertex_covers_closed_form",
    "minimal_vertex_covers_generic",
    "multigraph_from_json",
    "parallel_classes",
    "recognize_unicyclic",
    "run_analyze",
    "run_verify",
]
