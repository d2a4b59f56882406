"""NeuroSketch — the paper's core contribution.

The framework (Section 4, Fig. 4): partition the *query space* with a
kd-tree built on training queries (Alg. 2), merge the partitions that are
easy to approximate as ranked by the AQC complexity proxy (Alg. 3 /
Section 3.1.4), train one small MLP per surviving partition (Alg. 4), and
answer a query by routing it down the kd-tree and running one forward pass
(Alg. 5).
"""

from repro.core.kdtree import KDNode, QueryKDTree
from repro.core.compiled import CompiledSketch, FlatTree
from repro.core.complexity import average_query_change, leaf_aqcs, normalized_aqc_std
from repro.core.merging import merge_leaves
from repro.core.neurosketch import NeuroSketch

__all__ = [
    "KDNode",
    "QueryKDTree",
    "CompiledSketch",
    "FlatTree",
    "average_query_change",
    "leaf_aqcs",
    "normalized_aqc_std",
    "merge_leaves",
    "NeuroSketch",
]
