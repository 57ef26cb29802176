"""Multi-robot coverage path planning on weighted terrain grids."""

from .baselines import (ComparisonReport, format_comparison_table, mstc_bo,
                        mstc_nb, reduction_ratio)
from .graphs import (CoveringGraph, PlannerConfig, SpanningGraph,
                     build_covering_graph, build_spanning_graph, edge_weight)
from .partition import (PartitionSet, PlanOutcome, RobotPlan, balanced_cut,
                        capacity_partition, max_weight, naive_mstc, naive_partition)
from .pipeline import PlanResult, ScenePlanner, plan_document, write_json_atomic
from .render import render_plan_svg, save_plan_svg
from .scene import Scene, SceneError, load_scene, save_scene
from .scenegen import generate_scene
from .stc import (CoverageLoop, SpanningTree, minimum_spanning_tree,
                  spiral_stc_loop)
from .terrain import (TraversabilityMap, build_traversability, merge_masks,
                      remove_isolated, steepness_filter)

__version__ = "0.1.0"
