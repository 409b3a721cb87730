"""Online bilevel optimization under delayed feedback.

A laboratory for predict-then-optimize training loops whose outcome feedback
arrives late: a transport-corrected online optimizer, delayed baselines,
four simulated environments, a delay-queue simulator, and a statistics
harness that writes reproducible CSV experiment tables.
"""

from delayopt.core import OutcomeRecord
from delayopt.solvers import (
    conjugate_gradient,
    dijkstra_grid,
    grid_shortest_paths,
    inner_gd,
    sinkhorn_log,
)
from delayopt.transport import (
    TransportBuffer,
    hypergradient_at,
    solve_adjoint,
)

__version__ = "0.1.0"
