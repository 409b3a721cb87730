"""Online bilevel optimization under delayed feedback.

A laboratory for predict-then-optimize training loops whose outcome feedback
arrives late: a transport-corrected online optimizer, delayed baselines,
four simulated environments, a delay-queue simulator, and a statistics
harness that writes reproducible CSV experiment tables.
"""

__version__ = "0.1.0"
