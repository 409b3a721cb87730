"""Built-in experiment presets.

Each preset is an INI string fed through the normal config parser, so the
presets double as working configuration examples. Seeds default to 0..n-1 and
are recorded in every output header.
"""

from __future__ import annotations

from delayopt.config import ConfigError, ExperimentConfig, parse_config

PRESETS: dict[str, str] = {
    "hard_instance_floor": """
# Biased-solver steady state on the scalar quadratic instance: with bias 0.1
# and coupling |a - b| = 1, stale OMD at d = 10 pays 0.005 = bias^2/2 per round
# over the last 500 rounds, the loss at theta = -bias/coupling. Cumulative
# regret reads 33.91.
[experiment]
name = hard_instance_floor
environment = hard_quadratic
rounds = 5000
seeds = 0
summary_window = 500
out = results/hard_instance_floor

[environment.args]
a = 1.0
b = 2.0
mu_w = 1.0
bias = 0.1

[delay]
kind = constant
d = 10

[algorithm.stale_omd]
eta0 = 0.04
schedule_mode = constant
""",
    "transport_scaling": """
# Transport-error surrogates on one stale Adam arm: the ratio of the squared
# window drift to the per-step sum, which the window inequality bounds by the
# queue length d, reads 1 / 1.97 / 4.78 / 9.16 / 16.95 / 35.92 at
# d = 1 / 2 / 5 / 10 / 20 / 50.
[experiment]
name = transport_scaling
environment = sinkhorn
rounds = 1000
seeds = 0,1,2,3,4
out = results/transport_scaling

[environment.args]
drift_noise = 0.1

[delay]
kind = constant
sweep = 1,2,5,10,20,50

[algorithm.stale_adam]
eta0 = 0.001
""",
    "controlled_comparison": """
# Transport vs stale gradients under an identical Adam base. The two arms are
# bit-identical only at d = 0 (the paper's unit delay, see the delay convention
# in docs/config_schema.md); from d = 1 on they differ, and the d = 1 cell
# reads +0.10% (p = 0.995), not 0.0%.
[experiment]
name = controlled_comparison
environment = sinkhorn
rounds = 1000
seeds = 0,1,2,3,4
out = results/controlled_comparison

[environment.args]
drift_noise = 0.1

[delay]
kind = constant
sweep = 1,5,10,20,50

[algorithm.transport_adam]
eta0 = 0.002

[algorithm.stale_adam]
eta0 = 0.002

[compare]
treatment = transport_adam
control = stale_adam
""",
    "uniform_delay_validation": """
# Transport vs stale gradients under an identical Adam base at uniform delays
# 0..50, a mean queue length of 24-25 per seed. Transport reads -26.58%
# (p = 0.21): worse on average, and the arms do not separate over 5 seeds.
[experiment]
name = uniform_delay_validation
environment = sinkhorn
rounds = 1000
seeds = 0,1,2,3,4
out = results/uniform_delay_validation

[environment.args]
drift_noise = 0.1

[delay]
kind = uniform
d_max = 50

[algorithm.transport_adam]
eta0 = 0.002

[algorithm.stale_adam]
eta0 = 0.002

[compare]
treatment = transport_adam
control = stale_adam
""",
    "lqr_stability": """
# Maximum stable learning rate vs queue length on the control task. eta_max
# reads 8.559 / 2.719 / 1.414 / 1.088 for transport_omd and 5.492 / 2.420 /
# 1.791 / 0.926 for two_stage at d = 1 / 10 / 20 / 40: both fall with the
# delay, and two_stage holds the larger step only at d = 20. `delayopt
# stability` reads neither [delay] nor rounds: its probes run at each of the
# [stability] delays for horizon rounds.
[experiment]
name = lqr_stability
environment = lqr
rounds = 500
seeds = 0,1,2
out = results/lqr_stability

[delay]
kind = constant
d = 1

[algorithm.transport_omd]
eta0 = 0.01
schedule_mode = constant

[algorithm.two_stage]
eta0 = 0.01
schedule_mode = constant

[stability]
eta_lo = 0.0001
eta_hi = 16.0
resolution = 0.002
horizon = 500
delays = 1,10,20,40
""",
    "grid_delay_sweep": """
# Terrain-grid shortest-path decisions: window-mean optimality gap under
# no delay and long delay for the transported optimizer against both
# baselines the Warcraft comparison names. D-FTRL is the stale delayed
# gradient; it keeps the transported arm's Adam base and step schedule, so
# only the gradient source differs. 2-Stage is the regression baseline.
# At d = 50 the gap reads 1.7 for transport, 0.7046 for D-FTRL and 4.627 for
# 2-Stage (regret 6677 / 4369 / 7868): transport beats 2-Stage, not D-FTRL.
# At d = 0 transport and D-FTRL are bit-identical (gap 0.4975); 2-Stage
# reads 0.4903.
[experiment]
name = grid_delay_sweep
environment = grid_path
rounds = 2000
seeds = 0,1,2,3,4
summary_window = 200
out = results/grid_delay_sweep

[delay]
kind = constant
sweep = 0,50

[algorithm.transport_adam]
eta0 = 0.001
beta_damping = 1.0
schedule_mode = queue_adaptive

[algorithm.stale_adam]
eta0 = 0.001
beta_damping = 1.0
schedule_mode = queue_adaptive

[algorithm.two_stage_adam]
eta0 = 0.001
""",
    "k_sweep": """
# Inner-solver budget sweep at d = 20, one comparison per inner_iterations K.
# Transport vs stale reads +4.66 / -9.33 / -8.48 / -7.70 / -7.20 / -8.43% at
# K = 1 / 3 / 5 / 10 / 20 / 50 (Welch p 0.63 / 0.39 / 0.43 / 0.47 / 0.49 /
# 0.43): no cell separates the arms, so no inner budget shows a benefit.
[experiment]
name = k_sweep
environment = sinkhorn
rounds = 1000
seeds = 0,1,2,3,4
out = results/k_sweep

[environment.args]
drift_noise = 0.1

[environment.sweep]
inner_iterations = 1,3,5,10,20,50

[delay]
kind = constant
d = 20

[algorithm.transport_adam]
eta0 = 0.002

[algorithm.stale_adam]
eta0 = 0.002

[compare]
treatment = transport_adam
control = stale_adam
""",
    "delay_patterns": """
# One transported OMD arm under three delay processes whose mean queue length
# is 19-20: constant:20, uniform:0-40 and bursty:10x40. Regret reads 14.02 /
# 11.64 / 9.44 (sd 0.15 / 0.49 / 0.51 over 3 seeds). With a single arm the
# preset compares delay processes, not gradient sources.
[experiment]
name = delay_patterns
environment = sinkhorn
rounds = 1000
seeds = 0,1,2
out = results/delay_patterns

[environment.args]
drift_noise = 0.1

[delay]
kind = constant
d = 20

[delay.uniform]
kind = uniform
d_max = 40

[delay.bursty]
kind = bursty
d_high = 40
block_len = 10

[algorithm.transport_omd]
eta0 = 0.05
""",
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return parse_config(PRESETS[name])
