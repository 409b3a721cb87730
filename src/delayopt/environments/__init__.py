import typing
from typing import Any, NamedTuple, Optional

from delayopt.environments.base import Environment, RoundMemo
from delayopt.environments.hard_quadratic import HardQuadraticConfig, HardQuadraticProblem
from delayopt.environments.lqr import LQRConfig, LQRProblem
from delayopt.environments.sinkhorn_flow import SinkhornConfig, SinkhornProblem
from delayopt.environments.grid_path import GridPathConfig, GridPathProblem


class EnvironmentEntry(NamedTuple):
    config: type  # the config dataclass; it checks its value ranges with ContractError
    problem: type[Environment]
    fields: dict[str, Any]  # the config's field names and types


# keyed by registry name; the field types are resolved once, because
# typing.get_type_hints costs a quarter of a config parse
ENVIRONMENTS = {
    name: EnvironmentEntry(config, problem, typing.get_type_hints(config))
    for name, config, problem in (
        ("hard_quadratic", HardQuadraticConfig, HardQuadraticProblem),
        ("lqr", LQRConfig, LQRProblem),
        ("sinkhorn", SinkhornConfig, SinkhornProblem),
        ("grid_path", GridPathConfig, GridPathProblem),
    )
}


def environment_names() -> list[str]:
    return sorted(ENVIRONMENTS)


def make_environment(name: str, seed: int, memo: Optional[RoundMemo] = None, **overrides) -> Environment:
    """Build a freshly seeded environment instance by registry name. ``memo``
    is the round memo shared by the cells of this seed (see
    ``environments/base.py``); without one the environment prices every
    round itself."""
    entry = ENVIRONMENTS[name]
    env = entry.problem(entry.config(**overrides), seed=seed)
    env.memo = memo
    return env
