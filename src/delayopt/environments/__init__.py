import typing
from typing import Optional

from delayopt.environments.base import Environment, RoundMemo
from delayopt.environments.hard_quadratic import HardQuadraticConfig, HardQuadraticProblem
from delayopt.environments.lqr import LQRConfig, LQRProblem
from delayopt.environments.sinkhorn_flow import SinkhornConfig, SinkhornProblem
from delayopt.environments.grid_path import GridPathConfig, GridPathProblem

_FACTORIES = {
    "hard_quadratic": (HardQuadraticConfig, HardQuadraticProblem),
    "lqr": (LQRConfig, LQRProblem),
    "sinkhorn": (SinkhornConfig, SinkhornProblem),
    "grid_path": (GridPathConfig, GridPathProblem),
}


# resolved once: typing.get_type_hints costs a quarter of a config parse
_CONFIG_FIELDS = {name: typing.get_type_hints(config) for name, (config, _) in _FACTORIES.items()}


def environment_names() -> list[str]:
    return sorted(_FACTORIES)


def _factory(name: str):
    if name not in _FACTORIES:
        raise ValueError(f"unknown environment {name!r}; known: {', '.join(environment_names())}")
    return _FACTORIES[name]


def environment_config_fields(name: str) -> dict[str, type]:
    """Field names and types of a registered environment's config dataclass."""
    _factory(name)  # rejects an unknown name
    return _CONFIG_FIELDS[name]


def environment_class(name: str) -> type[Environment]:
    """A registered environment's class, for its declared attributes."""
    return _factory(name)[1]


def environment_config(name: str, **overrides):
    """A registered environment's config dataclass; value ranges are checked
    here, with ``ContractError``."""
    return _factory(name)[0](**overrides)


def make_environment(name: str, seed: int, memo: Optional[RoundMemo] = None, **overrides) -> Environment:
    """Build a freshly seeded environment instance by registry name. ``memo``
    is the round memo shared by the cells of this seed (see
    ``environments/base.py``); without one the environment prices every
    round itself."""
    env = environment_class(name)(environment_config(name, **overrides), seed=seed)
    env.memo = memo
    return env
