"""Model configuration: the three laws plus run controls.

Configs serialize to a flat ``key = value`` text format with the dotted
keys of :data:`KEYS`, which also names the command-line flags.  Blank
lines and ``#`` comments are allowed.  Parsing then serializing then
parsing is the identity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .laws import DamageLaw, InspectionLaw, SaneLaw


class ConfigError(ValueError):
    """Raised on malformed config text or inconsistent values."""


# Most cycles a horizon simulation may be predicted to draw (check_horizon):
# a horizon past it, which the draw would take hours to reach and whose
# event log would fill a disk, is refused before the first draw.
MAX_CYCLES = 1 << 27

# The one count-exactness bound: a float holds every integer below it, so
# an inspection count is refused at or past it wherever it is predicted
# (check_counts), drawn, read from a log or totalled, with this reason.
MAX_COUNT = 2**53
INEXACT = "counts at or past 2**53 are not exact"

# Most times a --grid-count grid may hold: convergence keeps every grid
# row in memory at once, about 3.6 KB each at its peak (peak RSS over 1e4
# to 3e5 rows of the base config), so this bound keeps that under 1 GB.
MAX_GRID_COUNT = 1 << 18


@dataclass(frozen=True)
class ModelConfig:
    sane: SaneLaw
    damage: DamageLaw
    inspection: InspectionLaw
    # read only where a simulation runs to it (require_horizon)
    horizon: Optional[float] = None
    seed: Optional[int] = None
    confidence: float = 0.95
    grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # the laws' closed forms take arrays of rates; a run takes one each
        if not all(isinstance(law.rate, float) for law in (self.sane, self.damage)):
            raise ConfigError("a config takes one rate per law, not an array of rates")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ConfigError("horizon must be positive and finite")
        if not 0.0 <= self.confidence < 1.0:
            raise ConfigError("confidence must lie in [0, 1)")
        # the interval quantile's argument; 1 at the largest double below 1
        if not 0.5 * (1.0 + self.confidence) < 1.0:
            raise ConfigError("confidence must be at most 0.9999999999999998")
        top = sys.float_info.max if self.horizon is None else self.horizon
        if not all(0.0 < t <= top for t in self.grid):
            raise ConfigError("grid times must lie in (0, horizon]")


def require_horizon(config: ModelConfig) -> float:
    """The config's horizon, or a ConfigError that names the missing key."""
    if config.horizon is None:
        raise ConfigError("missing key 'horizon': the simulation runs to it")
    return config.horizon


def check_horizon(config: ModelConfig) -> None:
    """Refuse a horizon predicted to take more than :data:`MAX_CYCLES`
    cycles, with a ConfigError that names the count and the bound.

    A cycle ends at an inspection, the first at ``c - h`` or later, or at
    the failure, ``Y_d`` or more after the repair; and never before its
    damage time.  So a cycle lasts at least ``min(c - h, Y_d)`` and at least
    ``Y_s``, its mean is at least ``max(shape/mu, E[min(c - h, Y_d)])``,
    and the horizon over that mean is the predicted count.  A config
    without a horizon raises ConfigError too (:func:`require_horizon`).
    """
    horizon = require_horizon(config)
    law, lam = config.inspection, config.damage.rate
    shortest = max(config.sane.shape / config.sane.rate,
                   -math.expm1(-lam * (law.spacing - law.half_width)) / lam)
    cycles = horizon / shortest
    if cycles > MAX_CYCLES:
        raise ConfigError(f"horizon {horizon!r} predicts up to {cycles:.3g} cycles, "
                          f"more than the bound of {MAX_CYCLES}")


def check_counts(config: ModelConfig) -> None:
    """Refuse a config whose cycles are predicted to need :data:`MAX_COUNT`
    or more inspections each, with a ConfigError that names the count.

    A cycle's detection age, the first planned age at or past its damage
    time ``Y_s``, is at most ``K (c + h)`` for its ``K`` inspections, so
    ``E[K] >= shape / (mu (c + h))``.  The bound is compared as a product,
    so a product ``mu (c + h)`` that underflows to 0 is refused too.
    """
    sane, law = config.sane, config.inspection
    longest = law.spacing + law.half_width
    width = sane.rate * longest
    if not width * MAX_COUNT > sane.shape:
        least = sane.shape / width if width else math.inf
        raise ConfigError(f"sane.shape {sane.shape}, sane.rate {sane.rate!r} and gaps of up to "
                          f"{longest!r} predict at least {least:.3g} inspections per cycle: "
                          + INEXACT)


# Every key, with the help text of its command-line flag.
KEYS = {
    "sane.shape": "gamma shape of the repair-to-damage law",
    "sane.rate": "rate of the repair-to-damage law",
    "damage.rate": "rate of the damage-to-failure law",
    "inspection.kind": "deterministic or uniform",
    "inspection.c": "inspection spacing",
    "inspection.h": "uniform half-width",
    "horizon": "simulation horizon",
    "seed": "random seed (required for stochastic commands)",
    "confidence": "confidence level for intervals",
    "grid": "comma-separated snapshot times",
}


def parse_config(text: str) -> ModelConfig:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    return config_from_values(values)


def config_from_values(values: dict[str, str]) -> ModelConfig:
    def need(key: str) -> str:
        if key not in values:
            raise ConfigError(f"missing key {key!r}")
        return values[key]

    try:
        sane = SaneLaw(int(need("sane.shape")), float(need("sane.rate")))
        damage = DamageLaw(float(need("damage.rate")))
        inspection = InspectionLaw(
            need("inspection.kind"),
            float(need("inspection.c")),
            float(values.get("inspection.h", "0")),
        )
        horizon = float(values["horizon"]) if values.get("horizon", "") != "" else None
        seed = int(values["seed"]) if values.get("seed", "") != "" else None
        confidence = float(values.get("confidence", "0.95"))
        grid_text = values.get("grid", "").strip()
        grid = tuple(float(tok) for tok in grid_text.split(",") if tok.strip()) if grid_text else ()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ModelConfig(sane, damage, inspection, horizon, seed, confidence, grid)


def serialize_config(config: ModelConfig) -> str:
    lines = [
        f"sane.shape = {config.sane.shape}",
        f"sane.rate = {config.sane.rate!r}",
        f"damage.rate = {config.damage.rate!r}",
        f"inspection.kind = {config.inspection.kind}",
        f"inspection.c = {config.inspection.spacing!r}",
        f"inspection.h = {config.inspection.half_width!r}",
        f"horizon = {'' if config.horizon is None else repr(config.horizon)}",
        f"seed = {'' if config.seed is None else config.seed}",
        f"confidence = {config.confidence!r}",
        f"grid = {', '.join(repr(t) for t in config.grid)}",
    ]
    return "\n".join(lines) + "\n"

