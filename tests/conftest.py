from dataclasses import replace

import numpy as np
import pytest

from cbmkit.config import ModelConfig
from cbmkit.laws import DamageLaw, InspectionLaw, SaneLaw
from cbmkit import simulator
from cbmkit.simulator import CycleBatch, csv_blocks, cycle_chunks

# Base parameter set used throughout: damage rate 1e-3, failure rate 5e-4,
# inspections every 1000 time units (uniform variant: half-width 100).
BASE_MU = 1e-3
BASE_LAMBDA = 5e-4
SPACING = 1000.0
HALF_WIDTH = 100.0


def make_config(shape=1, kind="deterministic", mu=BASE_MU, lam=BASE_LAMBDA,
                horizon=5e7, seed=None, **kwargs):
    half = HALF_WIDTH if kind == "uniform" else 0.0
    return ModelConfig(
        SaneLaw(shape, mu),
        DamageLaw(lam),
        InspectionLaw(kind, SPACING, half),
        horizon,
        seed,
        **kwargs,
    )


def time_scaled(config, s):
    """``config`` with every time (c, h, the horizon) times ``s`` and every
    rate over ``s``."""
    gaps = config.inspection
    return replace(config, horizon=config.horizon * s,
                   sane=replace(config.sane, rate=config.sane.rate / s),
                   damage=replace(config.damage, rate=config.damage.rate / s),
                   inspection=replace(gaps, spacing=gaps.spacing * s,
                                      half_width=gaps.half_width * s))


def batch_of(records):
    """The columns of a list of cycle records; every record carries its
    whole schedule, as a batch drawn with its inspection ages does."""
    names = ("time_to_damage", "damage_to_failure", "inspection_count", "detection_age",
             "failure_age", "length", "failed")
    columns = [np.array([getattr(r, name) for r in records]) for name in names]
    ages = np.array([a for r in records for a in r.inspections], dtype=float)
    return CycleBatch(*columns, ages)


def draw_cycles(rng, config, n, inspections=False):
    """``n`` cycles of the one draw loop joined into one batch;
    ``inspections`` keeps uniform gaps' ages."""
    return simulator._join(list(cycle_chunks(rng, config, n, inspections)))


def csv_text(cycles, grid=()):
    """The event log and the snapshot CSV that ``csv_blocks`` streams, each
    as one string."""
    pairs = [("".join(e), "".join(s)) for e, s in csv_blocks(cycles, grid)]
    return "".join(e for e, _ in pairs), "".join(s for _, s in pairs)


def snapshot_rows(cycles, grid=()):
    """The snapshot CSV's rows read back as ``(t, n_r, n_i, n_f)``: every
    cycle end and grid time, in time order."""
    rows = (line.split(",") for line in csv_text(cycles, grid)[1].splitlines()[1:])
    return [(float(t), int(r), int(i), int(f)) for t, r, i, f in rows]


def halved_cycle_square(cycle_moments):
    """``cycle_moments`` with E[length^2] set to half of E[length]^2: an
    inconsistent moment set, whose cycle-length variance is negative."""
    def inconsistent(*args):
        m = cycle_moments(*args)
        return replace(m, mean_cycle_sq=0.5 * m.mean_cycle**2)

    return inconsistent


@pytest.fixture
def base_config():
    return make_config()


@pytest.fixture(params=[(1, "deterministic"), (2, "deterministic"),
                        (1, "uniform"), (2, "uniform")],
                ids=["n1-det", "n2-det", "n1-unif", "n2-unif"])
def any_config(request):
    shape, kind = request.param
    return make_config(shape=shape, kind=kind)
