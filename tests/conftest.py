import numpy as np
import pytest

from cbmkit.config import ModelConfig
from cbmkit.laws import DamageLaw, InspectionLaw, SaneLaw
from cbmkit.simulator import CycleBatch

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


def batch_of(records):
    """The columns of a list of cycle records; every record carries its
    whole schedule, as a batch drawn with its inspection ages does."""
    names = ("time_to_damage", "damage_to_failure", "inspection_count", "detection_age",
             "failure_age", "length", "failed")
    columns = [np.array([getattr(r, name) for r in records]) for name in names]
    ages = np.array([a for r in records for a in r.inspections], dtype=float)
    return CycleBatch(*columns, ages)


@pytest.fixture
def base_config():
    return make_config()


@pytest.fixture(params=[(1, "deterministic"), (2, "deterministic"),
                        (1, "uniform"), (2, "uniform")],
                ids=["n1-det", "n2-det", "n1-unif", "n2-unif"])
def any_config(request):
    shape, kind = request.param
    return make_config(shape=shape, kind=kind)
