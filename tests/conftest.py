import csv
import json
import os

import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _read_z(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        rdr = csv.DictReader(fh)
        return [(float(r["t"]), float(r["z"])) for r in rdr]


@pytest.fixture(scope="session")
def z_table():
    """(t, Z(t)) rows from the high-precision oracle, t in [14, 1e4]."""
    return _read_z("z_table.csv")


@pytest.fixture(scope="session")
def z_table_high():
    """(t, Z(t)) rows from the oracle on [9.9e3, 1e5], at dps 30."""
    return _read_z("z_table_high.csv")


@pytest.fixture(scope="session")
def gram_high():
    """(nu, t_nu) from mpmath grampoint at dps 30, t in [1e4, 1e5]."""
    with open(os.path.join(FIXTURES, "gram_high.csv")) as fh:
        rdr = csv.DictReader(fh)
        return [(int(r["n"]) + 1, float(r["t"])) for r in rdr]


@pytest.fixture(scope="session")
def zero_table():
    with open(os.path.join(FIXTURES, "zeros.csv")) as fh:
        rdr = csv.DictReader(fh)
        return [(int(r["k"]), float(r["gamma"])) for r in rdr]


@pytest.fixture(scope="session")
def oracle():
    with open(os.path.join(FIXTURES, "oracle_scalars.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def j_cells_high():
    """J over one stride cell near each of 1e4, 3e4 and 5.8e4, from mpmath."""
    with open(os.path.join(FIXTURES, "j_cells_high.json")) as fh:
        return json.load(fh)["cells"]


@pytest.fixture(scope="session")
def j_cell_top():
    """J over the stride cell [99900, 99950], just below T_MAX, from mpmath."""
    with open(os.path.join(FIXTURES, "j_cell_top.json")) as fh:
        return json.load(fh)["cells"][0]


@pytest.fixture(scope="session")
def j_reads():
    """J over [a, T] from mpmath, T a few units past a stride multiple a,
    from [0, 100] up to the stride cell [99900, 99950]."""
    with open(os.path.join(FIXTURES, "j_reads.json")) as fh:
        return json.load(fh)["reads"]


@pytest.fixture(scope="session")
def z_strip():
    """|Z(t + i y')| from mpmath at complex t, on every decade of [100, 1e5]
    and y' up to the fixture's y_max."""
    with open(os.path.join(FIXTURES, "z_strip.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def calibration():
    with open(os.path.join(FIXTURES, "calibration.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def shared_cache():
    """One checkpoint cache for the whole session.

    Checkpoint values are evaluation-order independent, so sharing does
    not couple tests; it only avoids recomputing stride integrals.
    """
    from ladderlab.integral import CheckpointCache

    return CheckpointCache()
