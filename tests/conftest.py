import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from ergopress import Potential, golden_mean_shift, make_full_shift

GOLDEN = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="session")
def full2():
    return make_full_shift(2)


@pytest.fixture(scope="session")
def golden():
    return golden_mean_shift()


@pytest.fixture(scope="session")
def phi_log2(full2):
    """Depth-1 potential (0, log 2) on the full 2-shift: pressure log 3."""
    return Potential.depth_one(full2, [0.0, math.log(2.0)], name="log2-weight")


def random_irreducible_adjacency(rng, dim):
    """Random 0/1 matrix containing a full cycle and one self-loop, so it
    is irreducible and aperiodic by construction."""
    adj = (rng.random((dim, dim)) < 0.45).astype(np.int64)
    for i in range(dim):
        adj[i, (i + 1) % dim] = 1
    adj[0, 0] = 1
    return adj


def random_potential(rng, system, depth):
    from ergopress.shifts import iter_admissible_tuples

    table = {w: float(rng.normal())
             for w in iter_admissible_tuples(system.adjacency, depth)}
    return Potential(system, depth, table)


@pytest.fixture
def perron_solves(monkeypatch):
    """Counts calls of ``transfer.power_iteration`` (one per Perron solve);
    read the count as ``len(perron_solves)``."""
    from ergopress import transfer

    calls = []
    original = transfer.power_iteration

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(transfer, "power_iteration", counting)
    return calls
