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
    return Potential.depth_one(full2, [0.0, math.log(2.0)])


def random_irreducible_adjacency(rng, dim):
    """Random 0/1 matrix containing a full cycle and one self-loop, so it
    is irreducible and aperiodic by construction."""
    adj = (rng.random((dim, dim)) < 0.45).astype(np.int64)
    for i in range(dim):
        adj[i, (i + 1) % dim] = 1
    adj[0, 0] = 1
    return adj


def random_support(rng, kind, k):
    """0/1 adjacency on k symbols: irreducible and aperiodic, a permuted
    k-cycle (period k), a permuted complete bipartite graph (period 2), or
    two irreducible classes joined by one arc."""
    if kind == "aperiodic":
        return random_irreducible_adjacency(rng, k)
    perm = rng.permutation(k)
    if kind == "cycle":
        adj = np.roll(np.eye(k, dtype=np.int64), 1, axis=1)
    elif kind == "bipartite":
        side = np.arange(k) < int(rng.integers(1, k))
        adj = (side[:, None] != side[None, :]).astype(np.int64)
    else:
        cut = int(rng.integers(1, k))
        adj = np.zeros((k, k), dtype=np.int64)
        adj[:cut, :cut] = random_irreducible_adjacency(rng, cut)
        adj[cut:, cut:] = random_irreducible_adjacency(rng, k - cut)
        adj[int(rng.integers(cut)), int(rng.integers(cut, k))] = 1
    return adj[perm][:, perm]


def random_potential(rng, system, depth):
    from ergopress.shifts import iter_admissible_tuples

    table = {w: float(rng.normal())
             for w in iter_admissible_tuples(system.adjacency, depth)}
    return Potential(system, depth, table)


@pytest.fixture
def perron_solves(monkeypatch):
    """Counts calls of ``transfer.power_iteration`` (one per Perron solve),
    also those ``multifractal`` makes through its own import of it; read
    the count as ``len(perron_solves)``."""
    from ergopress import multifractal, transfer

    calls = []
    original = transfer.power_iteration

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module in (transfer, multifractal):
        monkeypatch.setattr(module, "power_iteration", counting)
    return calls
