"""Seeded job generators for the three benchmark workloads.

Each generator takes the workload seed and returns the list of jobs one
pass runs, in order.  A job is a CLI config (run in-process through
``ergopress.cli.run`` and ``cli.emit_tables``) or, for the one path the
CLI does not reach, a direct call described by plain data.  The
generators use numpy only, never the library, so the library sees
nothing but the finished configs.  Every generated system is kept:
nothing is filtered, shrunk or redrawn when one of its jobs fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Shapes (k, r, t) of the cover-random systems: alphabet size, potential
# depth and cover depth.  Every pass runs each shape once, so a seed
# changes the adjacency and the values but not the mix of sizes.
COVER_SHAPES = (
    (3, 1, 1), (3, 2, 3), (3, 3, 4), (4, 1, 2), (4, 2, 3), (4, 3, 3),
    (4, 3, 4), (5, 1, 1), (5, 2, 2), (5, 3, 3), (6, 1, 2), (6, 2, 2),
    (7, 1, 1), (7, 2, 2), (8, 1, 2), (8, 3, 3),
)

# Shapes (k, r) of the oracle-spectrum systems, each drawn ORACLE_REPEAT
# times per pass.  Their spectra cover the q grid from -5 to 5 in steps
# of 0.25 as SPECTRUM_CHUNKS jobs on consecutive pieces of the grid.
ORACLE_SHAPES = ((2, 1), (3, 2), (4, 1), (5, 2), (6, 1), (6, 2))
ORACLE_REPEAT = 4
Q_GRID = [round(-5.0 + 0.25 * i, 2) for i in range(41)]
SPECTRUM_CHUNKS = 4

# Standard deviation of the enum-scale potential values.  The probes keep
# the words whose block frequencies are typical for the equilibrium
# state, so the size of the kept family, and with it time and memory,
# follows the potential; small values keep it near the same size for
# every seed.
ENUM_SCALE = 0.1

# enum-scale: (label, adjacency, word lengths) for the inverse-VP probes.
ENUM_SYSTEMS = (
    ("full2", [[1, 1], [1, 1]], (14, 16)),
    ("golden", [[1, 1], [1, 0]], (16, 18, 20)),
    ("sft3", [[1, 1, 0], [0, 1, 1], [1, 1, 1]], (14,)),
)


@dataclass
class Job:
    """One unit of work: a CLI task config, or a direct library call."""

    id: str
    task: str              # CLI task name, or "local_entropy"
    config: dict
    sizes: dict = field(default_factory=dict)


def random_irreducible(rng: np.random.Generator, k: int) -> np.ndarray:
    """Irreducible, aperiodic 0/1 matrix with every out-degree k//2 + 1.

    Row i holds the cycle arc i -> i+1 and k//2 more arcs at random
    columns; row 0 takes the self-loop as one of them.  Every entry off
    the cycle is 1 with probability about one half, as in a Bernoulli(0.5)
    draw plus a full cycle and a self-loop, but the row sums are fixed:
    the number of admissible n-words is k * (k//2 + 1)**(n-1) whatever
    the seed, so the seed moves the arcs and not the amount of work.
    """
    adj = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        adj[i, (i + 1) % k] = 1
        free = [j for j in range(k) if j != (i + 1) % k]
        if i == 0:
            adj[0, 0] = 1
            free.remove(0)
        picks = rng.choice(np.array(free, dtype=np.int64),
                           size=k // 2 + 1 - int(adj[i].sum()), replace=False)
        adj[i, picks] = 1
    return adj


def admissible(adj: np.ndarray, n: int) -> list[tuple]:
    """Admissible words of length n in lexicographic order."""
    words = [(a,) for a in range(adj.shape[0])]
    for _ in range(n - 1):
        words = [w + (b,) for w in words
                 for b in np.flatnonzero(adj[w[-1]]).tolist()]
    return words


def random_table(rng: np.random.Generator, adj: np.ndarray, r: int) -> dict:
    """Depth-r potential with N(0, 1) values, keyed as the CLI expects."""
    words = admissible(adj, r)
    values = rng.normal(size=len(words))
    return {",".join(map(str, w)): float(v) for w, v in zip(words, values)}


def random_walk_words(rng: np.random.Generator, adj: np.ndarray, length: int,
                      count: int) -> list[list[int]]:
    """``count`` admissible words drawn as uniform random walks."""
    words = []
    for _ in range(count):
        w = [int(rng.integers(adj.shape[0]))]
        while len(w) < length:
            w.append(int(rng.choice(np.flatnonzero(adj[w[-1]]))))
        words.append(w)
    return words


def _sft(adj: np.ndarray) -> dict:
    return {"kind": "sft", "adjacency": adj.tolist()}


def _table(r: int, table: dict) -> dict:
    return {"kind": "table", "depth": r, "table": table}


def cover_random(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for i, (k, r, t) in enumerate(COVER_SHAPES):
        adj = random_irreducible(rng, k)
        table = random_table(rng, adj, r)
        sub = adj * (rng.random(adj.shape) < 0.7)
        words = random_walk_words(rng, adj, 4, 6)
        sizes = {"k": k, "r": r, "t": t, "arcs": int(adj.sum()),
                 "states": len(admissible(adj, max(t - 1, 1)))}
        base = {"system": _sft(adj), "potential": _table(r, table)}
        specs = (
            ("pressure-whole", "pressure", {"kind": "whole"},
             {"tol": 1e-6, "n_max": 30, "depths": [t]}),
            ("capacity", "capacity", {"kind": "whole"},
             {"n_max": 60, "depths": [t]}),
            ("pressure-subsft", "pressure",
             {"kind": "sub_sft", "adjacency": sub.tolist()},
             {"tol": 1e-6, "n_max": 30, "depths": [t]}),
            ("pressure-cylinders", "pressure",
             {"kind": "cylinders", "words": words},
             {"tol": 1e-6, "n_max": 30, "depths": [t]}),
        )
        for name, task, subset, budget in specs:
            config = dict(base, task=task, subset=subset, budget=budget)
            extra = {"sub_arcs": int(sub.sum())} if subset["kind"] == "sub_sft" \
                else {}
            jobs.append(Job(f"s{i:02d}.{name}", task, config,
                            dict(sizes, **extra)))
    return jobs


def oracle_spectrum(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    chunks = np.array_split(Q_GRID, SPECTRUM_CHUNKS)
    jobs = []
    for i, (k, r) in enumerate(ORACLE_SHAPES * ORACLE_REPEAT):
        adj = random_irreducible(rng, k)
        base = {"system": _sft(adj),
                "potential": _table(r, random_table(rng, adj, r)),
                "seed": int(rng.integers(2**31))}
        sizes = {"k": k, "r": r, "arcs": int(adj.sum()),
                 "states": len(admissible(adj, max(r - 1, 1)))}
        for j, chunk in enumerate(chunks):
            jobs.append(Job(f"s{i:02d}.spectrum-{j}", "spectrum",
                            dict(base, task="spectrum",
                                 budget={"q_grid": chunk.tolist()}),
                            dict(sizes, q_points=len(chunk))))
        jobs += [
            Job(f"s{i:02d}.correlation", "correlation",
                dict(base, task="correlation",
                     budget={"n": 200, "q_grid": [0.5, 2.0, 3.0]}),
                dict(sizes, n=200)),
            Job(f"s{i:02d}.vp-check", "vp_check",
                dict(base, task="vp_check", budget={"samples": 200}),
                dict(sizes, samples=200)),
            Job(f"s{i:02d}.local-entropy", "local_entropy",
                dict(base, sample_count=2000, n=200),
                dict(sizes, samples=2000, n=200)),
        ]
    return jobs


def enum_scale(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for label, adj, ns in ENUM_SYSTEMS:
        k = len(adj)
        for n in ns:
            values = rng.normal(scale=ENUM_SCALE, size=k)
            table = {str(a): float(v) for a, v in enumerate(values)}
            config = {"task": "inverse_vp", "system": _sft(np.asarray(adj)),
                      "potential": _table(1, table), "budget": {"n": n}}
            jobs.append(Job(f"{label}.inverse-vp-n{n}", "inverse_vp", config,
                            {"k": k, "r": 1, "n": n,
                             "arcs": int(np.sum(adj))}))
    budget = {"arc_count": 256, "n_range": [16, 80]}
    for task in ("gap_example", "transfer_check"):
        jobs.append(Job(f"line.{task.replace('_', '-')}", task,
                        {"task": task, "system": {"kind": "line_doubling"},
                         "budget": budget},
                        {"arcs": 256, "n": 80}))
    return jobs


GENERATORS = {
    "cover-random": cover_random,
    "oracle-spectrum": oracle_spectrum,
    "enum-scale": enum_scale,
}


def generate(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)
