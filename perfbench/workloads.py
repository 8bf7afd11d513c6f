"""The benchmark's four workloads, generated from a seed.

Each workload is a list of operations run as a first pass and then as a
repeat pass.  A CLI operation is one ``python -m alcove_kl.cli`` child;
the ``queries-a2`` operations are library calls inside one child.  The
inputs the seed chooses from are the pools recorded in
``reference.json``, which also holds the expected output of every input.

The kl-rows pools hold the length-26 elements of B2 and G2 (and the
coset-maximal length-32 elements of B2) whose row costs, counted as
group multiplications plus Laurent additions and products plus length
computations at the seed commit, lie within a few percent of the median
over all such elements.  Each seed thus draws a different element of
comparable cost, so runs on different seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("periodic-a2", "kl-rows", "queries-a2", "verify-gate")

# Sizes are chosen so that a round takes about 4 s (verify-gate: 18 s)
# and a 25 s run holds five or more rounds to take medians over.
PERIODIC_ARGS = ["--type", "A", "--rank", "2", "--p", "5", "--lmax", "4", "--window", "10"]
KL_REPEATS = 2  # warm repeats of each kl-rows command; one is ~0.2 s
QUERY_COUNT = 3  # ~0.45 s each, after a ~1.5 s window build
QUERY_BOUND = 3
QUERY_RADIUS = 13


@dataclass
class Workload:
    name: str
    systems: list[str]  # root systems built by a CLI set-up sample, "A:2"
    first: list[list[str]] = field(default_factory=list)  # CLI argv per op
    repeat: list[list[str]] = field(default_factory=list)
    queries: dict | None = None  # config of the library child

    @property
    def ops_per_round(self) -> int:
        if self.queries is not None:
            return 2 * len(self.queries["words"])
        return len(self.first) + len(self.repeat)


def ref_key(argv: list[str]) -> str:
    """The reference-table key of a CLI command (its argv without a cache)."""
    return " ".join(argv)


def build(name: str, seed: int, ref: dict, tiny: bool = False) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``.

    ``tiny`` selects the smoke-test size, with the same structure.
    """
    rng = random.Random(seed)
    pools = ref["pools"]["tiny" if tiny else "full"]
    if name == "periodic-a2":
        argv = ["periodic", *PERIODIC_ARGS]
        if tiny:
            argv = ["periodic", "--type", "A", "--rank", "1", "--p", "5", "--lmax", "3"]
        return Workload(name, ["A:2"], first=[argv], repeat=[argv])
    if name == "kl-rows":
        ops = [
            ["kl", "--type", "B", "--rank", "2", "--w", rng.choice(pools["kl B2"])],
            ["kl", "--type", "G", "--rank", "2", "--w", rng.choice(pools["kl G2"])],
            ["spherical", "--type", "B", "--rank", "2", "--w", rng.choice(pools["spherical B2"])],
        ]
        repeats = 1 if tiny else KL_REPEATS
        return Workload(name, ["B:2", "G:2"], first=ops, repeat=ops * repeats)
    if name == "queries-a2":
        words = pools["queries A2"]
        count = 1 if tiny else QUERY_COUNT
        config = {
            "words": rng.sample(words, count),
            "bound": 1 if tiny else QUERY_BOUND,
            "radius": QUERY_RADIUS,
        }
        return Workload(name, ["A:2"], queries=config)
    if name == "verify-gate":
        vseed = str(rng.choice(pools["verify seeds"]))
        ops = [["verify", "--type", "A", "--rank", "1", "--p", "5", "--seed", vseed]]
        if not tiny:
            ops.insert(0, ["verify", "--type", "A", "--rank", "2", "--p", "5", "--seed", vseed])
        ops.append(["periodic", "--type", "B", "--rank", "2", "--p", "5", "--lmax", "2"])
        return Workload(name, ["A:2", "A:1", "B:2"], first=ops, repeat=ops)
    raise ValueError(f"unknown workload {name!r}")
