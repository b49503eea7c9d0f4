"""The benchmark's workloads: which CLI calls make up one pass of each,
and which reference entry each call's result is checked against.  See
perfbench/README.md for why each workload was chosen."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = (
    "diagonal",
    "interior-point",
    "corner-nondegenerate",
    "corner-semidegenerate",
    "corner-degenerate",
    "edge-point",
    "edge-point-degenerate",
)
SWEEP_U = (3.0, 4.5)
HIGH_U = (6.0, 7.5, 9.0)
FLAT_R_U = (4.5,)
FLAT_R_FILE = os.path.join(HERE, "flat_r.model")
MC_MODEL = "interior-point"
# (u, grid, reps): the first is bound by the per-replicate draws and the
# path matmul, the second by the dense factorization of a 4096 x 4096 matrix
MC_CALLS = ((4.5, 512, 20000), (2.5, 2048, 2000))

NAMES = ("eec-sweep", "high-u", "mc-sim", "flat-r")


@dataclass(frozen=True)
class Item:
    """One CLI call, delivering one (model, u) result."""

    label: str
    argv: tuple[str, ...]
    kind: str  # eec | closed-form | simulate
    ref: str   # key into reference.json


def ref_key(name: str, u: float, mode: str) -> str:
    return f"{name}|u={u:g}|{mode}"


def reference_jobs():
    """Every (fixture, u, mode) face-pair sum the workloads check."""
    jobs = set()
    for name in FIXTURES:
        for u in SWEEP_U + HIGH_U:
            jobs.add((name, u, "full"))
        if name != "diagonal":  # the restricted sum has no ridge form
            for u in HIGH_U:
                jobs.add((name, u, "restricted"))
    for u, _, _ in MC_CALLS:
        jobs.add((MC_MODEL, u, "full"))
    return sorted(jobs)


def _eec(name, u, restricted=False):
    mode = "restricted" if restricted else "full"
    argv = ("eec", "--model", name, "--u", f"{u:g}")
    if restricted:
        argv += ("--theorem", "3.3-restricted")
    return Item(f"eec {mode} {name} u={u:g}", argv, "eec", ref_key(name, u, mode))


def one_pass(workload: str, seed: int, index: int) -> list[Item]:
    """The calls of pass `index`, in an order drawn from (seed, index).

    The analytic workloads are deterministic, so the seed only permutes
    the calls; mc-sim also hands each pass its own simulation seed."""
    rng = random.Random(seed * 1_000_003 + index)
    if workload == "eec-sweep":
        items = [_eec(n, u) for n in FIXTURES for u in SWEEP_U]
    elif workload == "high-u":
        items = []
        for n in FIXTURES:
            for u in HIGH_U:
                items.append(Item(f"closed-form {n} u={u:g}",
                                  ("closed-form", "--model", n, "--u", f"{u:g}"),
                                  "closed-form", ref_key(n, u, "closed-form")))
                items.append(_eec(n, u))
                if n != "diagonal":
                    items.append(_eec(n, u, restricted=True))
    elif workload == "mc-sim":
        sim_seed = (seed * 7919 + index) % (1 << 31)
        items = [Item(f"simulate {MC_MODEL} u={u:g} grid={g}",
                      ("simulate", "--model", MC_MODEL, "--u", f"{u:g}", "--grid", str(g),
                       "--reps", str(r), "--seed", str(sim_seed)),
                      "simulate", ref_key(MC_MODEL, u, "full"))
                 for u, g, r in MC_CALLS]
    elif workload == "flat-r":
        items = [Item(f"eec flat-r u={u:g}",
                      ("eec", "--model-file", FLAT_R_FILE, "--u", f"{u:g}"),
                      "eec", ref_key("flat-r", u, "full"))
                 for u in FLAT_R_U]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    rng.shuffle(items)
    return items
