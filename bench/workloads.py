"""Seeded operation streams of the benchmark workloads.

A workload is a list of operations, called a unit, that the worker runs
again and again, whole, until the run's time is up. Every operation is one
``esdsim`` command line. Only the ``esd`` and ``oracle`` units depend on the
seed; ``sweep`` is the fixed 48-preset figure grid.

The seeded units draw nbar (uniform) and k (log-uniform for ``esd``,
uniform for ``oracle``) as an antithetic Latin hypercube: each axis has one
draw per stratum, strata s and count-1-s take mirrored jitter, and the k
strata are paired with the nbar strata by a seeded shuffle that maps
mirrored strata to mirrored strata. So every operation's k and nbar are
independent and follow the stated distributions, every (k, nbar) stratum
pair, the costliest corner too, is drawn for some seeds, and each
operation has a mirror image in the unit. An operation's cost grows with
nbar and falls with k, so mirror images partly balance, and the seed moves
the unit's total work and its median operation, which set the end-to-end
figures, less than it would with independent draws. The units have an
even number of operations (esd 6, oracle 8), so the median operation is
the mean of the middle two, in the main a mirrored pair whose costs
balance; with an odd number it is one operation and follows its draw.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

NAMES = ("sweep", "esd", "oracle")

LAM = 10.0          # the CLI's default qubit-qubit coupling
LAM_T_SPAN = 20.0   # every seeded window is lam*t in [0, 20]
EPSILON = 1e-10     # the CLI's default thermal truncation

# per workload: operations per unit, nbar range, k range, whether k is
# log-uniform, grid points
_SEEDED = {
    "esd": dict(count=6, nbar=(1.0, 10.0), k=(0.1, 0.5), log_k=True, steps=2000,
                flag="--detect-events"),
    "oracle": dict(count=8, nbar=(3.0, 10.0), k=(0.1, 0.5), log_k=False, steps=100,
                   flag="--oracle-check"),
}
_TINY = {
    "esd": dict(count=2, nbar=(0.5, 1.0), steps=200),
    "oracle": dict(count=2, nbar=(0.5, 1.0), steps=10),
}
_TINY_PRESETS = ("fig1a", "fig3a", "fig5a", "fig7a")


@dataclass(frozen=True)
class Physics:
    """The inputs that fix a run's time series, shared by every output of it."""

    k: float
    nbar: float
    t0: float
    t1: float
    steps: int
    lam: float = LAM
    epsilon: float = EPSILON


@dataclass(frozen=True)
class Op:
    """One CLI call. ``args`` lack the output flags the worker adds."""

    key: str
    args: tuple[str, ...]
    physics: tuple[tuple[str, Physics], ...]  # (output file stem, physics) pairs


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# BLAS/OpenMP thread variables, set before numpy loads. Each workload runs
# on one thread (``sweep --jobs 1``, one BLAS thread): with both vCPUs of a
# 2-vCPU guest busy the host stole up to 17% of the time, in bursts, and the
# single-threaded speed probe (bench/speed.py) that the figures are scaled
# by cannot see that.
THREAD_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One point per stratum of [lo, hi], in stratum order; strata s and
    count-1-s mirror their jitter."""
    width = (hi - lo) / count
    out = [lo + width * (count // 2 + rng.random())] * count  # the middle one, if count is odd
    for s in range(count // 2):
        u = rng.random()
        out[s] = lo + width * (s + u)
        out[count - 1 - s] = lo + width * (count - s - u)
    return out


def _mirrored_shuffle(rng: random.Random, count: int) -> list[int]:
    """A uniformly random stratum for each position, as a permutation that
    sends count-1-s to count-1-perm[s]."""
    half = count // 2
    pairs = list(range(half))
    rng.shuffle(pairs)
    perm = [half] * count  # the middle one, if count is odd
    for s, j in enumerate(pairs):
        if rng.random() < 0.5:
            j = count - 1 - j
        perm[s], perm[count - 1 - s] = j, count - 1 - j
    return perm


def _fmt(x: float) -> str:
    return repr(round(x, 6))


def preset_physics(name: str) -> Physics:
    """Physics of a figure preset, restated from the README's preset grid."""
    fig, panel = int(name[3]), "abcdef".index(name[4])
    span, steps = ((20.0, 2000), (80.0, 4000), (400.0, 8000))[panel % 3]
    return Physics(k=0.1 if fig % 2 else 0.5, nbar=1.0 if panel < 3 else 10.0,
                   t0=0.0, t1=span / LAM, steps=steps)


def preset_names() -> list[str]:
    return [f"fig{fig}{panel}" for fig in range(1, 9) for panel in "abcdef"]


def unit(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations one pass of the workload runs, in order."""
    if workload == "sweep":
        names = list(_TINY_PRESETS) if tiny else preset_names()
        args = ("sweep", *(names if tiny else ()), "--jobs", "1")
        return [Op(key="sweep", args=args,
                   physics=tuple((n, preset_physics(n)) for n in names))]

    spec = dict(_SEEDED[workload], **(_TINY[workload] if tiny else {}))
    rng = random.Random(f"{workload}:{seed}")
    count = spec["count"]
    nbars = _stratified(rng, count, *spec["nbar"])
    k_lo, k_hi = spec["k"]
    if spec["log_k"]:
        ks = [math.exp(x) for x in _stratified(rng, count, math.log(k_lo), math.log(k_hi))]
    else:
        ks = _stratified(rng, count, k_lo, k_hi)
    ks = [ks[i] for i in _mirrored_shuffle(rng, count)]
    t1 = LAM_T_SPAN / LAM
    ops = []
    for i, (k, nbar) in enumerate(zip(ks, nbars)):
        k, nbar = float(_fmt(k)), float(_fmt(nbar))
        args = ("run", "--k", _fmt(k), "--nbar", _fmt(nbar), "--t0", "0", "--t1", _fmt(t1),
                "--steps", str(spec["steps"]), spec["flag"])
        ops.append(Op(key=f"{workload}{i}", args=args,
                      physics=((f"{workload}{i}",
                                Physics(k=k, nbar=nbar, t0=0.0, t1=t1, steps=spec["steps"])),)))
    return ops
