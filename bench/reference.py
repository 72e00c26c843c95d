"""Correctness gate: a small dense-Hamiltonian reference and output checks.

The reference shares no code with esdsim. It builds the model Hamiltonian
on the qubit1 x qubit2 x Fock space with Fock cutoff nmax + 2 (dimension
4 (nmax + 3)), diagonalises it once with numpy ``eigh``, and evaluates the
thermally averaged two-qubit entries at any t as p(t)^T K p(t)*, with
p = exp(-i E t) and K built once per entry. The truncation follows the
package's documented convention: rho11 also carries the sector nmax + 1.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

TOL = 1e-8
# bound on the rounding error of rho11 rho44 per unit of lam t, set well
# above the largest gap between esdsim and this reference over the figure
# presets and the seeded configs (about 4e-17 per unit of lam t)
ROUNDING = 1e-15
ROWS_PER_OUTPUT = 3

# basis index of |q1, q2, n> with e = 0, g = 1
_EE, _EG, _GE, _GG = range(4)
_ENTRIES = ((_EE, _EE), (_EG, _EG), (_GE, _GE), (_GG, _GG), (_EG, _GE))


def thermal_truncation(nbar: float, epsilon: float) -> int:
    """Smallest nmax with geometric tail (nbar / (1 + nbar))^(nmax + 1) <= epsilon."""
    q = nbar / (1.0 + nbar)
    nmax = 0
    while q ** (nmax + 1) > epsilon:
        nmax += 1
    return nmax


class DenseReference:
    """rho(t) of the |e1 g2> x thermal start, by dense diagonalisation."""

    def __init__(self, lam: float, k: float, nbar: float, epsilon: float):
        g = k * lam
        nmax = thermal_truncation(nbar, epsilon)
        nf = nmax + 3
        dim = 4 * nf
        idx = lambda q, n: q * nf + n  # noqa: E731
        h = np.zeros((dim, dim))
        n = np.arange(nf)
        h[idx(_EG, n), idx(_GE, n)] = lam          # lam (|eg><ge| + h.c.)
        m = np.arange(1, nf)
        for q_hi, q_lo in ((_EE, _EG), (_GE, _GG)):  # g (s2+ a + h.c.), qubit 2 e <-> g
            h[idx(q_hi, m - 1), idx(q_lo, m)] = g * np.sqrt(m)
        h = h + h.T
        self.energies, vecs = np.linalg.eigh(h)

        ns = np.arange(nmax + 2)
        weights = nbar**ns / (1.0 + nbar) ** (ns + 1)
        start = vecs[idx(_EG, ns), :].T          # eigen-components of |e g, n>
        mix_ext = (start * weights) @ start.T    # n = 0 .. nmax + 1, for rho11
        mix = (start[:, :-1] * weights[:-1]) @ start[:, :-1].T
        blocks = [vecs[q * nf:(q + 1) * nf, :] for q in range(4)]
        self.kernels = [(blocks[j].T @ blocks[m]) * (mix_ext if j == _EE else mix)
                        for j, m in _ENTRIES]

    def entries(self, t: float) -> dict[str, float | complex]:
        # p = c - i s, and K is real: p^T K p* = c.Kc + s.Ks + i (c.Ks - s.Kc)
        cs = np.stack([np.cos(self.energies * t), np.sin(self.energies * t)], axis=1)
        vals = []
        for kern in self.kernels:
            kc, ks = (kern @ cs).T
            vals.append(complex(cs[:, 0] @ kc + cs[:, 1] @ ks, cs[:, 0] @ ks - cs[:, 1] @ kc))
        return {"rho11": vals[0].real, "rho22": vals[1].real, "rho33": vals[2].real,
                "rho44": vals[3].real, "rho23": complex(vals[4])}


def lambda_fn(r: dict) -> float:
    return 2.0 * abs(r["rho23"]) - 2.0 * math.sqrt(max(r["rho11"] * r["rho44"], 0.0))


def _observable_error(name: str, value: float, r: dict, lam_t: float) -> float:
    """Error of an output value against reference entries, less the part
    that rounding alone can cause.

    Lambda and the concurrence take sqrt(rho11 rho44). Rounding errs the
    product by up to c = ROUNDING (1 + lam t), as the phases E t lose
    digits while t grows, and so errs Lambda by up to
    4 c / (sqrt(rho11 rho44) + sqrt(c)). That allowance is far below TOL
    except where rho11 rho44 is close to 0.
    """
    c23 = abs(r["rho23"])
    if name == "coherence":
        return abs(value - 2.0 * c23)
    if name == "inversion":
        return abs(value - (r["rho11"] + r["rho22"] - r["rho33"] - r["rho44"]))
    if name == "entropy":
        ee, gg = r["rho11"] + r["rho22"], r["rho33"] + r["rho44"]
        return abs(value - (1.0 - ee * ee - gg * gg))
    lam_ref = lambda_fn(r)
    expected = max(lam_ref, 0.0) if name == "concurrence" else lam_ref
    rounding_p = ROUNDING * (1.0 + lam_t)
    root = math.sqrt(max(r["rho11"] * r["rho44"], 0.0))
    return max(abs(value - expected) - 4.0 * rounding_p / (root + math.sqrt(rounding_p)), 0.0)


def read_csv(path: Path) -> tuple[list[str], list[list[float]], list[str]]:
    """Header, numeric rows and '#' comment lines of one CLI output."""
    header, rows, comments = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif not header:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, rows, comments


class Checker:
    """Checks outputs against dense references, one per distinct Hamiltonian."""

    def __init__(self, seed: int):
        self.seed = seed
        self._refs: dict[tuple, DenseReference] = {}

    def reference(self, phys) -> DenseReference:
        key = (phys.lam, phys.k, phys.nbar, phys.epsilon)
        if key not in self._refs:
            self._refs[key] = DenseReference(*key)
        return self._refs[key]

    def check_output(self, path: Path, phys, detect_events: bool,
                     oracle_check: bool) -> list[str]:
        """Problems found in one output file; empty when it passes."""
        try:
            header, rows, comments = read_csv(path)
        except (OSError, ValueError) as exc:
            return [f"{path.name}: unreadable output ({exc})"]
        problems = []
        if header[:2] != ["t", "lambda_t"] or len(rows) != phys.steps:
            return [f"{path.name}: expected t,lambda_t,... and {phys.steps} rows"]
        ref = self.reference(phys)
        times = np.linspace(phys.t0, phys.t1, phys.steps)
        rng = random.Random(f"{self.seed}:{path.name}")
        for row in rng.sample(range(phys.steps), min(ROWS_PER_OUTPUT, phys.steps)):
            t = rows[row][0]
            if abs(t - times[row]) > 1e-12 * max(1.0, abs(times[row])):
                problems.append(f"{path.name}: row {row} has t={t}, expected {times[row]}")
                continue
            r = ref.entries(t)
            for name, value in zip(header[2:], rows[row][2:]):
                err = _observable_error(name, value, r, phys.lam * t)
                if not err <= TOL:
                    problems.append(f"{path.name}: {name} at t={t!r} off by {err:.3e}")
        if detect_events:
            for line in comments:
                if line[:1].isalpha():  # the column header or the oracle line
                    continue
                t_death, t_birth = (float(x) for x in line.split(",")[:2])
                for t_end in (t for t in (t_death, t_birth) if phys.t0 < t < phys.t1):
                    err = abs(lambda_fn(ref.entries(t_end)))
                    if not err <= TOL:
                        problems.append(f"{path.name}: reference |Lambda| at endpoint "
                                        f"{t_end!r} is {err:.3e}")
        if oracle_check:
            devs = [c for c in comments if c.startswith("oracle_max_deviation,")]
            dev = float(devs[0].split(",")[1]) if devs else math.nan
            if not dev <= TOL:
                problems.append(f"{path.name}: oracle deviation {dev} (need <= {TOL})")
        return problems
