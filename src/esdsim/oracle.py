"""Brute-force validator: the real Hamiltonian as its nonzero entries, one
spectral reduction.

The interaction Hamiltonian is built on the full qubit1 x qubit2 x Fock
space, entry by entry, and decomposed once; the two-qubit reduction is
taken in its spectral basis with no reference to the closed-form sector
solution. Agreement between the two routes is the main correctness
argument of the package.

H is held in units of lam, as the engine holds its constants: the entries
of H / lam are 1 and k sqrt(n), evaluated at tau = lam t, so the validator
takes every run the engine takes.

Every term of H moves exactly one excitation, so H anticommutes with the
parity (-1)^(s1 + n) (s1 = 1 when qubit 1 is excited): in parity order
H = [[0, B], [B^T, 0]], and the SVD of the half-size block B gives its
whole spectrum (the Jordan-Wielandt matrix; Golub & Van Loan, Matrix
Computations). H is held as its nonzero entries, which are the edges of a
graph on the basis states: the parity check reads each entry's two ends,
and B's entries are those from an even to an odd state. H is split into
the connected blocks of that edge list, and B's share of each block is
decomposed on its own: every block, padded to one square of the most
states on either side, is scattered from its entries into one stack and
one batched SVD. The split reads only which entries are nonzero, never a
basis label or sector, so a Hamiltonian that connects every state is one
block and one dense SVD. The blocks' columns are kept as that one stack,
so no dim x dim or dim x dim/2 array is built and memory is O(dim) when
the blocks are small.

The reduction to the two qubits reads that stack directly, U's rows and
then V's: its kernels vanish between two blocks of B, so they are built in
a fixed number of batched calls. Per block of times, each column's
products with its block's cos and sin columns go, one column of every
block at a time, into one reused buffer, and each takes one matrix
product with that column's stacked kernels into every entry; no matrix of
all column pairs' products is built. Each block of times takes its cos and
sin columns from one dynamics.linspace_trig call, which sees only
frequencies and times, never a sector, so the validator stays independent
of the sector structure. On a linspace of times that is by angle addition
from about 2 sqrt(rows) libm points per column; other times go one per
block, where it takes libm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import StateSeries, linspace_step, linspace_trig
from .model import ModelParams, ThermalField

_OFF_X_TOL = 1e-8
# cells of cos, sin and the product buffer per block of times (2 MB),
# one time row at least
_CELLS = 2**18


@dataclass(frozen=True)
class HamiltonianMatrix:
    """A real symmetric H = lam H~ on the truncated qubit1 x qubit2 x Fock space,
    H~ as its nonzero entries H~[row, col] = val, each (row, col) once. Refuses
    a lam not finite and > 0, an index outside the space, a repeated pair, and
    an entry whose mirror (col, row) is missing or holds another value."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    fock_cutoff: int
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        row, col, val, dim = self.row, self.col, self.val, self.dim
        if not (row.ndim == col.ndim == val.ndim == 1 and row.size == col.size == val.size):
            raise ValueError("row, col and val must be 1-d arrays of one length")
        if not row.size:
            return
        if min(row.min(), col.min()) < 0 or max(row.max(), col.max()) >= dim:
            raise ValueError(f"an entry's index is outside the {dim} basis states")
        key, mirror = row * dim + col, col * dim + row
        order = np.argsort(key)
        key = key[order]
        if (twice := np.flatnonzero(key[1:] == key[:-1])).size:
            raise ValueError(f"entry {divmod(int(key[twice[0]]), dim)} is given twice")
        # where each entry's mirror (col, row) sits, or would sit, in key order
        at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
        bad = (key[at] != mirror) | (val[order[at]] != val)
        if bad.any():
            e = np.argmax(bad)
            raise ValueError(f"H is not symmetric: entry ({row[e]}, {col[e]}) = {val[e]!r} "
                             f"has no equal entry ({col[e]}, {row[e]})")

    @property
    def dim(self) -> int:
        return 4 * (self.fock_cutoff + 1)

    @property
    def parity(self) -> np.ndarray:
        """(s1 + n) mod 2 of each basis row, shape (4, fock_cutoff + 1):
        one row per qubit pair state {ee, eg, ge, gg}, one column per n."""
        s1 = np.array([[1], [1], [0], [0]])
        return (s1 + np.arange(self.fock_cutoff + 1)) % 2

    def eigensystem(self):
        """The spectral blocks of the parity-flipping block B of H~ = H / lam
        as one stack (rows, sigma, w), sigma in lam.

        With B = H~[even, odd] = U diag(sigma) V^T, the eigenpairs of H are
        +-sigma with vectors (u, +-v)/sqrt(2), and a null vector of B, left or
        right, is an eigenvector of H for 0 on its own. H's connected blocks,
        as _components and _blocks give them in basis states, are padded to
        S even and S odd states, S the most on either side of any block, and
        B's entries in them take one batched SVD of n square blocks. rows
        (n, 2S) are the blocks' states, even then odd, -1 where padded; w
        (n, 2S, S) holds their columns (u; v), 0 on padded rows, and sigma
        (n, S) their singular values. Padding adds only sigma = 0 pairs, and
        a pair whose other half is padded is a null vector (u; 0) or (0; v);
        where the SVD mixes them with a block's own null directions, the sums
        of their outer products are still projectors, so cos and sin of H do
        not change. Raises ValueError if H couples two states of the same
        parity, so that this form does not hold.
        """
        parity = self.parity.ravel()
        row_parity = parity[self.row]
        if (same := row_parity == parity[self.col]).any():
            e = np.argmax(same)
            raise ValueError(
                f"H couples two {('even', 'odd')[row_parity[e]]}-parity states, "
                f"entry ({self.row[e]}, {self.col[e]}); the validator needs H to "
                f"anticommute with the parity (-1)^(s1 + n)"
            )
        on_b = row_parity == 0
        b_row, b_col, b_val = self.row[on_b], self.col[on_b], self.val[on_b]
        label = _components(b_row, b_col, self.dim)
        rows, slot = _blocks(label, parity)
        n, s = rows.shape[0], rows.shape[1] // 2
        stack = np.zeros((n, s, s))
        stack[label[b_row], slot[b_row], slot[b_col]] = b_val
        u, sigma, vt = np.linalg.svd(stack)
        w = np.concatenate([u, vt.transpose(0, 2, 1)], axis=1)
        w[rows < 0] = 0
        return rows, sigma, w


def _components(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Each node's connected-block label in an n-node graph with one edge
    at each (i, j), blocks numbered 0, 1, ... in the order of their lowest
    node. Each pass hooks the larger root of every edge under the smaller
    one and jumps every pointer to its root; it stops when each edge has one
    root, so each block's root is its lowest node."""
    root = np.arange(n)
    while True:
        while not np.array_equal(up := root[root], root):   # pointers only point down
            root = up
        lo, hi = np.minimum(root[i], root[j]), np.maximum(root[i], root[j])
        if np.array_equal(lo, hi):
            return (np.cumsum(root == np.arange(n)) - 1)[root]
        np.minimum.at(root, hi, lo)


def _blocks(label: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of nodes labelled 0, 1, ... with a side 0 or 1 each, as
    rows (blocks, 2S): each block's side-0 nodes, then its side-1 nodes,
    each side ascending and padded with -1 to S, the most nodes on either
    side of any block; and slot, each node's place within its side."""
    key = 2 * label + side
    order = np.argsort(key, kind="stable")
    size = np.bincount(key, minlength=2 * label.max() + 2)
    slot = np.empty(key.size, dtype=np.intp)
    slot[order] = np.arange(key.size) - (np.cumsum(size) - size)[key[order]]
    rows = np.full((size.size, size.max()), -1)
    rows[key, slot] = np.arange(key.size)
    return rows.reshape(size.size // 2, -1), slot


def build_hamiltonians(params: ModelParams, fock_cutoff: int) -> HamiltonianMatrix:
    """Interaction Hamiltonian on the truncated space in units of lam, as
    the nonzero entries of H / lam, written by basis index; every entry is 1
    or k sqrt(n) and is written with its mirror, so H is real symmetric."""
    if fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be >= 1, got {fock_cutoff}")
    nf = fock_cutoff + 1
    n = np.arange(nf)
    # basis |q1 q2, n> at (q1, q2, n), qubit order |e>, |g>
    index = lambda q1, q2, n: np.ravel_multi_index((q1, q2, n), (2, 2, nf)).ravel()   # noqa: E731
    q1 = np.array([[0], [1]])
    terms = (
        # s1+ s2- + h.c.: |e g, n> <-> |g e, n>
        (index(0, 1, n), index(1, 0, n), np.ones(nf)),
        # k (s2+ a + h.c.): |q1 e, n - 1> <-> |q1 g, n>, either q1
        (index(q1, 0, n[:-1]), index(q1, 1, n[1:]), np.tile(params.k * np.sqrt(n[1:]), 2)),
    )
    i, j, v = (np.concatenate(x) for x in zip(*terms))
    keep = v != 0   # k = 0 couples nothing
    i, j, v = i[keep], j[keep], v[keep]
    return HamiltonianMatrix(row=np.concatenate([i, j]), col=np.concatenate([j, i]),
                             val=np.concatenate([v, v]), fock_cutoff=fock_cutoff, lam=params.lam)


def _reduce(h: HamiltonianMatrix, field: ThermalField, times: np.ndarray) -> np.ndarray:
    """The upper triangle of the two-qubit reductions, shape (times, 10),
    entries in np.triu_indices(4) order, by the formula of
    reduced_two_qubit_series at tau = h.lam times: all of B's blocks at
    once, each parity from its half of w. Entry (j, m) is its column where
    qubit 1 is in the same state in j and m, else i times its column, and
    the entries below are its conjugates. A block of times holds cos, sin
    (times, c, blocks) and one product buffer of that shape: for each column
    a, c_a c, s_a s and c_a s of every block in turn, each taking one matrix
    product with column a's kernels, so 3 c blocks cells per time row."""
    nf = h.fock_cutoff + 1
    s1 = h.parity[:, 0]   # 1 where qubit 1 is excited, per qubit pair state
    start = np.zeros((4, nf))   # thermal weight of each basis row
    start[1, : field.nmax + 1] = field.weights   # rows |e g, n>
    j, m = np.triu_indices(4)
    same = s1[j] == s1[m]
    rows, sigma, w = h.eigensystem()
    nb, _, c = w.shape
    # w is 0 on absent rows (-1), which have no slot, so they add nothing. A
    # row's slot is its Fock level (from its block's lowest) and qubit pair
    # state. Half p of w's rows (U's, then V's) has parity p; x_p is it by slot
    qubits, fock = np.divmod(rows, nf)
    fock = np.where(rows >= 0, fock - fock.min(axis=1, keepdims=True), 0)
    onto = (4 * fock + qubits)[:, None] == np.arange(4 * fock.max() + 4)[:, None]
    weight = start.ravel()[rows][..., None]
    half = (slice(None, c), slice(c, None))
    mass = [(w[:, p] * weight[:, p]).transpose(0, 2, 1) @ w[:, p] for p in half]
    x = [(onto[..., p] @ w[:, p]).reshape(nb, -1, 4 * c) for p in half]
    gram = [(x_p.transpose(0, 2, 1) @ (x[0] + x[1])).reshape(nb, 4, c, 4, c)[:, j, :, m]
            for x_p in x]   # (10, nb, c, c)
    k_a = gram[0] * mass[0] + gram[1] * mass[1]
    k_b = gram[0] * mass[1] + gram[1] * mass[0]
    # s^T K_B c = c^T K_B^T s, so three products of a block's columns serve
    # the 10 entries: cc and ss weigh K_A and K_B of the 6 entries with
    # qubit 1 the same, cs weighs K_A - K_B^T of the other 4; one kernel
    # per column a, its rows ordered (a', block) as the products with a
    k_same = np.stack([k_a[same], k_b[same]]).transpose(0, 3, 4, 2, 1).reshape(2, c, -1, 6)
    k_diff = (k_a[~same] - k_b[~same].transpose(0, 1, 3, 2)).transpose(2, 3, 1, 0).reshape(c, -1, 4)
    dt, tau = linspace_step(times), h.lam * times
    step = 1 if dt is None else max(1, _CELLS // (3 * c * nb))   # one time a block off a linspace
    upper = np.empty((times.size, j.size))
    for b in range(0, times.size, step):
        cos, sin = linspace_trig(sigma.T, tau[b], h.lam * (dt or 0.0), min(step, times.size - b))
        prod = np.empty(cos.shape)   # cos, sin: (times, c, nb)
        flat = prod.reshape(len(cos), -1)
        on_same, on_diff = np.zeros((len(cos), 6)), np.zeros((len(cos), 4))
        for a in range(c):
            for u, v, k, out in ((cos, cos, k_same[0, a], on_same),
                                 (sin, sin, k_same[1, a], on_same),
                                 (cos, sin, k_diff[a], on_diff)):
                np.multiply(u[:, a, None], v, out=prod)
                out += flat @ k
        upper[b : b + step, same], upper[b : b + step, ~same] = on_same, on_diff
    return upper


def reduced_two_qubit_series(
    h: HamiltonianMatrix, field: ThermalField, times: np.ndarray
) -> StateSeries:
    """Two-qubit reductions of U(t) rho(0) U(t)+ over a time grid, with
    rho(0) = |e1><e1| x |g2><g2| x the thermal mix.

    H = lam H~, so U(t) = exp(-i H~ tau) at tau = lam t, and every time is
    evaluated as tau. With W the columns (u; v) of h.eigensystem(),
    cos(H~ tau) = W cos(sigma tau) W^T between rows of equal parity and
    sin(H~ tau) = W sin(sigma tau) W^T between rows of opposite parity,
    column by column: a null column has sigma = 0, and cos 0 = 1, sin 0 = 0.
    With W_n the row of W at |e g, n>, M_p = sum over n of parity p of
    P_n W_n^T W_n; for qubit pair states j, m, G_p = sum over the Fock rows
    f with (j, f) of parity p of W_(j,f)^T W_(m,f). Then, with
    K_A = G_0 o M_0 + G_1 o M_1, K_B = G_0 o M_1 + G_1 o M_0, c = cos(sigma tau)
    and s = sin(sigma tau), rho_jm = c^T K_A c + s^T K_B s when qubit 1 is in
    the same state in j and m, else i (c^T K_A s - s^T K_B c). The 10
    entries on and above the diagonal are computed, the others being their
    conjugates; any of the five outside the X pattern above 1e-8 at any time
    is an error.

    M_p, and so K_A and K_B, vanish between two of B's blocks, whose columns
    share no row, so the kernels are taken block by block, every block in
    eigensystem's one stack, parity 0 from U's rows and 1 from V's. With
    s^T K_B c = c^T K_B^T s, the products c_a c_a', s_a s_a' and c_a s_a' of
    a block's columns times the stacked kernels give every entry. They are
    formed for one column a of every block at a time, against all of its
    block's columns, in blocks of times whose c, s and one product buffer
    hold at most _CELLS cells (one time row at least); no times give an
    empty series. Each block of times takes c and s from one linspace_trig
    call: on a linspace of times t (lam t need not be one) at step lam dt,
    by angle addition, per block and never for the whole grid; other times
    go one per block, where it takes libm.
    """
    if h.fock_cutoff < field.nmax + 2:
        raise ValueError(
            f"fock_cutoff {h.fock_cutoff} leaves no headroom above "
            f"the thermal truncation nmax={field.nmax}; need nmax + 2"
        )
    upper = _reduce(h, field, np.atleast_1d(np.asarray(times, dtype=float)))
    # by np.triu_indices(4): the diagonal is columns 0, 4, 7 and 9, rho23 is i
    # times column 5 (qubit 1 differs in eg and ge), and the other five are off-X
    series = StateSeries(
        rho11=upper[:, 0],
        rho22=upper[:, 4],
        rho33=upper[:, 7],
        rho44=upper[:, 9],
        rho23=1j * upper[:, 5],
    )
    off_x = np.abs(upper[:, [1, 2, 3, 6, 8]]).max(initial=0.0)
    if off_x > _OFF_X_TOL:
        raise ValueError(f"off-X element {off_x} in reduced state")
    return series
