import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (dense, dense_entries, dense_h1, dense_w, hamiltonian_from_dense,
                      sector_basis_indices)
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from esdsim import (ModelParams, SectorTable, build_thermal, sector_frequencies,
                    two_qubit_states)
from esdsim import oracle
from esdsim.oracle import HamiltonianMatrix, build_hamiltonians, reduced_two_qubit_series


def expm_reference(h, field, times):
    """Field-traced states from expm(-i h1 t) on the weighted |e g, n> start
    columns, shape (times, 4, 4); no eigendecomposition."""
    nf = h.fock_cutoff + 1
    start = nf + np.arange(field.nmax + 1)
    out = []
    for t in times:
        psi = expm(-1j * t * dense_h1(h))[:, start]
        rho = (psi * field.weights) @ psi.conj().T
        out.append(np.trace(rho.reshape(4, nf, 4, nf), axis1=1, axis2=3))
    return np.array(out)


def kron_hamiltonian(params, fock_cutoff):
    """h1 from truncated ladder and Pauli matrices by Kronecker products."""
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])   # |e><g|
    sm, i2 = sp.T, np.eye(2)
    nf = fock_cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, nf)), 1)
    idf = np.eye(nf)
    return params.lam * (
        np.kron(np.kron(sp, sm), idf) + np.kron(np.kron(sm, sp), idf)
    ) + params.k * params.lam * (np.kron(np.kron(i2, sp), a) + np.kron(np.kron(i2, sm), a.T))


def qubit1_populations(series):
    """(rho_ee, rho_gg) of qubit 1 from the two-qubit series."""
    return series.rho11 + series.rho22, series.rho33 + series.rho44


def free_hamiltonian(fock_cutoff, omega=100.0):
    """H0 = omega (sz1/2 + sz2/2 + a+a) on the truncated space, from krons."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    i2 = np.eye(2, dtype=complex)
    idf = np.eye(fock_cutoff + 1, dtype=complex)
    number = np.diag(np.arange(fock_cutoff + 1)).astype(complex)
    return omega * (
        0.5 * np.kron(np.kron(sz, i2), idf)
        + 0.5 * np.kron(np.kron(i2, sz), idf)
        + np.kron(np.kron(i2, i2), number)
    )


def planted_hamiltonian(rng, shapes, fock_cutoff):
    """A Jordan-Wielandt h1 whose parity-flipping block B holds random blocks
    of the given shapes on its diagonal, then a 2x2 rotation block, as
    plant lays them out; returns (h, B)."""
    blocks = [rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 2.0, shape) for shape in shapes]
    # a 2x2 rotation block has one doubly degenerate singular value
    angle = rng.uniform(0, np.pi / 2)
    blocks.append(1.5 * np.array([[np.cos(angle), -np.sin(angle)],
                                  [np.sin(angle), np.cos(angle)]]))
    return plant(rng, blocks, fock_cutoff)


def plant(rng, blocks, fock_cutoff):
    """A Jordan-Wielandt h1 whose parity-flipping block B holds the given
    blocks on its diagonal, empty rows and columns filling it out, with its
    rows and columns then permuted at random; returns (h, B)."""
    m = 2 * (fock_cutoff + 1)
    b = np.zeros((m, m))
    r = c = 0
    for block in blocks:
        rows, cols = block.shape
        b[r : r + rows, c : c + cols] = block
        r, c = r + rows, c + cols
    b = b[rng.permutation(m)][:, rng.permutation(m)]
    h1 = np.zeros((2 * m, 2 * m))
    even = hamiltonian_from_dense(h1, fock_cutoff).parity.ravel() == 0
    h1[np.ix_(even, ~even)], h1[np.ix_(~even, even)] = b, b.T
    return hamiltonian_from_dense(h1, fock_cutoff), b


def reduce4(h, field, times):
    """oracle._reduce's upper triangle as all 16 entries, shape (times, 4, 4)."""
    upper = oracle._reduce(h, field, np.asarray(times, dtype=float))
    j, m = np.triu_indices(4)
    s1 = h.parity[:, 0]   # 1 where qubit 1 is excited
    rho = np.empty((len(upper), 4, 4), dtype=complex)
    rho[:, j, m] = np.where(s1[j] == s1[m], upper, 1j * upper)
    rho[:, m, j] = rho[:, j, m].conj()
    return rho


def dense_reduce(h, field, times):
    """All 16 entries, shape (times, 4, 4), from dense kernels
    K_A = G_0 o M_0 + G_1 o M_1 and K_B = G_0 o M_1 + G_1 o M_0 over all of
    dense_w's columns, one pair per entry, with no block structure."""
    sigma, w = dense_w(h)
    parity, rows = h.parity, w.reshape(4, h.fock_cutoff + 1, -1)
    start, start_parity = rows[1, : field.nmax + 1], parity[1, : field.nmax + 1]
    mass = [(start[sel].T * field.weights[sel]) @ start[sel] for sel in (start_parity == 0, start_parity == 1)]
    tau = h.lam * np.asarray(times)
    c, s = np.cos(np.outer(tau, sigma)), np.sin(np.outer(tau, sigma))
    quad = lambda u, k, v: ((u @ k) * v).sum(axis=1)   # noqa: E731
    rho = np.empty((len(times), 4, 4), dtype=complex)
    for j in range(4):
        for m in range(4):
            g0, g1 = (rows[j][sel].T @ rows[m][sel] for sel in (parity[j] == 0, parity[j] == 1))
            k_a, k_b = g0 * mass[0] + g1 * mass[1], g0 * mass[1] + g1 * mass[0]
            if parity[j, 0] == parity[m, 0]:
                rho[:, j, m] = quad(c, k_a, c) + quad(s, k_b, s)
            else:
                rho[:, j, m] = 1j * (quad(c, k_a, s) - quad(s, k_b, c))
    return rho


def driven_hamiltonian(params, h):
    """h plus a transverse drive on qubit 1: it keeps the parity but not the
    excitation number, so B is one connected block and rho leaves the X form."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    drive = np.kron(np.kron(sx, np.eye(2)), np.eye(h.fock_cutoff + 1))
    return hamiltonian_from_dense(dense_h1(h) + 0.3 * params.lam * drive, h.fock_cutoff)


def bipartite_blocks(i, j, shape):
    """The connected blocks of a shape[0] x shape[1] pattern with an entry at
    each (i, j), through the validator's own split of a graph whose nodes are
    the rows and then the columns: (rows, cols), each (blocks, S), every
    block's rows or columns ascending, then -1 for each it lacks."""
    label = oracle._components(i, j + shape[0], sum(shape))
    rows, _ = oracle._blocks(label, np.arange(sum(shape)) >= shape[0])
    s = rows.shape[1] // 2
    return rows[:, :s], np.where(rows[:, s:] < 0, -1, rows[:, s:] - shape[0])


def block_shapes(b):
    """{(rows, cols): count} of the connected blocks the validator finds in
    b, absent (-1) rows and columns not counted."""
    rows, cols = bipartite_blocks(*np.nonzero(b), b.shape)
    return dict(Counter(zip((rows >= 0).sum(axis=1).tolist(), (cols >= 0).sum(axis=1).tolist())))


def assert_jordan_wielandt(h):
    """sigma and W over dense_w(h)'s nonzero columns diagonalise H / h.lam: a
    singular-pair column (u; v) gives the eigenvectors (u, +-v)/sqrt(2) for
    +-sigma, a null column (u; 0) or (0; v) one eigenvector for 0. A column
    on a block's padded rows alone is 0, with sigma 0; returns the others.
    It needs each null vector of B in one column, as the SVD gives them when
    every block has full rank."""
    sigma, w = dense_w(h)
    assert w.shape == (h.dim, sigma.size) and (sigma >= 0).all()
    live = w.any(axis=0)
    assert (sigma[~live] == 0).all()
    sigma, w = sigma[live], w[:, live]
    even = h.parity.ravel() == 0
    paired = (w[even] != 0).any(axis=0) & (w[~even] != 0).any(axis=0)
    assert 2 * paired.sum() + (~paired).sum() == h.dim   # every eigenvector once
    h1 = dense_entries(h)
    scale = np.abs(h1).max()
    assert np.abs(h1 @ w - w * sigma).max() < 1e-12 * scale
    # W^T W is 2 on singular-pair columns and 1 on null columns
    assert np.abs(w.T @ w - np.diag(np.where(paired, 2.0, 1.0))).max() < 1e-12
    flip = np.where(even, 1.0, -1.0)[:, None]
    assert np.abs(h1 @ (flip * w) + flip * w * sigma).max() < 1e-12 * scale
    return sigma, w


@pytest.fixture(scope="module")
def weak_setup():
    params = ModelParams(lam=10.0, k=0.1)
    field = build_thermal(1.0, 1e-10)
    h = build_hamiltonians(params, field.nmax + 2)
    return params, field, h


class TestHamiltonian:
    def test_hermitian(self, weak_setup):
        _, _, h = weak_setup
        h1 = dense_h1(h)
        assert h1.dtype == np.float64
        assert np.abs(h1 - h1.T).max() == 0.0
        h0 = free_hamiltonian(h.fock_cutoff)
        assert np.abs(h0 - h0.conj().T).max() == 0.0

    @pytest.mark.parametrize("lam,g,cutoff", [
        (10.0, 1.0, 1), (10.0, 0.0, 2), (0.3, 7.5, 5), (1e-3, 2.0**-30, 40), (123.456, 0.1, 73),
    ])
    def test_matches_kron_formula(self, lam, g, cutoff):
        # H is held in units of lam: its entries are the kron formula at lam = 1
        h = build_hamiltonians(ModelParams(lam=lam, k=g / lam), cutoff)
        want = kron_hamiltonian(ModelParams(lam=1.0, k=g / lam), cutoff)
        assert h.lam == lam
        h1 = dense_entries(h)
        assert h1.dtype == want.dtype and h1.shape == want.shape
        assert (h1 == want).all()

    def test_eigensystem_is_jordan_wielandt(self, weak_setup):
        _, _, h = weak_setup
        assert_jordan_wielandt(h)

    def test_decoupled_block_structure(self):
        p = ModelParams(lam=10.0, k=0.0)
        h = build_hamiltonians(p, 2)
        nf = 3
        # with g=0 every entry coupling different Fock levels vanishes
        h4 = dense_h1(h).reshape(4, nf, 4, nf)
        for f1 in range(nf):
            for f2 in range(nf):
                if f1 != f2:
                    assert np.abs(h4[:, f1, :, f2]).max() == 0.0
        exchange = p.lam * np.array(
            [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=complex
        )
        assert np.allclose(h4[:, 0, :, 0], exchange)

    def test_commutes_with_h0_interior(self, weak_setup):
        _, _, h = weak_setup
        h0 = free_hamiltonian(h.fock_cutoff)
        h1 = dense_h1(h)
        comm = h0 @ h1 - h1 @ h0
        # boundary sectors feel the Fock truncation; exclude them
        nf = h.fock_cutoff + 1
        comm4 = comm.reshape(4, nf, 4, nf)[:, : nf - 1, :, : nf - 1]
        assert np.abs(comm4).max() < 1e-10

    def test_sector_spectrum(self):
        p = ModelParams(lam=10.0, k=0.1)
        h = build_hamiltonians(p, 25)
        h1 = dense_h1(h)
        for n in range(0, 21):
            idx = sector_basis_indices(n, h.fock_cutoff)
            block = h1[np.ix_(idx, idx)]
            ev = np.sort(np.linalg.eigvalsh(block))
            f = sector_frequencies(p.k, n)
            wp, wm = p.lam * f.omega_plus, p.lam * f.omega_minus
            if n == 0:
                expected = np.sort([-wp, 0.0, wp])
            else:
                expected = np.sort([-wp, -wm, wm, wp])
            assert np.abs(ev - expected).max() < 1e-10

    def test_cutoff_check(self, weak_setup):
        params, field, _ = weak_setup
        h_small = build_hamiltonians(params, field.nmax)
        with pytest.raises(ValueError, match="headroom"):
            reduced_two_qubit_series(h_small, field, [0.1])

    def test_off_x_detected(self, weak_setup):
        params, field, h = weak_setup
        # a transverse drive on qubit 1 breaks excitation conservation but
        # flips the parity, so it passes the parity check and shows as off-X
        driven = driven_hamiltonian(params, h)
        with pytest.raises(ValueError, match="off-X"):
            reduced_two_qubit_series(driven, field, np.linspace(0, 2, 9))

    @pytest.mark.parametrize("op", [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
                             ids=["detuning", "drive"])
    def test_parity_breaking_refused(self, weak_setup, op):
        params, field, h = weak_setup
        # sigma_z or sigma_x on qubit 2 keeps s1 and n, so it couples states
        # of the same parity
        extra = np.kron(np.kron(np.eye(2), op), np.eye(h.fock_cutoff + 1))
        broken = hamiltonian_from_dense(dense_h1(h) + 0.3 * params.lam * extra, h.fock_cutoff)
        with pytest.raises(ValueError, match="parity"):
            reduced_two_qubit_series(broken, field, np.linspace(0, 2, 9))

    @pytest.mark.parametrize("name,p", [("even", 0), ("odd", 1)])
    def test_parity_check_is_exact_and_named(self, weak_setup, name, p):
        _, field, h = weak_setup
        a, b = np.flatnonzero(h.parity.ravel() == p)[[0, -1]]
        h1 = dense_h1(h)
        h1[a, b] = h1[b, a] = 1e-300
        broken = hamiltonian_from_dense(h1, h.fock_cutoff)
        with pytest.raises(ValueError, match=rf"two {name}-parity states, entry \({a}, {b}\)"):
            reduced_two_qubit_series(broken, field, [0.1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_asymmetric_refused(self, seed):
        # the validator reads only B = H[even, odd] and takes H[odd, even]
        # to be B^T, so one lower entry off by one ulp must be refused
        h, _ = planted_hamiltonian(np.random.default_rng(seed), TestBlockSplit.SHAPES, 7)
        h1 = dense_h1(h)
        i, j = np.argwhere(np.tril(h1))[seed]
        h1[i, j] = np.nextafter(h1[i, j], np.inf)
        with pytest.raises(ValueError, match=rf"not symmetric: entry \(({i}, {j}|{j}, {i})\)"):
            hamiltonian_from_dense(h1, h.fock_cutoff)

    @pytest.mark.parametrize("change,message", [
        (lambda r, c, v: (r[1:], c[1:], v[1:]), "not symmetric"),
        (lambda r, c, v: (np.append(r, r[0]), np.append(c, c[0]), np.append(v, v[0])), "given twice"),
        (lambda r, c, v: (np.append(r, [8, 0]), np.append(c, [0, 8]), np.append(v, [1.0, 1.0])), "outside"),
        (lambda r, c, v: (np.append(r, [-1, 0]), np.append(c, [0, -1]), np.append(v, [1.0, 1.0])), "outside"),
        (lambda r, c, v: (r, c, v[:-1]), "one length"),
    ], ids=["no-mirror", "repeated", "past-the-end", "negative", "lengths"])
    def test_malformed_entries_refused(self, change, message):
        h = build_hamiltonians(ModelParams(lam=1.0, k=1.0), 1)
        assert h.dim == 8
        row, col, val = change(h.row, h.col, h.val)
        with pytest.raises(ValueError, match=message):
            HamiltonianMatrix(row=row, col=col, val=val, fock_cutoff=1, lam=h.lam)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_bad_unit_refused(self, lam):
        h = build_hamiltonians(ModelParams(lam=1.0, k=1.0), 1)
        with pytest.raises(ValueError, match="lam must be finite and > 0"):
            HamiltonianMatrix(row=h.row, col=h.col, val=h.val, fock_cutoff=1, lam=lam)

    @pytest.mark.parametrize("g", [0.0, 1.0])
    def test_entries_are_the_nonzeros(self, g):
        # lam: 2 entries per Fock level; g: 2 per q1 and step n - 1 -> n;
        # g = 0 adds none, so its H is the lam exchange alone
        h = build_hamiltonians(ModelParams(lam=10.0, k=g / 10.0), 5)
        assert h.row.size == 2 * 6 + (2 * 2 * 5 if g else 0)
        assert (h.val != 0).all() and h.row.size == np.count_nonzero(dense_h1(h))


class TestBlockSplit:
    # with the 2x2 rotation block, 14 of B's 16 rows and 15 of its columns
    # are planted, so 2 rows and 1 column are empty
    SHAPES = [(3, 3), (2, 2), (2, 2), (1, 2), (1, 2), (2, 1), (1, 1)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_blocks_are_found(self, seed):
        _, b = planted_hamiltonian(np.random.default_rng(seed), self.SHAPES, 7)
        assert block_shapes(b) == {
            (3, 3): 1, (2, 2): 3, (1, 2): 2, (2, 1): 1, (1, 1): 1, (1, 0): 2, (0, 1): 1}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_blocks_give_the_jordan_wielandt_form(self, seed):
        h, b = planted_hamiltonian(np.random.default_rng(seed), self.SHAPES, 7)
        sigma, _ = assert_jordan_wielandt(h)
        # left null vectors: 2 empty rows and one of the (2, 1) block; right
        # ones: 1 empty column and one of each (1, 2) block; B's 3 zero
        # singular values are these 6 null columns, the other 13 its pairs
        null = sigma == 0
        assert null.sum() == 6
        want = np.sort(np.linalg.svd(b, compute_uv=False))
        assert want[:3].max() < 1e-14
        assert np.abs(np.sort(sigma[~null]) - want[3:]).max() < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_blocks_give_cos_and_sin(self, seed):
        h, _ = planted_hamiltonian(np.random.default_rng(seed), self.SHAPES, 7)
        sigma, w = dense_w(h)
        same = h.parity.ravel()[:, None] == h.parity.ravel()[None, :]
        for t in (0.0, 0.37, 1.9, 13.0):
            u = expm(-1j * t * dense_h1(h))   # cos(Ht) - i sin(Ht), h1 real symmetric
            cos = np.where(same, (w * np.cos(sigma * t)) @ w.T, 0.0)
            sin = np.where(same, 0.0, (w * np.sin(sigma * t)) @ w.T)
            assert np.abs(cos - u.real).max() <= 1e-12
            assert np.abs(sin + u.imag).max() <= 1e-12

    def test_components_and_blocks_label_a_random_graph(self):
        # 80 nodes, 50 random edges (some loops), a random side each
        rng = np.random.default_rng(3)
        n = 80
        i, j = rng.integers(0, n, (2, 50))
        side = rng.integers(0, 2, n)
        label = oracle._components(i, j, n)
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[i, j] = True
        count, ref = connected_components(adjacency, directed=False)
        lowest = np.array([np.flatnonzero(ref == b).min() for b in range(count)])
        # the reference's blocks, numbered by their lowest node
        assert np.array_equal(label, np.argsort(np.argsort(lowest))[ref])
        assert np.array_equal(np.unique(label, return_index=True)[1], np.sort(lowest))
        rows, slot = oracle._blocks(label, side)
        s = rows.shape[1] // 2
        assert rows.shape == (count, 2 * s)
        assert np.array_equal(rows[label, side * s + slot], np.arange(n))
        assert (rows >= 0).sum() == n
        for half in rows.reshape(-1, s):
            x = half[half >= 0]
            assert np.array_equal(half, np.r_[x, np.full(s - x.size, -1)])
            assert (np.diff(x) > 0).all()
        assert s == np.bincount(2 * label + side).max()

    def test_driven_hamiltonian_is_one_block(self, weak_setup):
        params, field, h = weak_setup
        # the qubit-1 drive of test_off_x_detected connects every state
        driven = driven_hamiltonian(params, h)
        even = driven.parity.ravel() == 0
        assert block_shapes(dense_h1(driven)[np.ix_(even, ~even)]) == {(h.dim // 2, h.dim // 2): 1}
        assert_jordan_wielandt(driven)
        with pytest.raises(ValueError, match="off-X"):
            reduced_two_qubit_series(driven, field, np.linspace(0, 2, 9))

    def test_uncoupled_field_matches_analytic_engine(self):
        # k = 0: only |e g, n> <-> |g e, n> is coupled, so every |e e, n> and
        # |g g, n> is isolated and half the singular values are 0
        params, field = ModelParams(lam=10.0, k=0.0), build_thermal(3.0)
        h = build_hamiltonians(params, field.nmax + 2)
        even = h.parity.ravel() == 0
        shapes = block_shapes(dense_h1(h)[np.ix_(even, ~even)])
        assert set(shapes) == {(1, 1), (1, 0), (0, 1)} and shapes[1, 1] == h.fock_cutoff + 1
        assert_jordan_wielandt(h)
        times = np.linspace(0.0, 2.0, 200)
        s_or = reduced_two_qubit_series(h, field, times)
        s_an = two_qubit_states(params, field, times)
        assert np.abs(dense(s_or) - dense(s_an)).max() <= 1e-13


class TestBlockKernels:
    """The block-by-block reduction against dense_reduce, on all 16 entries."""

    @pytest.mark.parametrize("k", [0.3, 1e-6, 0.0])
    def test_model_matches_dense_kernels(self, k):
        # k = 0 leaves most states isolated: empty rows and columns of B
        params, field = ModelParams(lam=10.0, k=k), build_thermal(3.0)
        h = build_hamiltonians(params, field.nmax + 2)
        times = np.linspace(0.0, 13.0, 12)
        assert np.abs(reduce4(h, field, times) - dense_reduce(h, field, times)).max() <= 1e-13

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_null_columns_stand_alone(self, seed):
        # a null vector is an eigenvector of H on its own, so no column pairs
        # two blocks of B: one stack entry per block, 6 nonzero null columns
        h, b = planted_hamiltonian(np.random.default_rng(seed), TestBlockSplit.SHAPES, 7)
        rows, sigma, w = h.eigensystem()
        assert len(rows) == sum(block_shapes(b).values())
        assert (sigma[w.any(axis=1)] == 0).sum() == 6
        field = build_thermal(1.0, 1e-2)
        assert field.nmax < h.fock_cutoff
        times = np.linspace(0.0, 13.0, 40)
        assert np.abs(reduce4(h, field, times) - dense_reduce(h, field, times)).max() <= 1e-13

    @pytest.mark.parametrize("case", ["k=0.3", "k=1e-6", "k=0", "seed=0", "seed=1", "seed=2"])
    def test_column_blocks_are_ws_own(self, case):
        # eigensystem's stack holds H's connected blocks in basis states, in
        # the order of each block's lowest state: its even states, then its
        # odd ones, each side ascending and padded with -1 (and zero W rows)
        # to S, the most on either side of any block. Every block here has
        # full rank: its p = min(r, c) singular pairs are two-sided columns,
        # its |r - c| null vectors one-sided ones with sigma = 0, and its
        # padding only all-zero columns. The blocks are the connected blocks
        # of the dense W's own pattern
        name, value = case.split("=")
        if name == "k":
            field = build_thermal(3.0)
            h = build_hamiltonians(ModelParams(lam=10.0, k=float(value)), field.nmax + 2)
        else:
            h, _ = planted_hamiltonian(np.random.default_rng(int(value)), TestBlockSplit.SHAPES, 7)
        parity = h.parity.ravel()
        rows, sigma, w = h.eigensystem()
        n, s = len(rows), rows.shape[1] // 2
        _, label = connected_components(dense_entries(h) != 0, directed=False)
        states = sorted((np.flatnonzero(label == b) for b in np.unique(label)), key=min)
        sides = [[x[parity[x] == p] for p in (0, 1)] for x in states]
        assert s == max(len(x) for side in sides for x in side)
        want = np.full((len(states), 2, s), -1)
        for block, side in zip(want, sides):
            for at, x in zip(block, side):
                at[: len(x)] = x
        assert np.array_equal(rows, want.reshape(len(states), 2 * s))
        assert sigma.shape == (n, s) and w.shape == (n, 2 * s, s)
        assert (w[rows < 0] == 0).all()
        r, c = (rows[:, :s] >= 0).sum(axis=1), (rows[:, s:] >= 0).sum(axis=1)
        on_u, on_v = w[:, :s].any(axis=1), w[:, s:].any(axis=1)
        assert np.array_equal((on_u & on_v).sum(axis=1), np.minimum(r, c))
        assert (sigma[on_u & on_v] > 0).all() and (sigma[~(on_u & on_v)] == 0).all()
        assert np.array_equal((on_u ^ on_v).sum(axis=1), np.abs(r - c))
        cols = np.arange(sigma.size).reshape(sigma.shape)
        got = {(tuple(np.sort(i[i >= 0])), tuple(j[live]))
               for i, j, live in zip(rows, cols, on_u | on_v)}
        _, dense = dense_w(h)
        live = np.flatnonzero(dense.any(axis=0))
        w_rows, w_cols = bipartite_blocks(*np.nonzero(dense[:, live]), (h.dim, live.size))
        assert got == {(tuple(i[i >= 0]), tuple(live[j[j >= 0]])) for i, j in zip(w_rows, w_cols)}

    def test_rank_deficient_blocks(self):
        # S = 3, from the full 3 x 3 block. A rank-1 block's null directions
        # share sigma = 0 with its padding, and the SVD may mix them; the sum
        # over the sigma = 0 columns is a projector whatever basis it picks,
        # so cos and sin of H, and the reduction, do not change
        rng = np.random.default_rng(7)
        first = rng.uniform(0.5, 2.0, 3)
        blocks = [np.outer([1.0, 0.7], first), rng.uniform(0.5, 2.0, (2, 1)),
                  np.outer(rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 3)),
                  rng.uniform(0.5, 2.0, (3, 3))]
        h, b = plant(rng, blocks, 7)
        assert block_shapes(b) == {(2, 3): 2, (2, 1): 1, (3, 3): 1, (1, 0): 7, (0, 1): 6}
        assert h.eigensystem()[2].shape[1:] == (6, 3)
        field = build_thermal(1.0, 1e-2)
        assert field.nmax < h.fock_cutoff
        times = np.linspace(0.0, 13.0, 40)
        rho = reduce4(h, field, times)
        assert np.abs(rho - expm_reference(h, field, times)).max() <= 1e-12
        assert np.abs(rho - dense_reduce(h, field, times)).max() <= 1e-13

    def test_connected_matches_dense_kernels(self, weak_setup):
        params, field, h = weak_setup
        driven = driven_hamiltonian(params, h)
        times = np.linspace(0.0, 2.0, 9)
        rho = reduce4(driven, field, times)
        assert np.abs(rho - dense_reduce(driven, field, times)).max() <= 1e-13
        assert np.abs(rho[:, 0, 2]).max() > 1e-3   # off-X, and it agrees too

    def test_time_blocks(self, weak_setup):
        params, field, h = weak_setup
        driven = driven_hamiltonian(params, h)
        _, sigma, _ = driven.eigensystem()
        assert sigma.shape == (1, h.dim // 2)
        # one block of dim/2 columns: cos, sin and one product buffer, each
        # dim/2 cells per time row; the grid crosses into a second block of
        # times, and every 32nd time and both sides of the seam are checked
        rows = oracle._CELLS // (3 * sigma.size)
        assert rows > 1
        times = np.linspace(0.0, 2.0, rows + 1)
        rho = reduce4(driven, field, times)
        at = np.r_[0:rows:32, rows - 1, rows]
        one_by_one = np.concatenate([reduce4(driven, field, times[i : i + 1]) for i in at])
        assert np.abs(rho[at] - one_by_one).max() <= 1e-14
        at = [0, rows // 2, rows]
        assert np.abs(rho[at] - expm_reference(driven, field, times[at])).max() <= 1e-12

    @pytest.mark.parametrize("case", ["driven", "k=0.3"])
    def test_linspace_matches_one_time_at_a_time(self, case, weak_setup):
        # a linspace takes cos and sin by angle addition per block of times,
        # one time alone takes libm; the driven H is one dim/2-wide block
        params, field, h = weak_setup
        if case == "driven":
            h = driven_hamiltonian(params, h)
        else:
            field = build_thermal(3.0)
            h = build_hamiltonians(ModelParams(lam=10.0, k=0.3), field.nmax + 2)
        times = np.linspace(-1.0, 4.0, 120)
        rho = reduce4(h, field, times)
        one_by_one = np.concatenate([reduce4(h, field, times[i : i + 1])
                                     for i in range(times.size)])
        sigma = h.eigensystem()[1].max()
        bound = 4 * np.spacing(sigma * np.abs(h.lam * times).max()) + 8 * np.spacing(1.0)
        assert np.abs(rho - one_by_one).max() <= bound

    def test_other_times_go_one_at_a_time(self, weak_setup):
        # times that are no linspace go one per block of times, so each is
        # bit for bit its own single-time call
        _, field, h = weak_setup
        times = np.array([0.3, 1.1, 0.05, 2.0])
        one_by_one = np.concatenate([reduce4(h, field, times[i : i + 1]) for i in range(4)])
        assert np.array_equal(reduce4(h, field, times), one_by_one)


class TestOneStack:
    """H's blocks as one square stack, padded to the widest side, and one pass
    over it."""

    @pytest.mark.parametrize("k", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("nbar", [0.0, 3.0, 10.0])
    def test_eigensystem_is_one_stack(self, k, nbar):
        # the widest block is a sector's 2 x 2 for k > 0, the 1 x 1 exchange at k = 0
        field = build_thermal(nbar)
        h = build_hamiltonians(ModelParams(lam=10.0, k=k), field.nmax + 2)
        triple = h.eigensystem()
        assert isinstance(triple, tuple) and len(triple) == 3
        rows, sigma, w = triple
        assert w.shape == ((len(rows), 4, 2) if k else (len(rows), 2, 1))
        assert rows.shape == w.shape[:2] and sigma.shape == w.shape[::2]
        assert np.array_equal(np.sort(rows[rows >= 0]), np.arange(h.dim))
        assert (rows < 0).any() and (w[rows < 0] == 0).all()

    def test_one_trig_call(self, monkeypatch):
        # 100 times of nbar = 6's blocks fit one block of times: one call, not one per shape
        calls, real = [], oracle.linspace_trig

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "linspace_trig", counting)
        field = build_thermal(6.0)
        h = build_hamiltonians(ModelParams(lam=10.0, k=0.3), field.nmax + 2)
        reduced_two_qubit_series(h, field, np.linspace(0, 2, 100))
        assert len(calls) == 1


def traced_peak(nbar, steps):
    """(h, traced peak bytes) of building H and reducing it over `steps`
    times, k = 0.5."""
    params, field = ModelParams(lam=10.0, k=0.5), build_thermal(nbar)
    times = np.linspace(0.0, 2.0, steps)
    tracemalloc.start()
    try:
        h = build_hamiltonians(params, field.nmax + 2)
        reduced_two_qubit_series(h, field, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return h, peak


def test_memory_below_one_dense_hamiltonian():
    # nbar = 20 (dim 1,896): H is O(dim) entries and its spectrum per-block
    # stacks, so building and reducing it peaks below the dim^2 doubles of
    # one dense H
    h, peak = traced_peak(20.0, 200)
    assert h.dim == 1896
    assert h.row.size <= 4 * h.dim
    assert peak < h.dim**2 * 8


def test_memory_below_a_tenth_of_one_dense_w():
    # nbar = 100 (dim 9,268): no dim x dim/2 W is built, so building and
    # reducing H peaks below a tenth of one (32.8 MB)
    h, peak = traced_peak(100.0, 200)
    assert h.dim == 9268
    assert peak < h.dim * (h.dim // 2) * 8 / 10


def test_trig_is_taken_per_block_of_times():
    # nbar = 20 (dim 1,896) over 2,000 times: cos and sin of sigma t are
    # taken per block of times, so the peak stays below one whole-grid table
    # of cos alone, 2,000 x dim/2 doubles (15.2 MB)
    h, peak = traced_peak(20.0, 2000)
    assert peak < 2000 * (h.dim // 2) * 8


def test_reduction_holds_no_pair_products():
    # k = .45, nbar = 10 (dim 976, 246 blocks of 2 columns) over 100 times:
    # one block of times holds cos, sin and one product buffer of a column
    # against its block's columns (2.09 MiB traced), where the (times, 3,
    # c, c, blocks) matrix of every column pair's products peaked at 3.72 MiB
    field = build_thermal(10.0)
    h = build_hamiltonians(ModelParams(lam=10.0, k=0.45), field.nmax + 2)
    assert h.dim == 976
    times = np.linspace(0.0, 2.0, 100)
    tracemalloc.start()
    try:
        reduced_two_qubit_series(h, field, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 2**20


def test_off_x_check_builds_no_dense_stacks():
    # the off-X check reads the five off-X columns of the (times, 10) upper
    # triangle: no (times, 4, 4) complex stack (256 B a time each) is built
    (_, small), (_, large) = traced_peak(1.0, 20_000), traced_peak(1.0, 60_000)
    assert (large - small) / 40_000 <= 250


class TestEvolve:
    def test_t0_returns_initial_state(self, weak_setup):
        _, field, h = weak_setup
        s = reduced_two_qubit_series(h, field, [0.0])
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = field.weights.sum()
        assert np.abs(dense(s)[0] - expected).max() < 1e-14

    def test_state_invariants(self, weak_setup):
        _, field, h = weak_setup
        rho = dense(reduced_two_qubit_series(h, field, [1.3]))[0]
        assert np.trace(rho).real == pytest.approx(1.0, abs=field.epsilon)
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_empty_times(self, weak_setup):
        # no times is an empty series, as the engine gives: the off-X
        # maximum over no rows is 0
        params, field, h = weak_setup
        s = reduced_two_qubit_series(h, field, np.array([]))
        engine = SectorTable(params, field).series(np.array([]))
        for name in ("rho11", "rho22", "rho33", "rho44", "rho23"):
            assert getattr(s, name).shape == getattr(engine, name).shape == (0,)
        assert s.rho23.dtype == complex


class TestPartialTraces:
    def test_t0_reduction(self, weak_setup):
        _, field, h = weak_setup
        s = reduced_two_qubit_series(h, field, [0.0])
        assert s.rho22[0] == pytest.approx(1.0, abs=1e-10)
        rho_ee, _ = qubit1_populations(s)
        assert rho_ee[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_analytic_engine(self, weak_setup):
        params, field, h = weak_setup
        times = [0.5, 2.0, 5.0]
        s_or = reduced_two_qubit_series(h, field, times)
        s_an = two_qubit_states(params, field, times)
        assert np.abs(dense(s_or) - dense(s_an)).max() < 1e-8
        for got, want in zip(qubit1_populations(s_or), qubit1_populations(s_an)):
            assert np.abs(got - want).max() < 1e-8

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("nbar", [1.0, 10.0])
    def test_analytic_engine_reduces_the_same_truncated_state(self, k, nbar):
        # criterion 1's grid: both routes start from the thermal mix cut at
        # nmax, so they differ by rounding only, not by a truncation tail
        params, field = ModelParams(lam=10.0, k=k), build_thermal(nbar)
        h = build_hamiltonians(params, field.nmax + 2)
        times = np.linspace(0.0, 2.0, 200)
        s_or = reduced_two_qubit_series(h, field, times)
        s_an = two_qubit_states(params, field, times)
        assert np.abs(dense(s_or) - dense(s_an)).max() <= 1e-13

    def test_decoupled_half_swap(self):
        p = ModelParams(lam=10.0, k=0.0)
        field = build_thermal(0.0)
        h = build_hamiltonians(p, 2)
        s = reduced_two_qubit_series(h, field, [np.pi / (4 * p.lam)])
        rho_ee, rho_gg = qubit1_populations(s)
        assert rho_ee[0] == pytest.approx(0.5, abs=1e-12)
        assert rho_gg[0] == pytest.approx(0.5, abs=1e-12)

    def test_series_matches_dense_route(self, weak_setup):
        _, field, h = weak_setup
        times = np.linspace(0, 2, 9)
        series = reduced_two_qubit_series(h, field, times)
        assert np.abs(dense(series) - expm_reference(h, field, times)).max() < 1e-12

    @pytest.mark.parametrize("k,nbar", [(1e-6, 3.0), (0.3, 3.0)])
    def test_series_matches_expm(self, k, nbar):
        # k = 1e-6 makes the singular values nearly degenerate (all close to
        # lam); nbar = 3 starts from many kets |e g, n> of both parities
        params = ModelParams(lam=10.0, k=k)
        field = build_thermal(nbar, 1e-10)
        h = build_hamiltonians(params, field.nmax + 2)
        times = np.array([0.0, 0.37, 1.9, 13.0])
        series = reduced_two_qubit_series(h, field, times)
        assert np.abs(dense(series) - expm_reference(h, field, times)).max() < 1e-12

    def test_reductions_against_analytic_grid(self, weak_setup):
        params, field, h = weak_setup
        times = np.linspace(0, 2, 25)
        series = reduced_two_qubit_series(h, field, times)
        analytic = two_qubit_states(params, field, times)
        assert np.abs(dense(series) - dense(analytic)).max() < 1e-8
