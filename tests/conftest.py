from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from lapmaneuver import FormationGraph, ReferenceShape, center_shape
from lapmaneuver.shapes import nonkernel_eigenvalues


def square_graph() -> FormationGraph:
    return FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3)))


def square_shape() -> ReferenceShape:
    return center_shape([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


def decagon_graph() -> FormationGraph:
    return FormationGraph(10, tuple((k + 1, (k + 1) % 10 + 1) for k in range(10)))


def decagon_shape() -> ReferenceShape:
    theta = 2 * np.pi * np.arange(10) / 10
    r = 1.0 / (2.0 * np.sin(np.pi / 10))
    return center_shape(r * np.exp(1j * theta))


def random_instance(n: int, seed: int):
    """Random 2-rooted graph (cycle plus chords) with a random shape."""
    rng = np.random.default_rng(seed)
    edges = [(k + 1, (k + 1) % n + 1) for k in range(n)]
    present = {frozenset(e) for e in edges}
    extra = rng.integers(0, max(1, n // 2), endpoint=True)
    for _ in range(extra):
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        if frozenset((int(i), int(j))) not in present:
            edges.append((int(i), int(j)))
            present.add(frozenset((int(i), int(j))))
    g = FormationGraph(n, tuple(edges))
    while True:
        pts = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        shape = center_shape(pts)
        if all(shape.edge_vector(i, j) != 0 for i, j in g.oriented_edges):
            return g, shape


def ring_chord(n: int, irregularity_seed: int = 3, jitter_seed=None):
    """Ring 1-2-...-n-1 plus a chord from every fourth node to the opposite
    one, on a regular n-gon with unit edges and a 5% irregularity drawn from
    default_rng([irregularity_seed, n]) (seed 3 is the benchmark sweep's);
    with jitter_seed, the sweep's 1e-4 jitter of that workload seed on top."""
    edges = [(k + 1, (k + 1) % n + 1) for k in range(n)]
    present = {frozenset(e) for e in edges}
    for i in range(0, n, 4):
        e = (i + 1, (i + n // 2) % n + 1)
        if frozenset(e) not in present:
            edges.append(e)
            present.add(frozenset(e))
    rng = np.random.default_rng([irregularity_seed, n])
    pts = np.exp(2j * np.pi * np.arange(n) / n) / (2.0 * np.sin(np.pi / n))
    pts = pts + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if jitter_seed is not None:
        rng = np.random.default_rng([jitter_seed, n])
        pts = pts + 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return FormationGraph(n, tuple(edges)), center_shape(pts)


@st.composite
def block_graphs(draw):
    """Blocks (cycles and cliques) joined at cut vertices into a chain, each
    block leaving by another node than it entered by, and the verdict the
    block structure implies. A chain is 2-rooted (one root among the free
    nodes of each end block); a defect makes it not: a block joined at a cut
    vertex, which then separates three parts, or a pendant node hung from a
    node that is not a free node of an end block. Labels are shuffled."""
    edges, blocks, size = [], [], 0
    for k in range(draw(st.integers(1, 3))):
        kind, m = draw(st.sampled_from(["cycle", "clique"])), draw(st.integers(2, 4))
        if kind == "cycle":
            m = max(m, 3)
        entry = [draw(st.sampled_from(blocks[-1][1:]))] if blocks else []
        block = entry + list(range(size, size + m - len(entry)))
        size += m - len(entry)
        pairs = (zip(block, block[1:] + block[:1]) if kind == "cycle"
                 else combinations(block, 2))
        edges += [tuple(p) for p in pairs]
        blocks.append(block)
    cuts = [b[0] for b in blocks[1:]]
    defects = ["none"] + (["shared block", "pendant"] if cuts else [])
    defect = draw(st.sampled_from(defects))
    if defect == "shared block":
        c = draw(st.sampled_from(cuts))
        edges += [(c, size), (size, size + 1), (size + 1, c)]
        size += 2
    elif defect == "pendant":
        end_free = {v for b in (blocks[0], blocks[-1]) for v in b if v not in cuts}
        hub = draw(st.sampled_from(sorted(set(range(size)) - end_free)))
        edges.append((hub, size))
        size += 1
    label = draw(st.permutations(range(1, size + 1)))
    g = FormationGraph(size, tuple((label[i], label[j]) for i, j in edges))
    return g, defect == "none"


def incidence_matrix(g: FormationGraph) -> np.ndarray:
    """The paper's n x |Z| incidence matrix B: +1 at the tail and -1 at the
    head of each oriented edge, so (B^T p)_k = p_tail - p_head."""
    B = np.zeros((g.n, len(g.oriented_edges)))
    for k, (tail, head) in enumerate(g.oriented_edges):
        B[tail - 1, k] = 1.0
        B[head - 1, k] = -1.0
    return B


def motion_matrix(g: FormationGraph, mu: np.ndarray) -> np.ndarray:
    """The paper's n x |Z| motion matrix M(mu), with (M B^T p)_i =
    sum_j mu_ij (p_i - p_j) for motion parameters mu on the edges (n x n)."""
    M = np.zeros((g.n, len(g.oriented_edges)), dtype=complex)
    for k, (tail, head) in enumerate(g.oriented_edges):
        M[tail - 1, k] = mu[tail - 1, head - 1]
        M[head - 1, k] = -mu[head - 1, tail - 1]
    return M


def motion_fields(spec, shape) -> tuple:
    """The paper's three steady fields of a motion spec with their gains:
    (kappa_t, v* 1), (kappa_r, i omega p*) and (kappa_s, a p*), positions
    taken relative to the center agent when there is one."""
    p = shape.p_star
    if spec.center_agent is not None:
        p = p - p[spec.center_agent - 1]
    return ((spec.kappa_t, spec.v_star * np.ones(shape.n, dtype=complex)),
            (spec.kappa_r, 1j * spec.omega * p), (spec.kappa_s, spec.a * p))


def full_eig_pair(ev: np.ndarray, V: np.ndarray, shape: ReferenceShape) -> tuple:
    """The (lambda, Z) pair of `nonkernel_eigenvalues` as the np.linalg.eig
    pair (ev, V) of the whole n x n KL gives it: the kernel pair found by
    sorting |lambda| and dropped, the other eigenvectors in the basis Q of
    `ReferenceShape.plane`."""
    rest = np.argsort(np.abs(ev))[2:]
    return ev[rest], shape.plane[0].conj().T @ V[:, rest]


def fresh_eig_rel(KL: np.ndarray, T: np.ndarray, shape: ReferenceShape) -> float:
    """Tolerance on the bound, relative, of a fresh decomposition of a
    power-of-two multiple of KL or of another decomposition of KL: eig moves
    lambda_i by about kappa_i eps ||KL|| (kappa_i its condition number, the
    norm of row i of Z2^-1 for unit columns of Z), so 1/Re lambda_i by
    kappa_i eps ||KL|| / Re lambda_i, and the eigenvectors add eps cond(T)^2,
    T = Q2^H W the bound's basis. Over 18000 random designs (ring+chord and
    random_instance, n = 4-12) the bound of a fresh decomposition of 2^j KL
    reached 6.5 of the 64, and a full np.linalg.eig of KL (`full_eig_pair`)
    moved the bound by up to 26 and cond(T) by up to 29 of them."""
    lam, Z = nonkernel_eigenvalues(KL, shape)
    kappa = np.linalg.norm(np.linalg.inv(Z[2:]), axis=1)
    return 64 * np.finfo(float).eps * (np.linalg.cond(T) ** 2
                                       + (kappa * np.linalg.norm(KL, 2) / lam.real).max())


@pytest.fixture
def square():
    return square_graph(), square_shape()


@pytest.fixture
def decagon():
    return decagon_graph(), decagon_shape()
