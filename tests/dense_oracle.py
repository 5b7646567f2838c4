"""The exact dense spectrum of a patch side: the oracle of the Lanczos kernel.

``dense_spectrum`` is ``numpy.linalg.eigh`` of ``laplacian``, with the
signal's coefficients eigenvectors^T u; a constant signal gets an exact
pass-through (eigenvalues [0, lambda_max], its mean on the null vector), so
its band-pass bands are exactly zero. ``dense_bands`` filters such a
spectrum with phm's ``sgwt_decompose``, as one block whose basis is the
eigenvectors, with lambda_max = the last eigenvalue. ``use_dense_oracle``
swaps the dense spectra into ``phm.appearance`` so that ``phm_score`` runs
on them.
"""

import numpy as np

import phm.appearance
from phm.appearance import sgwt_decompose
from phm.patches import CloudSides, Spectrum, chunk_graph


def laplacian(graph):
    """Dense (n, n) Laplacian D - W: symmetric, zero row sums."""
    adj = np.zeros((graph.n, graph.n))
    adj[graph.edges_i, graph.edges_j] = graph.weights
    adj[graph.edges_j, graph.edges_i] = graph.weights
    return np.diag(adj.sum(axis=1)) - adj


def dense_spectrum(graph, signal):
    """(eigenvalues, vectors, coefficients); f applies as vectors @ (f(eigenvalues) * coefficients)."""
    u = np.asarray(signal, dtype=np.float64)
    lam, vec = np.linalg.eigh(laplacian(graph))
    if u.max() > u.min():
        return lam, vec, vec.T @ u
    n = graph.n
    vectors = np.zeros((n, 2))
    vectors[:, 0] = 1.0 / np.sqrt(n)
    return np.array([0.0, lam[-1]]), vectors, np.array([u.mean() * np.sqrt(n), 0.0])


def as_spectrum(spectra):
    """Dense (eigenvalues, vectors, coefficients) spectra as the blocks of one ``Spectrum``.

    Block b's basis rows are its eigenvectors, one step per eigenvalue, and
    its Ritz vectors the identity, so ``sgwt_decompose`` applies f as
    vectors @ (f(eigenvalues) * coefficients), with lambda_max = the last
    eigenvalue.
    """
    sizes = np.array([len(vec) for _, vec, _ in spectra])
    k = max(len(lam) for lam, _, _ in spectra)
    basis = np.zeros((k, sizes.sum()))
    theta, coefficients = np.zeros((len(spectra), k)), np.zeros((len(spectra), k))
    lo = 0
    for b, (lam, vec, coef) in enumerate(spectra):
        basis[:len(lam), lo:lo + len(vec)] = vec.T
        theta[b, :len(lam)], coefficients[b, :len(lam)] = lam, coef
        lo += len(vec)
    return Spectrum(sizes, np.zeros(len(spectra)), np.array([len(lam) for lam, _, _ in spectra]),
                    basis, theta, np.broadcast_to(np.eye(k), (len(spectra), k, k)), coefficients,
                    np.array([lam[-1] for lam, _, _ in spectra]))


def dense_bands(spectrum, num_bandpass):
    """(C + 1, n) SGWT sub-bands of one dense spectrum."""
    return sgwt_decompose(as_spectrum([spectrum]), num_bandpass)


def one_side(n, edges_i, edges_j, weights):
    """A ``CloudSides`` of one side: n points and the given edge list.

    Its sigma2 of 1 only marks it valid, and its smoothness is 0.
    """
    return CloudSides(np.array([0]), np.array([n]), np.asarray(edges_i, dtype=np.intp),
                      np.asarray(edges_j, dtype=np.intp), np.asarray(weights, dtype=np.float64),
                      np.array([0, len(weights)]), np.ones(1), np.zeros((1, 3)))


def stack_graphs(graphs):
    """The sides of every ``CloudSides`` in ``graphs``, in order, as one ``CloudSides``."""
    sizes = np.concatenate([g.sizes for g in graphs])
    counts = np.concatenate([np.diff(g.edge_starts) for g in graphs])
    offsets = np.repeat(np.cumsum([0] + [g.n for g in graphs[:-1]]), [len(g.weights) for g in graphs])
    return CloudSides(np.cumsum(sizes) - sizes, sizes,
                      np.concatenate([g.edges_i for g in graphs]) + offsets,
                      np.concatenate([g.edges_j for g in graphs]) + offsets,
                      np.concatenate([g.weights for g in graphs]), np.append(0, np.cumsum(counts)),
                      np.concatenate([g.sigma2 for g in graphs]),
                      np.concatenate([g.smoothness for g in graphs]))


def use_dense_oracle(monkeypatch):
    """Make ``phm.appearance`` filter every side through its dense spectrum."""
    def spectra(chunk, signal):
        sides = (chunk_graph(chunk, [c]) for c in range(len(chunk.sizes)))
        return as_spectrum([dense_spectrum(side, signal[points]) for side, points in sides])

    monkeypatch.setattr(phm.appearance, "eigendecompose", spectra)


def lanczos_bands(graph, signal, num_bandpass):
    """Sub-bands of one side alone through phm's lockstep kernel."""
    spectrum = phm.appearance.eigendecompose(graph, signal)
    return phm.appearance.sgwt_decompose(spectrum, num_bandpass)
