"""Brute-force reference implementations used to cross-check the fast paths.

Everything here enumerates outcome strings or loops over records directly and
shares no code with the library internals, so agreement is meaningful. The
one exception is ``public_call_trial``, the reference for ``fit``'s batched
trial blocks: it runs one trial through the public single-train calls.
"""

import numpy as np
import scipy.linalg

from ttomo.fitting import EnvCache, init_tt, loss, update_core


def all_strings(L: int) -> np.ndarray:
    """All 4^L outcome strings in lexicographic order, shape (4^L, L)."""
    grids = np.meshgrid(*([np.arange(4)] * L), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.uint8)


def tt_value(cores, string) -> float:
    vec = np.ones(1)
    for core, sym in zip(cores, string):
        vec = vec @ core[int(sym)]
    return float(vec[0])


def dense_tt_vector(cores) -> np.ndarray:
    return np.array([tt_value(cores, s) for s in all_strings(len(cores))])


def dense_sample_vector(samples) -> np.ndarray:
    vec = np.zeros(4**samples.L)
    for string, weight in zip(samples.strings, samples.weights):
        code = 0
        for sym in string:
            code = code * 4 + int(sym)
        vec[code] += weight
    return vec


def brute_loss(cores, samples) -> float:
    model = dense_tt_vector(cores)
    empirical = dense_sample_vector(samples)
    return float(model @ model - 2.0 * (model @ empirical))


def prefix_vector(cores, string, k) -> np.ndarray:
    """Row vector from cores 0..k-1 contracted with the string prefix."""
    vec = np.ones(1)
    for core, sym in zip(cores[:k], string[:k]):
        vec = vec @ core[int(sym)]
    return vec


def suffix_vector(cores, string, k) -> np.ndarray:
    """Column vector from cores k.. contracted with the string suffix."""
    vec = np.ones(1)
    for core, sym in zip(reversed(cores[k:]), reversed(string[k:])):
        vec = core[int(sym)] @ vec
    return vec


def brute_left_gram(cores, p) -> np.ndarray:
    """Self-overlap of cores 0..p-1 summed over all 4^p prefixes."""
    if p == 0:
        return np.ones((1, 1))
    dim = cores[p - 1].shape[2]
    gram = np.zeros((dim, dim))
    for string in all_strings(p):
        vec = prefix_vector(cores, string, p)
        gram += np.outer(vec, vec)
    return gram


def brute_right_gram(cores, p) -> np.ndarray:
    """Self-overlap of cores p..L-1 summed over all suffixes."""
    L = len(cores)
    if p == L:
        return np.ones((1, 1))
    dim = cores[p].shape[1]
    gram = np.zeros((dim, dim))
    for string in all_strings(L - p):
        padded = np.concatenate([np.zeros(p, dtype=np.uint8), string])
        vec = suffix_vector(cores, padded, p)
        gram += np.outer(vec, vec)
    return gram


def brute_left_overlaps(cores, samples, p) -> np.ndarray:
    """Per-record prefix vectors against cores 0..p-1, shape (n, D_p)."""
    return np.array([prefix_vector(cores, s, p) for s in samples.strings])


def brute_right_sums(cores, samples, p) -> np.ndarray:
    """Weighted suffix vectors against cores p.., summed per distinct prefix of length p.

    One row per distinct prefix in lexicographic order, shape (prefixes, D_p).
    """
    sums = {}
    for string, weight in zip(samples.strings, samples.weights):
        prefix = tuple(int(sym) for sym in string[:p])
        sums[prefix] = sums.get(prefix, 0.0) + weight * suffix_vector(cores, string, p)
    return np.array([sums[prefix] for prefix in sorted(sums)])


def brute_right_grid(cores, samples, p) -> np.ndarray:
    """``brute_right_sums`` at p >= 1 in rows ``q * 4 + s`` of a (4 x parents, D_p) grid.

    q numbers the distinct prefixes of length p - 1 in lexicographic order and
    s is the last symbol of the length-p prefix; a pair no string has is a
    zero row.
    """
    prefixes = sorted({tuple(int(sym) for sym in string[:p]) for string in samples.strings})
    parents = {parent: q for q, parent in enumerate(sorted({pre[:-1] for pre in prefixes}))}
    grid = np.zeros((4 * len(parents), cores[p - 1].shape[2]))
    rows = [parents[prefix[:-1]] * 4 + prefix[-1] for prefix in prefixes]
    grid[rows] = brute_right_sums(cores, samples, p)
    return grid


def brute_update_numer(cores, samples, k) -> np.ndarray:
    """Weighted outer products of record environments, per symbol."""
    numer = np.zeros_like(cores[k])
    for string, weight in zip(samples.strings, samples.weights):
        tl = prefix_vector(cores, string, k)
        tr = suffix_vector(cores, string, k + 1)
        numer[int(string[k])] += weight * np.outer(tl, tr)
    return numer


def brute_update_denom(cores, k) -> np.ndarray:
    """Model-overlap gradient term, by full enumeration of all strings."""
    core = cores[k]
    denom = np.zeros_like(core)
    for string in all_strings(len(cores)):
        s = int(string[k])
        tl = prefix_vector(cores, string, k)
        tr = suffix_vector(cores, string, k + 1)
        value = tl @ core[s] @ tr
        denom[s] += value * np.outer(tl, tr)
    return denom


def brute_mpo_dense(cores) -> np.ndarray:
    """Densify an operator chain entry by entry; site 0 is most significant."""
    L = len(cores)
    dim = 2**L
    rho = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        row_bits = [(row >> (L - 1 - l)) & 1 for l in range(L)]
        for col in range(dim):
            col_bits = [(col >> (L - 1 - l)) & 1 for l in range(L)]
            mat = np.ones((1, 1), dtype=complex)
            for l in range(L):
                mat = mat @ cores[l][row_bits[l], col_bits[l]]
            rho[row, col] = mat[0, 0]
    return rho


def kron_xxz_hamiltonian(L, J, gamma, h) -> np.ndarray:
    """XXZ Hamiltonian as a sum of Kronecker chains: XX, YY, ZZ per bond, then Z per site."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def chain(inserts):
        out = np.ones((1, 1), dtype=complex)
        for l in range(L):
            out = np.kron(out, inserts.get(l, eye))
        return out

    ham = np.zeros((2**L, 2**L), dtype=complex)
    for l in range(L - 1):
        for op, weight in [(sx, J), (sy, J), (sz, J * gamma)]:
            ham += weight * chain({l: op, l + 1: op})
    for l in range(L):
        ham += h * chain({l: sz})
    return ham


def brute_born_probs(rho, elements) -> np.ndarray:
    """Outcome probabilities by building each product operator explicitly."""
    L = int(round(np.log2(rho.shape[0])))
    probs = np.empty(4**L)
    for i, string in enumerate(all_strings(L)):
        op = np.ones((1, 1), dtype=complex)
        for sym in string:
            op = np.kron(op, elements[int(sym)])
        probs[i] = np.real(np.trace(op @ rho))
    return probs


def sqrtm_fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity via scipy matrix square roots."""
    root = scipy.linalg.sqrtm(rho1)
    inner = scipy.linalg.sqrtm(root @ rho2 @ root)
    return float(np.real(np.trace(inner))) ** 2


def brute_classical_fidelity(model_vec, ideal_vec, samples) -> float:
    total = 0.0
    for string, weight in zip(samples.strings, samples.weights):
        code = 0
        for sym in string:
            code = code * 4 + int(sym)
        total += weight * np.sqrt(max(model_vec[code], 0.0) / ideal_vec[code])
    return float(total)


def random_density(dim, rng, rank=None) -> np.ndarray:
    """Random positive-semidefinite unit-trace matrix of the given rank."""
    rank = dim if rank is None else rank
    factor = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = factor @ factor.conj().T
    return rho / np.trace(rho).real


def random_tt_cores(L, bond_dim, rng) -> list:
    """Random strictly positive cores with capped bond profile."""
    dims = [min(bond_dim, 4 ** min(p, L - p)) for p in range(L + 1)]
    return [rng.uniform(0.1, 1.0, size=(4, dims[p], dims[p + 1])) for p in range(L)]


def public_call_trial(samples, config, seed):
    """One trial through the public single-train calls, in ``fit``'s order.

    Returns the final train, the loss trace (a fresh ``loss`` before the
    first sweep and after each one) and whether the stopping rule fired.
    """
    tt = init_tt(samples.L, config.bond_dim, seed)
    cache = EnvCache(tt, samples)
    losses = [loss(tt, samples)]
    for _ in range(config.max_sweeps):
        if samples.L == 1:
            update_core(tt, cache, samples, 0, config.eps)
        for k in range(samples.L - 1):
            update_core(tt, cache, samples, k, config.eps)
            cache.refresh_left(k)
        for k in range(samples.L - 1, 0, -1):
            update_core(tt, cache, samples, k, config.eps)
            cache.refresh_right(k)
        losses.append(loss(tt, samples))
        if len(losses) > config.stop_window:
            gain = losses[-1 - config.stop_window] - losses[-1]
            if gain <= config.stop_rtol * max(abs(losses[-1]), 1e-300):
                return tt, np.array(losses), True
    return tt, np.array(losses), False
