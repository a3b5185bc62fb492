"""Brute-force reference implementations used to cross-check the fast paths.

Everything here enumerates outcome strings or loops over records directly and
shares no code with the library internals, so agreement is meaningful; the
text-file references format and parse one record at a time. Five helpers
call the library: ``public_call_trial``, the reference for ``fit``'s
batched trial blocks, runs one trial through the public single-train calls;
``assert_cache_matches_oracles`` compares an ``EnvCache``'s stores with
the oracles laid out as the stores are; ``after_each_update`` lets a test
watch the updates of a ``sweep``; ``mpo_to_tt`` applies a ``Povm``'s
measurement map to an operator chain, the forward direction of
``ttomo.tt_to_mpo``; and ``density_to_mpo`` factors a dense density matrix
into an operator chain by TT-SVD, reading its sites with the library's
``states._num_sites`` and ``states._map_sites``.
"""

import contextlib

import numpy as np
import pytest
import scipy.linalg

import ttomo.fitting
from ttomo.errors import CapacityError, ValidationError, check_real
from ttomo.fitting import DEFAULT_EPS, EnvCache, init_tt, loss, update_core
from ttomo.networks import MpoDensity, TTDistribution, matricized
from ttomo.states import MAX_DENSE_SITES, _map_sites, _num_sites


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


def exact_infidelity(model_vec, ideal_vec) -> float:
    """Exact classical infidelity over all strings, in the Hellinger form
    1/2 sum_a (sqrt(P_model(a)) - sqrt(P_ideal(a)))^2; both vectors sum to one."""
    return float(0.5 * np.sum((np.sqrt(model_vec) - np.sqrt(ideal_vec)) ** 2))


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


def brute_prefix_gram(cores, p) -> np.ndarray:
    """Self-overlap of cores 0..p-1 summed over all 4^p prefixes."""
    if p == 0:
        return np.ones((1, 1))
    dim = cores[p - 1].shape[2]
    gram = np.zeros((dim, dim))
    for string in all_strings(p):
        vec = prefix_vector(cores, string, p)
        gram += np.outer(vec, vec)
    return gram


def brute_suffix_gram(cores, p) -> np.ndarray:
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


def brute_prefix_vectors(cores, samples, p) -> np.ndarray:
    """Per-record prefix vectors against cores 0..p-1, shape (n, D_p)."""
    return np.array([prefix_vector(cores, s, p) for s in samples.strings])


def brute_suffix_sums(cores, samples, p) -> np.ndarray:
    """Weighted suffix vectors against cores p.., summed per distinct prefix of length p.

    One row per distinct prefix in lexicographic order, shape (prefixes, D_p).
    """
    sums = {}
    for string, weight in zip(samples.strings, samples.weights):
        prefix = tuple(int(sym) for sym in string[:p])
        sums[prefix] = sums.get(prefix, 0.0) + weight * suffix_vector(cores, string, p)
    return np.array([sums[prefix] for prefix in sorted(sums)])


def brute_right_grid(cores, samples, p) -> np.ndarray:
    """``brute_suffix_sums`` in rows ``q * 4 + s`` of a (4 x parents, D_p) grid.

    q numbers the distinct prefixes of length p - 1 in lexicographic order and
    s is the last symbol of the length-p prefix; a pair no string has is a
    zero row. At p = 0, with no shorter prefix, it is the one run's sum.
    """
    if p == 0:
        return brute_suffix_sums(cores, samples, 0)
    prefixes = sorted({tuple(int(sym) for sym in string[:p]) for string in samples.strings})
    parents = {parent: q for q, parent in enumerate(sorted({pre[:-1] for pre in prefixes}))}
    grid = np.zeros((4 * len(parents), cores[p - 1].shape[2]))
    rows = [parents[prefix[:-1]] * 4 + prefix[-1] for prefix in prefixes]
    grid[rows] = brute_suffix_sums(cores, samples, p)
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


def assert_cache_matches_oracles(cache, samples, rtol, atol) -> None:
    """Assert that every readable entry of a one-train ``cache`` equals its oracle.

    The oracles are laid out as the stores are: a run's left environment is the
    oracle's row at the run's first string, the right side is
    ``brute_right_grid``, and the update terms are ``matricized``, the
    (D_k, 4 * D_{k+1}) layout that ``EnvCache._terms`` returns.
    """
    cores = cache.tt.cores
    left = cache.stored_left_overlap_positions
    right = cache.stored_right_overlap_positions
    for p in left:
        gram = brute_prefix_gram(cores, p)
        assert np.allclose(cache._left_gram[p][0], gram, rtol=rtol, atol=atol)
        envs = brute_prefix_vectors(cores, samples, p)[samples.runs.prefix_starts[p]]
        assert np.allclose(cache._left_env[p][0], envs, rtol=rtol, atol=atol)
    for p in right:
        gram = brute_suffix_gram(cores, p)
        assert np.allclose(cache._right_gram[p][0], gram, rtol=rtol, atol=atol)
        grid = brute_right_grid(cores, samples, p)
        assert np.allclose(cache._right[p][0].reshape(grid.shape), grid, rtol=rtol, atol=atol)
    for k in range(len(cores)):
        if k in left and k + 1 in right:
            numer, denom, _ = cache._terms(k)
            expected = matricized(brute_update_numer(cores, samples, k))[0]
            assert np.allclose(numer[0], expected, rtol=rtol, atol=atol)
            expected = matricized(brute_update_denom(cores, k))[0]
            assert np.allclose(denom[0], expected, rtol=rtol, atol=atol)


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


def forward_map_site(w_core, povm) -> np.ndarray:
    """Map an operator core (ket, bra, left, right) to outcome weights.

    Returns an array of shape (4, left, right) holding tr(M_s W[:, :, b, c])
    for every bond pair. The result is returned as a real array whenever the
    bond slices of ``w_core`` are Hermitian (the case for every operator the
    package produces); otherwise it stays complex.
    """
    w = np.asarray(w_core)
    if w.ndim != 4 or w.shape[:2] != (2, 2):
        raise ValidationError(f"expected core shape (2, 2, Dl, Dr), got {w.shape}")
    merged = w.reshape(4, w.shape[2], w.shape[3])
    x = np.tensordot(povm.flat, merged, axes=(1, 0))
    return np.real_if_close(x, tol=1000)


def mpo_to_tt(mpo, povm) -> TTDistribution:
    """Apply the measurement map to every core; exact inverse of ``ttomo.tt_to_mpo``.

    Non-Hermitian bond slices give complex weights, a ValidationError.
    """
    return TTDistribution([forward_map_site(core, povm) for core in mpo.cores])


PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Orthonormal Hermitian site basis under the Hilbert-Schmidt inner product.
_HS_BASIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]) / np.sqrt(2.0)


def _tt_svd(tensor: np.ndarray, tol: float) -> list:
    """Sequential SVD factorization with per-cut truncation and fixed signs.

    At each cut the smallest ranks whose discarded squared singular values
    sum to at most ``tol`` are dropped. Each kept left-singular vector is
    scaled so its largest-magnitude entry is positive, which makes the
    factorization deterministic.
    """
    L = tensor.ndim
    work = tensor.reshape(1, -1)
    left_dim = 1
    cores = []
    for l in range(L - 1):
        work = work.reshape(left_dim * 4, -1)
        u, s, vt = np.linalg.svd(work, full_matrices=False)
        tail = np.cumsum(s[::-1] ** 2)[::-1]
        keep = max(1, int(np.sum(tail > tol)))
        u, s, vt = u[:, :keep], s[:keep], vt[:keep]
        pivots = np.argmax(np.abs(u), axis=0)
        signs = np.where(u[pivots, np.arange(keep)] < 0, -1.0, 1.0)
        u, vt = u * signs, vt * signs[:, None]
        cores.append(u.reshape(left_dim, 4, keep).transpose(1, 0, 2))
        work = s[:, None] * vt
        left_dim = keep
    cores.append(work.reshape(left_dim, 4, 1).transpose(1, 0, 2))
    return cores


def _balance_norms(cores: list) -> list:
    """Rescale bonds so every core has the same Frobenius norm.

    Only scalar gauge factors move between neighbouring cores, so the chain
    contraction is unchanged.
    """
    norms = [float(np.linalg.norm(c)) for c in cores]
    if any(n == 0.0 for n in norms):
        return cores
    target = float(np.exp(np.mean(np.log(norms))))
    carry = 1.0
    out = []
    for l in range(len(cores) - 1):
        scale = target / (norms[l] * carry)
        out.append(cores[l] * (carry * scale))
        carry = 1.0 / scale
    out.append(cores[-1] * carry)
    return out


def density_to_mpo(rho: np.ndarray, tol: float = 1e-14) -> MpoDensity:
    """Factor a dense density matrix into an operator chain.

    The matrix is expressed in the orthonormal Hermitian site basis, where a
    Hermitian operator has real coordinates, and that real tensor is factored
    by sequential SVDs. The basis is an isometry, so discarding squared
    singular values up to ``tol`` per cut bounds the Frobenius error of the
    densified result by sqrt(L * tol). Bond slices of the returned cores are
    Hermitian.
    """
    check_mpo_tol(tol)
    rho = np.asarray(rho, dtype=complex)
    L = _num_sites(rho)
    if L > MAX_DENSE_SITES:
        raise CapacityError(f"dense factorization guard is L <= {MAX_DENSE_SITES}, got {L}")
    coords = np.real_if_close(_map_sites(_HS_BASIS.reshape(4, 4).conj(), rho, L), tol=1000)
    if np.iscomplexobj(coords):
        raise ValidationError("matrix is not Hermitian: site coordinates stay complex")
    cores = _balance_norms(_tt_svd(coords, tol))
    mpo_cores = [np.tensordot(_HS_BASIS, c, axes=(0, 0)) for c in cores]
    return MpoDensity(mpo_cores)


def check_mpo_tol(tol: float) -> None:
    """Raise ``ValidationError`` unless ``tol`` is a finite, nonnegative truncation tolerance."""
    tol = check_real("truncation tolerance", tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"truncation tolerance must be finite and >= 0, got {tol}")


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


def random_density(dim, rng, rank=None, real=False) -> np.ndarray:
    """Random positive-semidefinite unit-trace matrix of the given rank; float64 if ``real``."""
    rank = dim if rank is None else rank
    factor = rng.normal(size=(dim, rank))
    if not real:
        factor = factor + 1j * rng.normal(size=(dim, rank))
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


@contextlib.contextmanager
def after_each_update(after):
    """Inside the block, ``sweep`` calls ``after(k, cache)`` right after each update of core k.

    ``sweep`` looks ``ttomo.fitting.update_core`` up at call time, so wrapping it
    observes every update, a ``fit``'s in-process ones included; ``cache`` is the
    ``EnvCache`` the update read. The environment refresh that follows the update
    has not run yet when ``after`` is called.
    """

    def update(tt, cache, samples, k, eps=DEFAULT_EPS):
        core = update_core(tt, cache, samples, k, eps)
        after(k, cache)
        return core

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ttomo.fitting, "update_core", update)
        yield


def reference_samples_text(samples) -> str:
    """A sample file as the per-row formatter writes it."""
    seed = "-" if samples.seed is None else samples.seed
    lines = ["ttsamples 1", f"L {samples.L}", f"N {samples.total}", f"seed {seed}"]
    lines += [f"stream {samples.stream}", f"source {samples.source or '-'}"]
    for row, count in zip(samples.strings, samples.counts):
        lines.append("".join(str(int(d)) for d in row) + f" {int(count)}")
    return "\n".join(lines) + "\n"


def reference_samples_body(lines, L, body_start) -> tuple:
    """The body lines parsed one at a time: ``("ok", strings, counts)``, or
    ``("error", lineno, message)`` for the first bad line."""
    strings, counts = [], []
    for lineno, line in enumerate(lines, start=body_start):
        parts = line.split()
        if len(parts) != 2:
            return "error", lineno, "expected '<string> <count>'"
        word, count_text = parts
        if len(word) != L or any(ch not in "0123" for ch in word):
            return "error", lineno, f"'{word}' is not a length-{L} string over symbols 0..3"
        try:
            count = int(count_text)
        except ValueError:
            count = None
        if count is None or not 1 <= count < 2**63:
            return "error", lineno, f"bad multiplicity '{count_text}'"
        strings.append([int(ch) for ch in word])
        counts.append(count)
    return "ok", np.array(strings, dtype=np.uint8).reshape(len(strings), L), np.array(counts)


def reference_tensor_text(chain) -> str:
    """A tensor file as the per-entry formatter writes it."""
    kind = "mpo" if isinstance(chain, MpoDensity) else "tt"
    lines = ["tttensor 1", f"kind {kind}", f"L {chain.length}"]
    lines.append("bonds " + " ".join(str(d) for d in chain.bond_dims))
    for core in chain.cores:
        flat = np.asarray(core).reshape(-1)
        if kind == "mpo":
            flat = np.column_stack([flat.real, flat.imag]).reshape(-1)
        lines.append("core " + " ".join(repr(float(v)) for v in flat))
    return "\n".join(lines) + "\n"
