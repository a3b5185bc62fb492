"""Nonnegative tensor-train fitting of empirical outcome distributions.

The train is fitted by alternating multiplicative updates over left-right
sweeps. A site update multiplies the core elementwise by the ratio of two
tensors assembled from cached partial contractions:

* the data term: a sample-weighted outer product of the left and right
  environments of each observed string (its overlap with the chain on
  either side of the site), split by the string's symbol at the site;
* the model term: the core contracted with the left and right Gram matrices
  of the rest of the chain.

The ratio update never increases the quadratic loss and preserves
nonnegativity; entries that reach zero stay zero, so the support can only
shrink. A small ``eps`` is added to the denominator only.

Boundary position ``p`` in 0..L splits the chain between cores ``p - 1`` and
``p``: left quantities cover cores ``0 .. p-1``, right quantities cover cores
``p .. L-1``. A left environment depends only on the string's first ``p``
symbols and a right one only on its last ``L - p``, so each is stored once
per distinct prefix or suffix. A sample set is sorted, which makes the
strings sharing a prefix one contiguous run of rows; one extra sort by the
reversed string does the same for suffixes (``SampleSet.runs``). Refreshes
and the loss then work per run rather than per sample, and the data term of
an update is one gather and one segment sum over the samples plus a GEMM
over the runs.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .networks import TTDistribution
from .sampling import SampleSet

DEFAULT_EPS = 1e-16


@dataclass(frozen=True)
class FitConfig:
    """Knobs of a multi-trial fit.

    A trial stops once the loss improvement over the trailing
    ``stop_window`` sweeps drops below ``stop_rtol`` relative to the current
    loss magnitude, or after ``max_sweeps`` sweeps. Trial ``t`` initializes
    from seed ``seed + t``.
    """

    bond_dim: int = 10
    max_sweeps: int = 2000
    stop_window: int = 10
    stop_rtol: float = 1e-8
    eps: float = DEFAULT_EPS
    trials: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bond_dim < 1:
            raise ValidationError(f"bond dimension must be >= 1, got {self.bond_dim}")
        if self.max_sweeps < 1:
            raise ValidationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.stop_window < 1:
            raise ValidationError(f"stop_window must be >= 1, got {self.stop_window}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.stop_rtol < 0.0:
            raise ValidationError(f"stop_rtol must be >= 0, got {self.stop_rtol}")
        if self.eps <= 0.0:
            raise ValidationError(f"eps must be > 0, got {self.eps}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def bond_profile(L: int, bond_dim: int) -> tuple:
    """Bond extents min(D, 4^p, 4^(L-p)) at every boundary position."""
    dims = []
    for p in range(L + 1):
        exponent = min(p, L - p)
        dims.append(bond_dim if exponent >= 16 else min(bond_dim, 4**exponent))
    return tuple(dims)


def init_tt(L: int, bond_dim: int, seed: int) -> TTDistribution:
    """Random strictly positive train with the capped bond profile.

    Entries are uniform on (0, 1); a strictly positive start keeps the
    multiplicative updates from freezing entries at zero from the outset.
    """
    if L < 1:
        raise ValidationError(f"length must be >= 1, got {L}")
    if bond_dim < 1:
        raise ValidationError(f"bond dimension must be >= 1, got {bond_dim}")
    dims = bond_profile(L, bond_dim)
    rng = np.random.default_rng(seed)
    cores = [rng.random((4, dims[p], dims[p + 1])) for p in range(L)]
    return TTDistribution(cores)


def _extend(env: np.ndarray, slabs: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Extend per-run environment columns across one core.

    ``env`` holds one column per run at the previous position and ``slabs``
    is the core arranged as (D_out, 4, D_in). One GEMM forms every
    (symbol, run) product; each new run then picks its column by ``slot``.
    """
    d_out, _, d_in = slabs.shape
    products = (slabs.reshape(4 * d_out, d_in) @ env).reshape(d_out, -1)
    return np.take(products, slot, axis=1)


class EnvCache:
    """Partial contractions of a train with itself and with the samples.

    Gram matrices (train against train) are stored at every boundary
    position. Environments (train against the observed strings) are stored
    once per distinct prefix on the left and once per distinct suffix on the
    right, as one column per run of ``samples.runs``: the set is sorted, so
    rows sharing a prefix are contiguous, and one sort by the reversed
    string makes rows sharing a suffix contiguous too. Extending an
    environment by one core is then one small GEMM over the runs of the
    previous position, and the update's data term is a segment sum over
    contiguous runs.

    Entries invalidated by a core update are unreadable until a refresh
    recomputes them, so everything readable equals its from-scratch
    definition.
    """

    def __init__(self, tt: TTDistribution, samples: SampleSet):
        if samples.L != tt.length:
            raise ValidationError(
                f"sample length {samples.L} does not match train length {tt.length}"
            )
        self.tt = tt
        self.runs = samples.runs
        self._weights = samples.weights
        L = tt.length
        self._left_gram = [np.ones((1, 1))] + [None] * L
        self._right_gram = [None] * L + [np.ones((1, 1))]
        self._left_env = [np.ones((1, 1))] + [None] * L
        self._right_env = [None] * L + [np.ones((1, 1))]
        self._left_valid = 0
        self._right_valid = L
        for k in range(L):
            self.refresh_left(k)
        for k in range(L - 1, -1, -1):
            self.refresh_right(k)

    # -- reads -------------------------------------------------------------

    @property
    def stored_left_overlap_positions(self) -> list:
        return list(range(self._left_valid + 1))

    @property
    def stored_right_overlap_positions(self) -> list:
        return list(range(self._right_valid, self.tt.length + 1))

    def _check_left(self, p: int) -> None:
        if not 0 <= p <= self._left_valid:
            raise IndexError(f"left position {p} is not valid (have 0..{self._left_valid})")

    def _check_right(self, p: int) -> None:
        if not self._right_valid <= p <= self.tt.length:
            raise IndexError(
                f"right position {p} is not valid (have {self._right_valid}..{self.tt.length})"
            )

    def left_gram(self, p: int) -> np.ndarray:
        self._check_left(p)
        return self._left_gram[p]

    def right_gram(self, p: int) -> np.ndarray:
        self._check_right(p)
        return self._right_gram[p]

    def left_overlaps(self, p: int) -> np.ndarray:
        """Per-sample left overlap at position p, expanded from the prefix runs."""
        self._check_left(p)
        return self._left_env[p][:, self.runs.prefix_of_row(p)].T

    def right_overlaps(self, p: int) -> np.ndarray:
        """Per-sample right overlap at position p, expanded from the suffix runs."""
        self._check_right(p)
        return self._right_env[p][:, self.runs.suffix_of_row[p]].T

    def loss(self) -> float:
        """Shifted quadratic loss <P, P> - 2 <P, P_s> from the right side at position 0.

        There the Gram is <P, P> and each string's suffix environment is P(string).
        """
        self._check_right(0)
        values = self._right_env[0][0, self.runs.suffix_of_row[0]]
        return float(self._right_gram[0][0, 0]) - 2.0 * float(self._weights @ values)

    def data_term(self, k: int) -> np.ndarray:
        """Sample-weighted sum of left(k) x right(k+1) outer products per symbol at k.

        The weighted right environments of the samples are summed over each
        prefix run of length k + 1, then contracted with the left
        environment of the run's parent prefix.
        """
        self._check_left(k)
        self._check_right(k + 1)
        runs = self.runs
        right = np.take(self._right_env[k + 1], runs.suffix_of_row[k + 1], axis=1)
        right *= self._weights
        sums = np.add.reduceat(right, runs.prefix_starts[k + 1], axis=1)
        left = self._left_env[k]
        grid = np.zeros((4 * left.shape[1], sums.shape[0]))
        grid[runs.prefix_slot[k + 1]] = sums.T
        return left @ grid.reshape(4, left.shape[1], -1)

    # -- writes ------------------------------------------------------------

    def note_core_changed(self, k: int) -> None:
        """Invalidate every cached quantity that depends on core ``k``."""
        self._left_valid = min(self._left_valid, k)
        self._right_valid = max(self._right_valid, k + 1)

    def refresh_left(self, k: int) -> None:
        """Recompute position k+1 left quantities from the current core k."""
        if not 0 <= k < self.tt.length:
            raise IndexError(f"core index {k} out of range")
        self._check_left(k)
        core = self.tt.cores[k]
        gram = self._left_gram[k]
        self._left_gram[k + 1] = sum(core[s].T @ gram @ core[s] for s in range(4))
        self._left_env[k + 1] = _extend(
            self._left_env[k], core.transpose(2, 0, 1), self.runs.prefix_slot[k + 1]
        )
        self._left_valid = k + 1

    def refresh_right(self, k: int) -> None:
        """Recompute position k right quantities from the current core k."""
        if not 0 <= k < self.tt.length:
            raise IndexError(f"core index {k} out of range")
        self._check_right(k + 1)
        core = self.tt.cores[k]
        gram = self._right_gram[k + 1]
        self._right_gram[k] = sum(core[s] @ gram @ core[s].T for s in range(4))
        self._right_env[k] = _extend(
            self._right_env[k + 1], core.transpose(1, 0, 2), self.runs.suffix_slot[k]
        )
        self._right_valid = k


def update_core(
    tt: TTDistribution,
    cache: EnvCache,
    samples: SampleSet,
    k: int,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Multiplicative update of core ``k`` in place; returns the new core.

    The cache, built on ``samples``, must hold valid left quantities at
    position ``k`` and right quantities at position ``k + 1``. ``eps`` is
    added to the denominator only: it keeps the ratio finite where the model
    term underflows to zero.
    """
    if not 0 <= k < tt.length:
        raise IndexError(f"core index {k} out of range for length {tt.length}")
    core = tt.cores[k]
    left_gram = cache.left_gram(k)
    right_gram = cache.right_gram(k + 1)
    numer = cache.data_term(k)
    denom = np.stack([left_gram @ core[s] @ right_gram.T for s in range(4)])
    new = core * (numer / (denom + eps))
    tt.cores[k] = new
    cache.note_core_changed(k)
    return new


def sweep(
    tt: TTDistribution,
    cache: EnvCache,
    samples: SampleSet,
    eps: float = DEFAULT_EPS,
    on_update=None,
) -> TTDistribution:
    """One full left-to-right then right-to-left pass of site updates.

    Going right, cores 0 .. L-2 are updated and the left environments follow;
    going left, cores L-1 .. 1 are updated and the right environments follow,
    so interior cores are updated twice per sweep and the edge cores once.
    ``on_update`` is called with the core index after each update.
    """
    L = tt.length
    if L == 1:
        update_core(tt, cache, samples, 0, eps)
        if on_update is not None:
            on_update(0)
        return tt
    for k in range(L - 1):
        update_core(tt, cache, samples, k, eps)
        cache.refresh_left(k)
        if on_update is not None:
            on_update(k)
    for k in range(L - 1, 0, -1):
        update_core(tt, cache, samples, k, eps)
        cache.refresh_right(k)
        if on_update is not None:
            on_update(k)
    return tt


def loss(tt: TTDistribution, samples: SampleSet) -> float:
    """Shifted quadratic loss <P, P> - 2 <P, P_s>, read from a fresh ``EnvCache``.

    The self term is the Gram chain of the train; the data term evaluates
    the train on the observed strings only, one suffix run at a time.
    Neither enumerates all 4^L strings. At the perfect fit the value is -sum((n_j / N)^2).
    """
    return EnvCache(tt, samples).loss()


@dataclass
class TrialResult:
    """Outcome of one fitting trial."""

    trial: int
    seed: int
    tt: TTDistribution
    losses: np.ndarray
    wall_times: np.ndarray
    converged: bool

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])

    @property
    def sweeps_run(self) -> int:
        return len(self.losses) - 1


@dataclass
class FitResult:
    """All trials of a fit; the best trial has the lowest final loss."""

    trials: list

    @property
    def final_losses(self) -> np.ndarray:
        return np.array([t.final_loss for t in self.trials])

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.final_losses))

    @property
    def best(self) -> TrialResult:
        return self.trials[self.best_index]


def fit_single(samples: SampleSet, config: FitConfig, seed: int, trial: int = 0) -> TrialResult:
    """Run one trial: random init, sweeps, windowed stopping rule.

    ``losses[i]`` is the loss after ``i`` sweeps; index 0 is the initial
    value. A sweep leaves the right side valid down to position 1, so one
    refresh at 0 makes the cache's loss equal ``loss(tt, samples)`` bit for
    bit. Wall times are cumulative seconds since the trial started.
    """
    if samples.total < 1 or samples.n_distinct < 1:
        raise ValidationError("cannot fit an empty sample set")
    tt = init_tt(samples.L, config.bond_dim, seed)
    cache = EnvCache(tt, samples)
    start = time.perf_counter()
    losses = [cache.loss()]
    walls = [0.0]
    converged = False
    for _ in range(config.max_sweeps):
        sweep(tt, cache, samples, config.eps)
        cache.refresh_right(0)
        losses.append(cache.loss())
        walls.append(time.perf_counter() - start)
        if len(losses) > config.stop_window:
            gain = losses[-1 - config.stop_window] - losses[-1]
            if gain <= config.stop_rtol * max(abs(losses[-1]), 1e-300):
                converged = True
                break
    return TrialResult(
        trial=trial,
        seed=seed,
        tt=tt,
        losses=np.array(losses),
        wall_times=np.array(walls),
        converged=converged,
    )


def map_jobs(fn, tasks: list, jobs: int) -> list:
    """``[fn(task) for task in tasks]``, in ``jobs`` worker processes when ``jobs > 1``.

    Results come back in task order either way.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _fit_task(args) -> TrialResult:
    samples, config, trial = args
    return fit_single(samples, config, config.seed + trial, trial)


def fit(samples: SampleSet, config: FitConfig, jobs: int = 1) -> FitResult:
    """Run ``config.trials`` independent trials; trial t uses seed ``seed + t``.

    Trials are independent, so with ``jobs > 1`` they run in worker
    processes; results are collected in trial order either way.
    """
    tasks = [(samples, config, t) for t in range(config.trials)]
    return FitResult(trials=map_jobs(_fit_task, tasks, jobs))
