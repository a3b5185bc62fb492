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
shrink. A small ``eps``, relative to the largest denominator entry, is
added to the denominator only.

Boundary position ``p`` in 0..L splits the chain between cores ``p - 1`` and
``p``: left quantities cover cores ``0 .. p-1``, right quantities cover cores
``p .. L-1``. A sample set is sorted, so the strings sharing a prefix form one
contiguous run of rows (``SampleSet.runs``), and both sides are stored once
per prefix run:

* the left environment of a run at p is cores ``0 .. p-1`` contracted with
  the run's prefix;
* the right sum of a run at p is the sample-weighted sum, over the run's
  strings, of cores ``p .. L-1`` contracted with each string's suffix. At
  p = L every run is one string, so the right sums there are the weights.

Each run at p >= 1 is a run q at p - 1 extended by the symbol s at site
p - 1. Left environments are stored one row per run; at p >= 1 the right
sums are stored in the (run at p - 1, symbol) grid, at row ``q * 4 + s``
(``RunIndex.prefix_slot``) with zeros where no string has the pair, so on a
dense level the grid is the right sums in order. A left environment at p + 1
is gathered from the runs at p times core p; the right sums at p are the
grid at p + 1 times core p, scattered once into the grid at p; the data term
of core p's update is the left environments at p against the grid at p + 1.
Each of the three is one GEMM over the runs, and no update sums over the
samples; the loss is core 0's update form.

The trials of a fit share the sample set and its runs, so ``fit`` runs them
in blocks through one cache whose cores, Grams and environments carry a
leading trial axis. Every GEMM is then batched over the trials, while the
gather and the scatter stay on the run axis; a block pays the
per-call overhead of numpy once for all its trials. Each trial's arithmetic
is the same as alone, so its losses and cores do not depend on its block. A
trial that meets its stopping rule leaves the block, and its wall times
count from the start of the block.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .networks import TTDistribution, extend_left
from .sampling import SampleSet

DEFAULT_EPS = 1e-16
# Budget of a trial block in floats, on T * bond_dim * the widest right grid's
# 4 x (runs at p - 1), which bounds each position's stored environments and
# right grids: wide sets (L = 8, 65534 strings, width 65536 at D = 10) run one
# trial per block, and small sets run a whole fit as one block.
_BLOCK_FLOATS = 1 << 20


@dataclass(frozen=True)
class FitConfig:
    """Knobs of a multi-trial fit.

    A trial stops once the loss improvement over the trailing
    ``stop_window`` sweeps drops below ``stop_rtol`` relative to the current
    loss magnitude, or after ``max_sweeps`` sweeps. Trial ``t`` initializes
    from seed ``seed + t``. ``eps`` is the update's denominator safeguard
    relative to the largest denominator entry of the trial (see
    ``update_core``).
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
        if not (np.isfinite(self.stop_rtol) and self.stop_rtol >= 0.0):
            raise ValidationError(f"stop_rtol must be finite and >= 0, got {self.stop_rtol}")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ValidationError(f"eps must be finite and > 0, got {self.eps}")
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


def _stacked(core: np.ndarray) -> np.ndarray:
    """A core with its leading trial axis; a single train's core gains one of length 1."""
    return core if core.ndim == 4 else core[None]


@dataclass
class _TrialStack:
    """Trains of one bond profile with core ``k`` stacked to (T, 4, D_k, D_{k+1})."""

    cores: list

    @property
    def length(self) -> int:
        return len(self.cores)

    def train(self, t: int) -> TTDistribution:
        return TTDistribution([core[t].copy() for core in self.cores])


class EnvCache:
    """Partial contractions of a train with itself and with the samples.

    Gram matrices (train against train) are stored at every boundary
    position. On the sample side, position p stores one row per prefix run
    of ``samples.runs``: the left environment of the run's prefix, and the
    right sum, the sample-weighted sum of the right environments of the
    run's strings. At p >= 1 the right sums are kept in their (run at p - 1,
    symbol) grid (``_scatter``), built once by the refresh that computes
    them. Refreshing either side across one core, and the update's data
    term, are each one batched GEMM against such a grid.

    ``tt`` is one train or, inside ``fit``, a stack of trials whose cores
    carry a leading trial axis. Every stored quantity carries that axis:
    Grams are (T, D, D), left environments (T, runs, D_p), the right sums at
    p = 0 (T, 1, 1) and the right grids (T, runs at p - 1, 4 * D_p), with
    T = 1 for one train. ``losses()`` reads every trial from core 0's update
    terms; the Gram and environment reads serve one-train caches and read
    trial 0.

    Entries invalidated by a core update are unreadable until a refresh
    recomputes them, so everything readable equals its from-scratch
    definition.
    """

    def __init__(self, tt, samples: SampleSet):
        if samples.L != tt.length:
            raise ValidationError(
                f"sample length {samples.L} does not match train length {tt.length}"
            )
        self.tt = tt
        self.runs = samples.runs
        L = tt.length
        trials = _stacked(tt.cores[0]).shape[0]
        ones = np.ones((trials, 1, 1))
        self._left_gram = [ones] + [None] * L
        self._right_gram = [None] * L + [ones]
        self._left_env = [ones] + [None] * L
        weights = np.broadcast_to(samples.weights[:, None], (trials, samples.n_distinct, 1))
        self._right = [None] * L + [self._scatter(L, weights)]
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
        return self._left_gram[p][0]

    def right_gram(self, p: int) -> np.ndarray:
        self._check_right(p)
        return self._right_gram[p][0]

    def left_overlaps(self, p: int) -> np.ndarray:
        """Per-sample left overlap at position p, expanded from the prefix runs."""
        self._check_left(p)
        return self._left_env[p][0][self.runs.prefix_of_row(p)]

    def right_sums(self, p: int) -> np.ndarray:
        """Right sum of every prefix run at position p, shape (runs, D_p)."""
        self._check_right(p)
        grid = self._right[p][0]
        return grid if p == 0 else grid.reshape(-1, grid.shape[1] // 4)[self.runs.prefix_slot[p]]

    def losses(self) -> np.ndarray:
        """Each trial's shifted quadratic loss <P, P> - 2 <P, P_s>, from core 0's update terms.

        Core 0 times ``model_term(0)`` sums to <P, P> and times ``data_term(0)`` to <P, P_s>.
        """
        core = _stacked(self.tt.cores[0])
        return (core * (self.model_term(0) - 2.0 * self.data_term(0))).sum(axis=(1, 2, 3))

    def _scatter(self, p: int, sums: np.ndarray) -> np.ndarray:
        """Right sums (T, runs, D_p) at p >= 1 in their (run at p - 1, symbol) grid.

        The grid has shape (T, runs at p - 1, 4 * D_p): column ``s * D_p + b``
        of row q holds bond index b of run q's child by symbol s, and a
        (run, symbol) pair that no string has stays zero.
        """
        trials, _, dim = sums.shape
        parents = self.runs.prefix_starts[p - 1].size
        grid = np.zeros((trials, parents * 4, dim))
        grid[:, self.runs.prefix_slot[p]] = sums
        return grid.reshape(trials, parents, 4 * dim)

    def data_term(self, k: int) -> np.ndarray:
        """Sample-weighted sum of left(k) x right(k+1) outer products per symbol at k.

        The left environment of each run at k meets the right sums of its
        children at k + 1. Shape (T, 4, D_k, D_{k+1}).
        """
        self._check_left(k)
        self._check_right(k + 1)
        env = self._left_env[k]
        terms = env.transpose(0, 2, 1) @ self._right[k + 1]
        return terms.reshape(env.shape[0], env.shape[2], 4, -1).transpose(0, 2, 1, 3)

    def model_term(self, k: int) -> np.ndarray:
        """Core k between the Grams of the rest of the chain, per symbol at k.

        Shape (T, 4, D_k, D_{k+1}); the core's entrywise product with it sums
        to the train's self overlap <P, P>.
        """
        self._check_left(k)
        self._check_right(k + 1)
        core = _stacked(self.tt.cores[k])
        right_t = self._right_gram[k + 1].transpose(0, 2, 1)
        return self._left_gram[k][:, None] @ core @ right_t[:, None]

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
        core = _stacked(self.tt.cores[k])
        gram = self._left_gram[k][:, None]
        self._left_gram[k + 1] = (core.transpose(0, 1, 3, 2) @ gram @ core).sum(axis=1)
        self._left_env[k + 1] = extend_left(core, self._left_env[k], self.runs.prefix_slot[k + 1])
        self._left_valid = k + 1

    def refresh_right(self, k: int) -> None:
        """Recompute position k right quantities from the current core k."""
        if not 0 <= k < self.tt.length:
            raise IndexError(f"core index {k} out of range")
        self._check_right(k + 1)
        core = _stacked(self.tt.cores[k])
        gram = self._right_gram[k + 1][:, None]
        self._right_gram[k] = (core @ gram @ core.transpose(0, 1, 3, 2)).sum(axis=1)
        trials, _, d_in, d_out = core.shape
        sums = self._right[k + 1] @ core.transpose(0, 1, 3, 2).reshape(trials, 4 * d_out, d_in)
        self._right[k] = sums if k == 0 else self._scatter(k, sums)
        self._right_valid = k

    def keep_trials(self, rows: list) -> None:
        """Keep only the trials at ``rows`` of the trial axis of a stack, cores included."""
        for store in (self._left_gram, self._right_gram, self._left_env, self._right):
            store[:] = [None if a is None else a[rows] for a in store]
        self.tt.cores[:] = [core[rows] for core in self.tt.cores]


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
    relative: ``eps`` times the trial's largest denominator entry is added
    to the denominator only. It keeps the ratio finite where the model term
    underflows to zero, and because it scales with the model it stays
    negligible on long chains, where every string's mass and with it the
    denominator is about 4^-L. A model term that is zero everywhere falls
    back to the absolute ``eps``. ``tt`` may be a stack of trials
    (see ``EnvCache``); each trial is updated on its own scale. ``tt`` must
    be the train ``cache`` was built on.
    """
    if tt is not cache.tt:
        raise ValidationError("update_core needs the train its cache was built on")
    if not 0 <= k < tt.length:
        raise IndexError(f"core index {k} out of range for length {tt.length}")
    core = tt.cores[k]
    numer = cache.data_term(k)
    denom = cache.model_term(k)
    scale = denom.max(axis=(1, 2, 3), keepdims=True)
    scale[scale == 0.0] = 1.0
    new = _stacked(core) * (numer / (denom + eps * scale))
    tt.cores[k] = new if core.ndim == 4 else new[0]
    cache.note_core_changed(k)
    return tt.cores[k]


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
    so interior cores are updated twice per sweep and the edge cores once (a
    one-site chain's core on the right-going pass only).
    ``on_update`` is called with the core index after each update.
    """
    L = tt.length
    for k in range(max(L - 1, 1)):
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

    It is core 0's update form (``EnvCache.losses``): the self term comes from
    the Gram chain and the data term from the observed strings only, so
    neither enumerates all 4^L strings. At the perfect fit it is -sum((n_j / N)^2).
    """
    return float(EnvCache(tt, samples).losses()[0])


@dataclass
class TrialResult:
    """Outcome of one fitting trial.

    ``losses[i]`` is the loss after ``i`` sweeps; index 0 is the initial
    value. ``wall_times[i]`` is the matching cumulative time in seconds
    since the trial's block started (``fit`` runs trials in blocks).
    """

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


def _finite_losses(cache: EnvCache, config: FitConfig) -> np.ndarray:
    """The loss of each of the cache's trials; a non-finite one raises CapacityError."""
    values = cache.losses()
    if not np.isfinite(values).all():
        raise CapacityError(
            f"the train's self overlap overflows at L={cache.tt.length}, "
            f"D={config.bond_dim}; fit a shorter chain or a smaller bond dimension"
        )
    return values


# Overflow shows up as a non-finite loss, which _finite_losses raises.
@np.errstate(over="ignore", invalid="ignore")
def _fit_block(samples: SampleSet, config: FitConfig, block: range) -> list:
    """Run the trials in ``block`` through one cache; trial t starts from seed ``seed + t``.

    Each trial keeps its own loss trace and windowed stopping rule; a trial
    that stops, or reaches ``max_sweeps``, leaves the block by a slice of
    the trial axis. Each loss is read from the cache as a sweep leaves it,
    from core 0's update terms (``EnvCache.losses``), and equals
    ``loss(tt, samples)`` bit for bit. A loss that is not finite, because a
    long chain's self overlap overflows, raises CapacityError.
    """
    if samples.total < 1 or samples.n_distinct < 1:
        raise ValidationError("cannot fit an empty sample set")
    seeds = [config.seed + t for t in block]
    inits = [init_tt(samples.L, config.bond_dim, seed).cores for seed in seeds]
    stack = _TrialStack([np.stack(cores) for cores in zip(*inits)])
    cache = EnvCache(stack, samples)
    start = time.perf_counter()
    active = list(range(len(block)))  # block index of each row of the trial axis
    losses = [[value] for value in _finite_losses(cache, config)]
    walls = [[0.0] for _ in active]
    results = [None] * len(block)
    for sweeps in range(1, config.max_sweeps + 1):
        sweep(stack, cache, samples, config.eps)
        values = _finite_losses(cache, config)
        now = time.perf_counter() - start
        rows = []  # rows of the trial axis that run on
        for row, (i, value) in enumerate(zip(active, values)):
            trace = losses[i]
            trace.append(value)
            walls[i].append(now)
            converged = sweeps >= config.stop_window and (
                trace[-1 - config.stop_window] - value
                <= config.stop_rtol * max(abs(value), 1e-300)
            )
            if converged or sweeps == config.max_sweeps:
                results[i] = TrialResult(
                    trial=block[i],
                    seed=seeds[i],
                    tt=stack.train(row),
                    losses=np.array(trace),
                    wall_times=np.array(walls[i]),
                    converged=converged,
                )
            else:
                rows.append(row)
        if not rows:
            break
        if len(rows) < len(active):
            cache.keep_trials(rows)
            active = [active[row] for row in rows]
    return results


def trial_blocks(trials: int, bond_dim: int, width: int, jobs: int = 1) -> list:
    """Trial indices of each block ``fit`` runs, as consecutive ranges.

    The right grid at p >= 1 holds 4 x (runs at p - 1) x D_p floats per
    trial, and no position stores more; ``width`` is the largest 4 x (runs
    at p - 1). A block holds at most ``_BLOCK_FLOATS // (bond_dim * width)``
    trials (at least one), so each position's stored environments and right
    grids, over every trial of the block, stay near ``_BLOCK_FLOATS``
    floats. With ``jobs > 1`` there are at least ``min(jobs, trials)``
    blocks, one or more per worker. Blocks differ in size by at most one
    trial.
    """
    per_block = max(1, _BLOCK_FLOATS // max(bond_dim * width, 1))
    count = max(-(-trials // per_block), min(jobs, trials))
    size, extra = divmod(trials, count)
    bounds = [b * size + min(b, extra) for b in range(count + 1)]
    return [range(bounds[b], bounds[b + 1]) for b in range(count)]


def map_jobs(fn, tasks: list, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, in ``jobs`` worker processes when ``jobs > 1``.

    Results come back in task order either way.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def fit(samples: SampleSet, config: FitConfig, jobs: int = 1) -> FitResult:
    """Run ``config.trials`` independent trials; trial t uses seed ``seed + t``.

    Trials run in blocks (``trial_blocks``), each through one trial-axis
    cache; with ``jobs > 1`` the blocks run in worker processes. A trial's
    arithmetic does not depend on its block, so the results, collected in
    trial order, are the same for any block plan and any ``jobs``.
    """
    width = max(4 * starts.size for starts in samples.runs.prefix_starts[:-1])
    blocks = trial_blocks(config.trials, config.bond_dim, width, jobs)
    tasks = [(samples, config, block) for block in blocks]
    return FitResult(trials=[r for block in map_jobs(_fit_block, tasks, jobs) for r in block])
