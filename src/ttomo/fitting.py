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
``p .. L-1``. The update of core k reads the left side at k and the right
side at k + 1, so the cache stores left positions 0..L-1 and right positions
1..L and nothing else. A sample set is sorted, so the strings sharing a
prefix form one contiguous run of rows (``SampleSet.runs``), and both sides
are stored once per prefix run:

* the left environment of a run at p is cores ``0 .. p-1`` contracted with
  the run's prefix;
* the right sum of a run at p is the sample-weighted sum, over the run's
  strings, of cores ``p .. L-1`` contracted with each string's suffix. At
  p = L every run is one string, so the right sums there are the weights.

Each run at p >= 1 is a run q at p - 1 extended by the symbol s at site
p - 1. Left environments are stored one row per run, and the right sums in
the (run at p - 1, symbol) grid, at row ``q * 4 + s``
(``RunIndex.prefix_slot``) with zeros where no string has the pair. A left
environment at p + 1 is gathered from the runs at p times core p; the right
sums at p are the grid at p + 1 times core p, scattered once into the grid
at p; the data term of core p's update is the left environments at p against
the grid at p + 1. These three, the model term and the Grams are each one GEMM
against core p as its bond-major matrix M_p (D_p, 4 * D_{p+1}), whose row a holds the
slabs ``core[s, a, :]``; no update sums over the samples, and the loss is core 0's
update form. On a full level, where every run at p - 1 has all four children,
the slots are ``arange``: the grid at p is the right refresh's GEMM output
itself, with no zero grid and no scatter, and the left step skips its gather.

At the flagship's sizes each array is tiny and a core visit costs numpy's
per-call overhead, so a visit makes only the calls its arithmetic needs: the
cache keeps each M_p and the left refresh's Gram product (``EnvCache``), and
the update's ratio step runs in place (``update_core``).

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

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import CapacityError, ValidationError, check_integer, check_real
from .networks import TTDistribution, _Chain, extend_left, matricized
from .sampling import SampleSet

DEFAULT_EPS = 1e-16
# Budget of a trial block in floats, on T * bond_dim * the widest right grid's
# 4 x (runs at p - 1), which bounds each position's stored environments and
# right grids: wide sets (L = 8, 65534 strings, width 65536 at D = 10) run one
# trial per block, and small sets run a whole fit as one block.
_BLOCK_FLOATS = 1 << 20
# The least value of each of FitConfig's int fields; a subclass's int fields have none here.
_INT_MINIMA = {"bond_dim": 1, "max_sweeps": 1, "stop_window": 1, "trials": 1, "seed": 0}


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
        # Every int- and float-annotated field, a subclass's too; the annotation may be a string.
        for f in fields(self):
            if f.type in ("int", int):
                value = check_integer(f.name, getattr(self, f.name), _INT_MINIMA.get(f.name))
                object.__setattr__(self, f.name, value)
            elif f.type in ("float", float):
                object.__setattr__(self, f.name, check_real(f.name, getattr(self, f.name)))
        if not (np.isfinite(self.stop_rtol) and self.stop_rtol >= 0.0):
            raise ValidationError(f"stop_rtol must be finite and >= 0, got {self.stop_rtol}")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ValidationError(f"eps must be finite and > 0, got {self.eps}")


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
    L = check_integer("L", L, 1)
    bond_dim = check_integer("bond_dim", bond_dim, 1)
    seed = check_integer("seed", seed, 0)
    dims = bond_profile(L, bond_dim)
    rng = np.random.default_rng(seed)
    cores = [rng.random((4, dims[p], dims[p + 1])) for p in range(L)]
    return TTDistribution(cores)


def _as_core(mat: np.ndarray) -> np.ndarray:
    """The (T, 4, D_k, D_{k+1}) view of M_k (T, D_k, 4 * D_{k+1})."""
    return mat.reshape(mat.shape[0], mat.shape[1], 4, -1).transpose(0, 2, 1, 3)


class _TrialStack(_Chain):
    """Trains of one bond profile with core ``k`` stacked to (T, 4, D_k, D_{k+1})."""

    def train(self, t: int) -> TTDistribution:
        return TTDistribution([core[t].copy() for core in self.cores])


class EnvCache:
    """Partial contractions of a train with itself and with the samples.

    Gram matrices (train against train) are stored at boundary positions,
    the left ones at 0..L-1 and the right ones at 1..L: the positions an
    update reads. On the sample side, each position stores one row per
    prefix run of ``samples.runs``: the left environment of the run's
    prefix, and the right sum, the sample-weighted sum of the right
    environments of the run's strings, kept in its (run at p - 1, symbol)
    grid (``_scatter``). A fresh cache holds left position 0 and right
    positions 1..L, all that ``losses()`` and a sweep's first pass read;
    each further left position is built by the ``refresh_left`` that
    reaches it. Every contraction is one batched GEMM
    against core k as its bond-major matrix M_k. The cache keeps each M_k,
    built by ``matricized`` when the cache is made. After that a core enters
    the cache one way, ``_set_core``, which stores M_k and points
    ``tt.cores[k]`` at a view of it: ``update_core`` stores its result so,
    and ``note_core_changed(k)`` re-reads ``tt.cores[k]`` at once (a hand
    edit of a core is read that way). ``refresh_left(k)``'s product of the
    left Gram at k and M_k is kept until core k or that Gram changes, and
    core k's model term starts from it. Core 0's update terms are kept until
    a core changes or a right refresh runs: a sweep's loss and the next
    sweep's first update share them, and that update overwrites them in
    place.

    ``tt`` is one train or, inside ``fit``, a stack of trials whose cores
    carry a leading trial axis. Every stored quantity carries that axis:
    Grams are (T, D, D), left environments (T, runs, D_p) and right grids
    (T, runs at p - 1, 4 * D_p), with T = 1 for one train. ``losses()``
    reads every trial from core 0's update terms.

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
        self.L = L = tt.length
        self._mats = [matricized(core) for core in tt.cores]
        trials = len(self._mats[0])
        ones = np.ones((trials, 1, 1))
        self._core0_terms = []
        self._left_rows = [None] * L
        self._left_gram = [ones] + [None] * (L - 1)
        self._left_env = [ones] + [None] * (L - 1)
        self._right_gram = [None] * L + [ones]  # right stores: slot p is position p, 0 unused
        weights = np.broadcast_to(samples.weights[:, None], (trials, samples.n_distinct, 1))
        self._right = [None] * L + [self._scatter(L, weights)]
        self._left_valid = 0
        self._right_valid = L
        for k in range(L - 1, 0, -1):
            self.refresh_right(k)

    # -- reads -------------------------------------------------------------

    @property
    def stored_left_overlap_positions(self) -> list:
        return list(range(self._left_valid + 1))

    @property
    def stored_right_overlap_positions(self) -> list:
        return list(range(self._right_valid, self.L + 1))

    def _check_left(self, p: int) -> None:
        if not 0 <= p <= self._left_valid:
            raise IndexError(f"left position {p} is invalid (have 0..{self._left_valid})")

    def _check_right(self, p: int) -> None:
        if not self._right_valid <= p <= self.L:
            raise IndexError(f"right position {p} is invalid (have {self._right_valid}..{self.L})")

    def losses(self) -> np.ndarray:
        """Each trial's shifted quadratic loss <P, P> - 2 <P, P_s>, from core 0's update terms.

        Core 0 times its update denominator sums to <P, P> and times its numerator to <P, P_s>.
        A non-finite loss (a long chain's self overlap overflows) raises CapacityError.
        """
        numer, denom, mat = self._terms(0)
        values = (mat * (denom - 2.0 * numer)).sum(axis=(1, 2))
        if not all(map(math.isfinite, values.tolist())):
            raise CapacityError(
                f"the train's self overlap overflows at L={self.L}, "
                f"D={max(self.tt.bond_dims)}; "
                "fit a shorter chain or a smaller bond dimension"
            )
        return values

    def _scatter(self, p: int, sums: np.ndarray) -> np.ndarray:
        """Right sums (T, runs, D_p) at p in their (run at p - 1, symbol) grid.

        The grid has shape (T, runs at p - 1, 4 * D_p): column ``s * D_p + b``
        of row q holds bond index b of run q's child by symbol s, and a
        (run, symbol) pair that no string has stays zero. On a full level,
        where every run at p - 1 has all four children, the slots are
        ``arange`` and the grid is ``sums`` itself, reshaped.
        """
        trials, runs, dim = sums.shape
        parents = self.runs.prefix_starts[p - 1].size
        if runs == 4 * parents:
            return sums.reshape(trials, parents, 4 * dim)
        grid = np.zeros((trials, parents * 4, dim))
        grid[:, self.runs.prefix_slot[p]] = sums
        return grid.reshape(trials, parents, 4 * dim)

    def _terms(self, k: int) -> list:
        """Core k's update numerator and denominator, each shaped like M_k, and M_k itself.

        The numerator and denominator are fresh arrays, which ``update_core`` overwrites.
        """
        if k == 0 and self._core0_terms:
            return self._core0_terms
        if not (0 <= k <= self._left_valid and self._right_valid <= k + 1 <= self.L):
            self._check_left(k)
            self._check_right(k + 1)
        mat = self._mats[k]
        numer = self._left_env[k].transpose(0, 2, 1) @ self._right[k + 1]
        rows = self._left_rows[k]
        if rows is None:
            rows = (self._left_gram[k] @ mat).reshape(len(mat), -1, mat.shape[2] // 4)
        terms = [numer, (rows @ self._right_gram[k + 1].transpose(0, 2, 1)).reshape(mat.shape), mat]
        if k == 0:
            self._core0_terms = terms
        return terms

    # -- writes ------------------------------------------------------------

    def _set_core(self, k: int, mat: np.ndarray) -> None:
        """Store M_k, point ``tt.cores[k]`` at a view of it and drop what read the old core k."""
        self._left_valid = min(self._left_valid, k)
        self._right_valid = max(self._right_valid, k + 1)
        self._core0_terms = []
        self._left_rows[k] = None
        self._mats[k] = mat
        core = _as_core(mat)
        self.tt.cores[k] = core if self.tt.cores[k].ndim == 4 else core[0]

    def note_core_changed(self, k: int) -> None:
        """Re-read core ``k`` from ``tt.cores[k]`` now, which then becomes a view of M_k."""
        self._set_core(k, matricized(self.tt.cores[k]))

    def refresh_left(self, k: int) -> None:
        """Recompute position k+1 left quantities from the current core k, 0 <= k <= L - 2."""
        if not 0 <= k < self.L - 1:
            raise IndexError(f"left refresh of core {k} is outside 0..{self.L - 2}")
        self._check_left(k)
        mat = self._mats[k]
        rows = (self._left_gram[k] @ mat).reshape(len(mat), -1, mat.shape[2] // 4)
        self._left_gram[k + 1] = mat.reshape(rows.shape).transpose(0, 2, 1) @ rows
        self._left_env[k + 1] = extend_left(mat, self._left_env[k], self.runs.prefix_slot[k + 1])
        self._left_rows[k] = rows
        self._left_rows[k + 1] = None
        self._left_valid = k + 1

    def refresh_right(self, k: int) -> None:
        """Recompute position k right quantities from the current core k, 1 <= k <= L - 1."""
        if not 0 < k < self.L:
            raise IndexError(f"right refresh of core {k} is outside 1..{self.L - 1}")
        self._check_right(k + 1)
        mat = self._mats[k]
        mat_t = np.ascontiguousarray(mat.transpose(0, 2, 1))  # a view slows the grid GEMM 2x
        rows = mat.reshape(len(mat), -1, mat.shape[2] // 4) @ self._right_gram[k + 1]
        self._right_gram[k] = rows.reshape(mat.shape) @ mat_t
        self._right[k] = self._scatter(k, self._right[k + 1] @ mat_t)
        self._right_valid = k
        self._core0_terms = []

    def keep_trials(self, rows: list) -> None:
        """Keep only the trials at ``rows`` of the trial axis of a stack, cores included."""
        stores = (
            self._left_gram,
            self._right_gram,
            self._left_env,
            self._right,
            self._core0_terms,
            self._mats,
            self._left_rows,
        )
        for store in stores:
            store[:] = [None if a is None else a[rows] for a in store]
        self.tt.cores[:] = [_as_core(mat) for mat in self._mats]


def update_core(
    tt: TTDistribution,
    cache: EnvCache,
    samples: SampleSet,
    k: int,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Multiplicative update of core ``k`` in place; returns the new core.

    The cache, built on ``samples``, must hold valid left quantities at
    position ``k`` and right quantities at position ``k + 1``, or it raises
    IndexError, as it does for a ``k`` outside 0 .. L-1. ``eps`` is
    relative: ``eps`` times the trial's largest denominator entry is added
    to the denominator only. It keeps the ratio finite where the model term
    underflows to zero, and because it scales with the model it stays
    negligible on long chains, where every string's mass and with it the
    denominator is about 4^-L. A model term that is zero everywhere falls
    back to the absolute ``eps``. The new M_k is
    ``mat * (numer / (denom + eps * scale))``, computed in place in the
    numerator's array, which the cache then keeps, with ``tt.cores[k]`` a
    view of it. ``tt`` may be a stack of
    trials (see ``EnvCache``); each trial is updated on its own scale. ``tt``
    must be the train ``cache`` was built on, and ``samples`` its sample set.
    """
    if tt is not cache.tt:
        raise ValidationError("update_core needs the train its cache was built on")
    if samples.runs is not cache.runs:
        raise ValidationError("update_core needs the sample set its cache was built on")
    numer, denom, mat = cache._terms(k)
    # the same IEEE operations as mat * (numer / (denom + eps * scale)), in place; denom
    # is a fresh GEMM output, so its (T, -1) reshape is a view, and the masked fallback
    # runs only where a trial's scale is zero
    flat = denom.reshape(len(denom), -1)
    scale = flat.max(axis=1, keepdims=True)
    if not all(scale.ravel().tolist()):
        scale[scale == 0.0] = 1.0
    flat += eps * scale
    numer /= denom
    numer *= mat
    cache._set_core(k, numer)
    return tt.cores[k]


def sweep(
    tt: TTDistribution,
    cache: EnvCache,
    samples: SampleSet,
    eps: float = DEFAULT_EPS,
) -> TTDistribution:
    """One full left-to-right then right-to-left pass of site updates.

    Going right, cores 0 .. L-2 are updated and the left environments follow;
    going left, cores L-1 .. 1 are updated and the right environments follow,
    so interior cores are updated twice per sweep and the edge cores once. A
    one-site chain's core is updated once, and nothing needs a refresh.
    """
    L = tt.length
    if L == 1:
        update_core(tt, cache, samples, 0, eps)
    for k in range(L - 1):
        update_core(tt, cache, samples, k, eps)
        cache.refresh_left(k)
    for k in range(L - 1, 0, -1):
        update_core(tt, cache, samples, k, eps)
        cache.refresh_right(k)
    return tt


@np.errstate(over="ignore", invalid="ignore")
def loss(tt: TTDistribution, samples: SampleSet) -> float:
    """Shifted quadratic loss <P, P> - 2 <P, P_s>, read from a fresh ``EnvCache``'s right side.

    It is core 0's update form (``EnvCache.losses``): the self term comes from
    the Gram chain and the data term from the observed strings only, so
    neither enumerates all 4^L strings. At the perfect fit it is -sum((n_j / N)^2).
    A loss that overflows raises CapacityError, as in ``fit``.
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


# Overflow shows up as a non-finite loss, which EnvCache.losses raises.
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
    losses = [[value] for value in cache.losses()]
    walls = [0.0]  # the block's clock, one entry per sweep
    results = [None] * len(block)
    for sweeps in range(1, config.max_sweeps + 1):
        sweep(stack, cache, samples, config.eps)
        values = cache.losses()
        walls.append(time.perf_counter() - start)
        rows = []  # rows of the trial axis that run on
        for row, (i, value) in enumerate(zip(active, values)):
            trace = losses[i]
            trace.append(value)
            converged = sweeps >= config.stop_window and bool(
                trace[-1 - config.stop_window] - value
                <= config.stop_rtol * max(abs(value), 1e-300)
            )
            if converged or sweeps == config.max_sweeps:
                results[i] = TrialResult(
                    trial=block[i],
                    seed=seeds[i],
                    tt=stack.train(row),
                    losses=np.array(trace),
                    wall_times=np.array(walls),
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
    check_integer("jobs", jobs, 1)
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
    check_integer("jobs", jobs, 1)
    width = max(4 * starts.size for starts in samples.runs.prefix_starts[:-1])
    blocks = trial_blocks(config.trials, config.bond_dim, width, jobs)
    tasks = [(samples, config, block) for block in blocks]
    return FitResult(trials=[r for block in map_jobs(_fit_block, tasks, jobs) for r in block])
