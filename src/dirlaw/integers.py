"""Mean statistics of weighted k-part factorizations of the integers
n <= x, and their convergence to the Dirichlet limit law.

The central quantity is

    L(x, u) = (sum_{m<=x} f(m))^(-1) * sum_{n<=x} f(n) / G_total(n)
              * sum G(d_1, ..., d_k)

where the inner sum runs over ordered k-tuples with product n whose
first k-1 parts satisfy d_i <= n^(u_i).  As x grows L(x, u) approaches
the Dirichlet rectangle CDF attached to the model.

A tuple is fixed by one weak composition of v_p(n) into k parts at each
prime p of n.  ``_LocalTables`` calls the model's local weights once per
local class of p (``WeightModel.local_class``) and exponent v, and keeps
for each prime power p^v <= x the compositions G admits with their float
weights, the local G sum and f(p^v).  The float engines walk a pass of
n at a time with numpy only: split each n into prime-power slots by
``least_prime_powers``, drop the n with f(n) = 0, group the rest by the
row counts of their slots' tables and expand each group as one (rows,
members) block, slot by slot (smallest prime first), summing log d_j and
multiplying G.  Results scatter to tuple order; the histogram deposits
with one ``np.bincount`` per chunk of the fixed chunk list, in tuple
order, and adds the chunks in list order, so its bits depend on that
list alone; the float ``exact_lhs`` sums the in-box weight per n.
``mc_lhs`` samples from the same tables: per prime slot it draws one
row with probability G / G_sum.  Exact mode keeps a per-n recursion
over Fractions as the oracle.

The uniform k = 2 histogram skips the walker.  ``_inverse_tau`` fills
1 / tau(n) in place from the sieve, block by block, and builds no other
x-long table.  Every divisor pair (d, n) has d or n / d at most
isqrt(x); along a row with that part fixed, the bin of log d / log n
only falls or only rises, so ``_k2_run_sums`` finds each bin's run of
multiples by bisection on the per-pair bin rule and sums 1 / tau(n) over
the run from one cumsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import quadrature
from .arith import (FactoredInteger, SpfSieve, WeightModel, compositions,
                    factorize, least_prime_powers, multiplicative_table)
# cdf is unused: perfbench/tracer.py wraps it (test_tracer.py)
from .dirichlet import cdf  # noqa: F401
from .dirichlet import cdf_many
from .errors import (DomainError, IntegrityError, ResourceError,
                     UnsupportedError)
from .report import (DeviationReport, deviation_report, rect_fractions,
                     rect_grid)
from .series import tau_box_sum

_EXACT_X_LIMIT = 10_000_000
_BIN_RANGE = (10, 2000)
_CELL_GUARD = 100_000_000
_MERGE_CHUNKS = 256        # fewest chunks of the fixed reduction order
_CHUNK_N = 512             # most n per chunk beyond 256 chunks
_PASS_TUPLES = 1 << 18     # tuples per walker pass, roughly
_MC_BATCH = 1 << 14        # candidate n per Monte Carlo batch
_MC_SAMPLES = 10 ** 8      # most Monte Carlo samples per estimate
_TAU_BLOCK = 1 << 16       # most n per block of the uniform k = 2 weights
# Tie guards: d = n^u holds exactly on a measure-zero set but hits every
# perfect power; comparisons lean a hair toward inclusion so those ties
# land on the <= side, matching the exact integer comparison d <= floor(n^u).
_REL_GUARD = 1e-9
_ABS_GUARD = 1e-12


@dataclass
class HistogramGrid:
    """Dense histogram over (k-1)-dimensional scaled-logarithm bins.

    Bin b along an axis covers (b*w, (b+1)*w] with w = 1/bins_per_dim,
    except bin 0 which also includes 0.  ``weights`` holds normalized
    mass after ``finalize``; ``cum`` its inclusive prefix sums.
    """

    k: int
    bins_per_dim: int
    weights: np.ndarray
    total_weight: float = 0.0
    normalizer: float = 0.0
    cum: np.ndarray | None = None

    def finalize(self):
        self.total_weight = float(self.weights.sum())
        if self.normalizer <= 0.0:
            raise IntegrityError("histogram normalizer must be positive")
        if abs(self.total_weight / self.normalizer - 1.0) > 1e-9:
            raise IntegrityError(
                "histogram mass does not match its normalizer")
        self.weights = self.weights / self.normalizer
        c = self.weights
        for axis in range(self.k - 1):
            c = np.cumsum(c, axis=axis)
        self.cum = c
        return self


def _cells(r: np.ndarray, bins: int) -> np.ndarray:
    """Bin indices for scaled positions r = v / w in [0, bins]."""
    c = np.ceil(r * (1.0 - _REL_GUARD) - _ABS_GUARD).astype(np.int64) - 1
    return np.minimum(np.maximum(c, 0, out=c), bins - 1, out=c)


def _query_index(u: float, bins: int) -> int:
    """Largest bin whose upper edge is <= u (bin 0 always included)."""
    i = math.floor(u * bins * (1.0 + _REL_GUARD) + _ABS_GUARD) - 1
    return max(0, min(i, bins - 1))


def empirical_cdf(grid: HistogramGrid, rect) -> float:
    """Mass of bins with upper corners inside the rectangle.

    Accepts corners with coordinates in [0, 1] without a simplex cap, so
    u = (1, ..., 1) reads off the total mass.  Bias is at most one bin
    shell; at exactly grid-aligned corners (multiples of the bin width)
    it vanishes against the tie-guarded exact count.
    """
    if grid.cum is None:
        raise IntegrityError("histogram must be finalized before queries")
    u = rect.u if hasattr(rect, "u") else tuple(float(c) for c in rect)
    if len(u) != grid.k - 1:
        raise DomainError("query dimension must be k - 1")
    if any(c < 0.0 or c > 1.0 + 1e-12 for c in u):
        raise DomainError("query coordinates must lie in [0, 1]")
    idx = tuple(_query_index(c, grid.bins_per_dim) for c in u)
    return float(grid.cum[idx])


@dataclass
class _Pass:
    """The n in one range with f(n) != 0 and their tuples.

    Per n: ``n``, ``log_n`` (math.log, 0 at n = 1), ``f``, ``g_total``
    (the product of the local G sums) and ``start``, the index of its
    first tuple, plus the tuple count.  ``blocks`` yields once, per
    signature or part of one, ``(m, at, logd, g)``: the members (indices
    into ``n``) and as (rows, members) arrays each tuple's index, log d_j
    (stacked over j < k) and G weight.  Tuples run as a recursion over
    n's primes would list them, smallest prime first.
    """

    n: np.ndarray
    log_n: np.ndarray
    f: np.ndarray
    g_total: np.ndarray
    start: np.ndarray
    blocks: Iterator


class _LocalTables:
    """A model's local weights at every prime power <= x, compiled once
    per local class and exponent.

    Each prime power q = p^v maps to an entry holding log p and a table:
    the compositions of v that G admits (rows), their float G weights,
    the local G sum and f(p^v).  The model is called once per distinct
    (``local_class`` key, v) and its table shared by every p^v of that
    pair.  Identical tables are stored once, numbered in order of first
    appearance along the prime powers by (p, v), so most models keep one
    table per exponent.  Entry 0 stands for q = 1: one all-zero row of
    weight 1, which pads the n with fewer primes in ``_slots``.
    """

    def __init__(self, model: WeightModel, x: int, sieve: SpfSieve):
        self.k = k = model.k
        self.model_id = model.model_id
        interned: dict = {}        # (f, G sum, rows, G weights) -> id

        def intern(*table) -> int:
            return interned.setdefault(table, len(interned))

        # n = power[n] * cofactor[n]; the walker steps along the cofactors
        power, exponent, self._cofactor = least_prime_powers(sieve, x)
        # entry i >= 1: the i-th p^v <= x by (p, v), as ``draw``'s keys need
        pp = np.flatnonzero(self._cofactor == 1)[1:]
        pp = pp[np.lexsort((pp, sieve.spf[pp]))]
        p = sieve.spf[pp].astype(np.int64)
        v = exponent[pp].astype(np.int64)
        key = p if model.local_class is None else model.local_class(p)
        _, first, key_of = np.unique(np.stack([key, v], axis=1), axis=0,
                                     return_index=True, return_inverse=True)
        # one model call per (class, v), interned in order of first use
        key_table = np.empty(len(first), dtype=np.int64)
        intern(1.0, 1.0, ((0,) * k,), (1.0,))
        for i in np.argsort(first).tolist():
            q, e = int(p[first[i]]), int(v[first[i]])
            f = model.f_local(q, e)
            rows, gs = [], []
            for comp in compositions(e, k) if f != 0 else ():
                g = model.g_local(q, comp)
                if g != 0:
                    rows.append(comp)
                    gs.append(g)
            key_table[i] = intern(float(f), float(sum(gs)), tuple(rows),
                                  tuple(float(g) for g in gs))
        self._table = np.concatenate([[0], key_table[key_of.reshape(-1)]])
        self._logp = _log(np.concatenate([[1], p]))
        entry_of = np.zeros(x + 1, dtype=np.int32)
        entry_of[pp] = np.arange(1, len(pp) + 1)
        self._entry = entry_of[power]
        tables = list(interned)
        self._f = np.array([t[0] for t in tables])
        self._g_sum = np.array([t[1] for t in tables])
        counts = np.array([len(t[2]) for t in tables], dtype=np.int64)
        self._row_count = counts
        self._sole = set(np.flatnonzero(np.bincount(counts[1:]) == 1).tolist())
        self._row_start = np.cumsum(counts) - counts
        rows = [r for t in tables for r in t[2]]
        exps = np.array(rows, dtype=np.float64).reshape(-1, k)
        self._row_exps = exps[:, :k - 1].T.copy()      # (k - 1, rows)
        self._row_g = np.array([g for t in tables for g in t[3]])
        # row keys for ``draw``: table id plus the table's cumulative G
        # share up to and including the row, so the keys of table t lie
        # in (t, t + 1] and its last row's key is t + 1 exactly
        keys = []
        for t, table in enumerate(tables):
            if table[3]:
                cum = np.cumsum(table[3])
                keys.append(t + cum / cum[-1])
        self._row_key = np.concatenate(keys)

    def _slots(self, m: np.ndarray):
        """Per n in ``m``: the entry of each prime power (one array per
        prime, smallest first), f(n) and G_total(n)."""
        f = np.ones(len(m))
        g_total = np.ones(len(m))
        slots = []
        while (entry := self._entry[m]).any():
            tid = self._table[entry]
            f *= self._f[tid]
            g_total *= self._g_sum[tid]
            slots.append(entry)
            m = self._cofactor[m]
        return slots, f, g_total

    def draw(self, entry: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One row of each entry's table per uniform u in [0, 1): the
        first row whose cumulative G share exceeds u, so row r comes with
        probability G(r) / G_sum of its table."""
        tid = self._table[entry]
        row = np.searchsorted(self._row_key, tid + u, side="right")
        # t + u may round up to t + 1, one past the table's last row
        return np.minimum(row, self._row_start[tid] + self._row_count[tid]
                          - 1)

    def check_g_total(self, n: np.ndarray, g_total: np.ndarray):
        """Refuse n with f(n) > 0 whose tuples all have G = 0."""
        bad = np.flatnonzero(g_total <= 0.0)
        if len(bad):
            raise IntegrityError(f"model {self.model_id} vanishes on "
                                 f"n={int(n[bad[0]])} with f>0")

    def tuple_counts(self) -> np.ndarray:
        """How many tuples ``tuples`` gives each n = 0..x: the product of
        the row counts of the tables of n's prime powers."""
        local = self._row_count[self._table[self._entry]]
        return multiplicative_table(local, self._cofactor)

    def tuples(self, lo: int, hi: int) -> _Pass:
        """The tuples of every n in [lo, hi) with f(n) != 0.

        The n are grouped by signature, the row counts of the tables of
        their prime slots, and each group expands as one block, slot by
        slot with the members innermost.  A block takes the float
        operations of a per-tuple recursion in its order, so every value
        keeps its bits.
        """
        slots, f, g_total = self._slots(np.arange(lo, hi))
        keep = np.flatnonzero(f)
        n = keep + lo
        self.check_g_total(n, g_total[keep])
        steps = []      # per slot: row count (0 for q = 1), first row, log p
        for entry in slots:
            entry = entry[keep]
            tid = self._table[entry]
            steps.append((np.where(entry > 0, self._row_count[tid], 0),
                          self._row_start[tid], self._logp[entry]))
        sig = np.array([s[0] for s in steps], np.int64).reshape(-1, len(n))
        order = np.lexsort([n, *sig[::-1]])
        groups = np.split(order, np.flatnonzero(
            np.diff(sig[:, order]).any(axis=0)) + 1) if len(n) else []
        start = np.concatenate([[0], np.cumsum(np.maximum(sig, 1).prod(0))])
        return _Pass(n, _log(n), f[keep], g_total[keep], start,
                     self._blocks(groups, steps, start))

    def _blocks(self, groups, steps, start):
        for group in groups:
            rows = int(start[group[0] + 1] - start[group[0]])
            # blocks of at most _PASS_TUPLES / 16 tuples bound temporaries
            size = max(1, (_PASS_TUPLES >> 4) // rows)
            for m in (group[i:i + size] for i in range(0, len(group), size)):
                logd = np.zeros((self.k - 1, 1, len(m)))
                g = np.ones((1, len(m)))
                for digit, first, logp in steps:
                    c = int(digit[m[0]])
                    if c == 0:              # q = 1 pads the n's last slots
                        break
                    # a row count only one table has: broadcast its rows
                    row = first[m[:1] if c in self._sole else m] \
                        + np.arange(c)[:, None]
                    g = (g[:, None] * self._row_g[row]).reshape(-1, len(m))
                    logd = (logd[:, :, None] + self._row_exps[:, None, row]
                            * logp[m]).reshape(self.k - 1, -1, len(m))
                yield m, start[m] + np.arange(rows)[:, None], logd, g


def _log(n: np.ndarray) -> np.ndarray:
    """math.log of each n (0 at n = 1)."""
    return np.fromiter(map(math.log, n.tolist()), float, len(n))


def _walk_leaf_parts(fn: FactoredInteger, model: WeightModel):
    """(parts, G) over the ordered k-tuples with product n, in Fractions.

    ``parts`` holds d_1..d_{k-1}; the exact-mode oracle of the walker.
    """
    k = model.k
    facs = fn.factors
    out = []

    def rec(i: int, parts: list[int], w: Fraction):
        if i == len(facs):
            out.append((tuple(parts), w))
            return
        p, v = facs[i]
        for comp in compositions(v, k):
            g = model.g_local(p, comp)
            if g == 0:
                continue
            nxt = list(parts)
            for j in range(k - 1):
                if comp[j]:
                    nxt[j] *= p ** comp[j]
            rec(i + 1, nxt, w * Fraction(g))

    rec(0, [1] * (k - 1), Fraction(1))
    return out


def _exact_thresholds(n: int, u: Sequence[Fraction]) -> list[int]:
    """floor(n^(p/q)) per coordinate, verified by integer comparison."""
    out = []
    for frac in u:
        p, q = frac.numerator, frac.denominator
        if p >= q:
            out.append(n)
            continue
        npow = n ** p
        t = int(round(math.exp(math.log(n) * p / q))) if n > 1 else 1
        while (t + 1) ** q <= npow:
            t += 1
        while t ** q > npow:
            t -= 1
        out.append(t)
    return out


def exact_lhs(x: int, k: int, model: WeightModel, rect, sieve: SpfSieve,
              exact: bool | None = None):
    """L(x, u) by full enumeration; Fraction in exact mode, float else.

    Exact mode needs rational corners and x <= 1e7; it resolves each
    boundary d <= n^(u) by exact integer power comparison.  The floating
    path walks the histogram's tuples and uses the tie-guarded logarithm
    comparison instead.
    """
    _check_engine_args(x, k, model, sieve)
    u = rect_fractions(rect, k)
    if exact is None:
        exact = x <= 100_000
    if exact and x > _EXACT_X_LIMIT:
        raise UnsupportedError("exact mode needs x <= 1e7")

    if exact:
        num = Fraction(0)
        den = Fraction(0)
        for n in range(1, x + 1):
            fn = factorize(n, sieve)
            f = model.f_value(fn)
            if f == 0:
                continue
            f = Fraction(f)
            den += f
            thr = _exact_thresholds(n, u)
            good = Fraction(0)
            total = Fraction(0)
            for parts, g in _walk_leaf_parts(fn, model):
                total += g
                if all(d <= t for d, t in zip(parts, thr)):
                    good += g
            if total == 0:
                raise IntegrityError(
                    f"model {model.model_id} vanishes on n={n} with f>0")
            num += f * good / total
        if den == 0:
            raise IntegrityError("model weight f vanishes on [1, x]")
        return num / den

    tables = _LocalTables(model, x, sieve)
    num_terms: list[np.ndarray] = []
    den_terms: list[np.ndarray] = []
    for chunks in _passes(tables, x):
        ps = tables.tuples(chunks[0][0], chunks[-1][1])
        kept = np.empty(ps.start[-1])       # G of in-box tuples, else 0
        caps = np.array([float(c) * ps.log_n * (1.0 + _REL_GUARD)
                         + _ABS_GUARD for c in u])
        for m, at, logd, g in ps.blocks:
            kept[at] = np.where((logd <= caps[:, None, m]).all(axis=0), g, 0.0)
        owner = np.repeat(np.arange(len(ps.n)), np.diff(ps.start))
        good = np.bincount(owner, kept, minlength=len(ps.n))
        num_terms.append(ps.f * good / ps.g_total)
        den_terms.append(ps.f)
    den = math.fsum(np.concatenate(den_terms))
    if den <= 0.0:
        raise IntegrityError("model weight f vanishes on [1, x]")
    return math.fsum(np.concatenate(num_terms)) / den


def _check_engine_args(x: int, k: int, model: WeightModel, sieve: SpfSieve):
    if x < 1:
        raise DomainError("x must be positive")
    if k != model.k:
        raise DomainError("k must equal the model dimension")
    if sieve.limit < x:
        raise DomainError("sieve does not cover x")


def _chunk_ranges(x: int):
    """Fixed n-range decomposition.  Each chunk is reduced on its own and
    merged in chunk order, so the bits never depend on how the chunks are
    grouped into walker passes."""
    chunks = min(max(_MERGE_CHUNKS, -(-x // _CHUNK_N)), x)
    bounds = [1 + (x * i) // chunks for i in range(chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(chunks)
            if bounds[i] < bounds[i + 1]]


def _passes(tables: _LocalTables, x: int) -> list[list[tuple[int, int]]]:
    """Runs of consecutive chunks that one walker pass expands at once.

    A pass still reduces each of its chunks on its own, so the grouping
    moves no bits; it only sizes the numpy work: a pass takes about
    _PASS_TUPLES tuples.
    """
    ranges = _chunk_ranges(x)
    counts = np.add.reduceat(tables.tuple_counts()[1:],
                             [lo - 1 for lo, _ in ranges]).tolist()
    passes: list[list[tuple[int, int]]] = []
    size = _PASS_TUPLES
    for rng, count in zip(ranges, counts):
        if size + count > _PASS_TUPLES:
            passes.append([])
            size = 0
        passes[-1].append(rng)
        size += count
    return passes


def accumulate_histogram(x: int, k: int, model: WeightModel, bins: int,
                         sieve: SpfSieve) -> HistogramGrid:
    """Histogram of tuple positions (log d_i / log n) with model weights.

    Every tuple of every n <= x deposits f(n) * G / G_total(n) into the
    bin of its position vector; n = 1 deposits at the origin.  The
    result is finalized (normalized by sum f) before return.
    """
    _check_engine_args(x, k, model, sieve)
    if not _BIN_RANGE[0] <= bins <= _BIN_RANGE[1]:
        raise DomainError(f"bins per dimension must lie in {_BIN_RANGE}")
    return _accumulate(x, k, model, bins, sieve)


def _accumulate(x: int, k: int, model: WeightModel, bins: int,
                sieve: SpfSieve) -> HistogramGrid:
    if bins ** (k - 1) > _CELL_GUARD:
        raise ResourceError("bin grid exceeds the cell-count guard")
    shape = (bins,) * (k - 1)
    if model.model_id == "uniform" and k == 2:
        hist, norm = _accumulate_uniform_k2(x, bins, sieve)
    else:
        tables = _LocalTables(model, x, sieve)
        hist = np.zeros(shape)
        norm = 0.0
        for chunks in _passes(tables, x):
            ps = tables.tuples(chunks[0][0], chunks[-1][1])
            ln_inv = np.divide(1.0, ps.log_n, out=np.zeros_like(ps.log_n),
                               where=ps.log_n > 0.0)
            share = ps.f / ps.g_total
            cell = np.empty(ps.start[-1], dtype=np.int64)
            weights = np.empty(ps.start[-1])
            for m, at, logd, g in ps.blocks:
                cell[at] = np.ravel_multi_index(
                    tuple(_cells(logd * ln_inv[m] * bins, bins)), shape)
                weights[at] = g * share[m]
            cut = np.searchsorted(ps.n, [hi for _, hi in chunks[:-1]])
            ends = ps.start[cut].tolist()   # each chunk's tuples: one slice
            for a, b, f in zip([0, *ends], [*ends, len(cell)],
                               np.split(ps.f, cut)):   # fixed chunk order
                part = np.bincount(cell[a:b], weights[a:b], hist.size)
                hist += part.reshape(shape)
                norm += math.fsum(f)
    grid = HistogramGrid(k=k, bins_per_dim=bins, weights=hist,
                         normalizer=norm)
    return grid.finalize()


def _accumulate_uniform_k2(x: int, bins: int, sieve: SpfSieve):
    """The unweighted two-part case: each divisor pair (d, n) carries
    1 / tau(n), summed by ``_k2_run_sums``.  Beside the sieve, only the
    weights and the run buffer are x-long."""
    return _k2_run_sums(x, bins, _inverse_tau(x, sieve)), float(x)


def _inverse_tau(x: int, sieve: SpfSieve) -> np.ndarray:
    """1 / tau(n) for n = 0..x (1 at n < 2), filled in place from the sieve.

    With p = spf[n], q = n / p and e = v_p(n): e = v_p(q) + 1 if
    spf[q] = p, else 1, and tau(n) = tau(q) / e * (e + 1).  The blocks
    [lo, hi) of at most ``_TAU_BLOCK`` n have hi <= 2 lo, so q <= n / 2 < lo
    lies in a finished block.  Every tau(n) is an integer below 2^53 and
    e divides tau(q), so each step is exact, and the reciprocal equals
    1 / prod (v + 1) over the factorization bit for bit.  Only tau and
    the int8 exponents e are x-long.
    """
    spf = sieve.spf
    tau = np.ones(x + 1)
    ev = np.zeros(x + 1, dtype=np.int8)             # ev[n] = v_spf[n](n)
    lo = 2
    while lo <= x:
        hi = min(2 * lo, lo + _TAU_BLOCK, x + 1)
        p = spf[lo:hi]
        q = np.arange(lo, hi, dtype=p.dtype)
        q //= p
        q = q.astype(np.intp)
        e = np.take(ev, q)
        e *= np.take(spf, q) == p
        e += 1
        ev[lo:hi] = e
        t = np.take(tau, q, out=tau[lo:hi])
        np.divide(t, e, out=t)
        e += 1
        np.multiply(t, e, out=t)
        lo = hi
    return np.divide(1.0, tau, out=tau)


def _k2_run_sums(x: int, bins: int, weight: np.ndarray) -> np.ndarray:
    """Per bin, the sum of weight[n] over the divisor pairs (d, n) with
    n <= x, each in the ``_cells`` bin of log d / log n (n = 1 in bin 0).

    Every pair has d or m = n / d at most isqrt(x).  Along a row of fixed
    d the bin falls as n = d t grows; along a row of fixed m, with
    d > isqrt(x), it rises with d.  So each bin of a row is a run of
    consecutive items, and its sum is a difference of one cumsum over the
    row.  A bisection on the ``_cells`` rule itself counts, for every row
    and edge j at once, the items on the low side of edge j (a falling
    row numbers its bins from the top), so every pair lands in the bin
    of its own comparison.
    """
    split = math.isqrt(x)
    j = np.arange(1, bins)                    # the run ends between bins
    hist = np.zeros(bins)
    hist[0] += weight[1:].sum()               # d = 1, n = 1 included
    hist[-1] += weight[split + 1:].sum()      # m = 1: d = n > split
    run = np.zeros(x // 2 + 1)        # run[t]: sum of a row's first t items
    d = np.arange(2, split + 1)[:, None]
    m = np.arange(2, x // (split + 1) + 1)[:, None]
    # per family: the rows' first items and strides in ``weight``, their
    # lengths, item t's (d, n) and whether the bin rises along a row
    families = [(d, d, x // d, lambda t: (d, d * t), False),
                (m * (split + 1), m, x // m - split,
                 lambda t: (split + t, m * (split + t)), True)]
    for start, step, length, pair, rising in families:
        p = np.zeros((len(length), bins - 1), dtype=np.int64)
        for b in reversed(range(int(length.max(initial=0)).bit_length())):
            t = p + (1 << b)
            dt, n = pair(np.minimum(t, length))
            c = _cells(np.log(dt.astype(np.float64))
                       / np.log(n.astype(np.float64)) * bins, bins)
            low = (c if rising else bins - 1 - c) <= j - 1
            p = np.where((t <= length) & low, t, p)
        ends = np.hstack([0 * length, p, length])
        cum = np.empty(ends.shape)            # run[ends] per row
        for i, (a, s) in enumerate(zip(start[:, 0].tolist(),
                                       step[:, 0].tolist())):
            row = weight[a::s]
            np.cumsum(row, out=run[1:len(row) + 1])
            cum[i] = run[ends[i]]
        sums = np.diff(cum, axis=1).sum(axis=0)
        hist += sums if rising else sums[::-1]
    return hist


def sup_deviation(x: int, k: int, model: WeightModel, grid_step,
                  sieve: SpfSieve) -> DeviationReport:
    """Grid sup of |L(x, u) - F(u)| over the step grid.

    The empirical side is a single enumeration pass binned at exactly
    the grid resolution, which reproduces the pointwise tie-guarded
    counts at every grid corner; the limit side is one ``cdf_many``
    call over the grid.
    """
    _check_engine_args(x, k, model, sieve)
    step = Fraction(grid_step)
    grid = _accumulate(x, k, model, grid_bins(step), sieve)
    points = rect_grid(k, step)
    corners = [tuple(float(c) for c in u) for u in points]
    rate = min([1.0] + [float(a) for a in model.alpha_exact])
    return deviation_report(
        "integers", x, k, model.model_id, step, points,
        [empirical_cdf(grid, uf) for uf in corners],
        cdf_many(model.alpha, corners, 1e-9),
        math.log(x) ** rate)


def grid_bins(grid_step) -> int:
    """Bins per axis after ``sup_deviation``'s sieve-free grid checks."""
    step = Fraction(grid_step)
    if step <= 0:
        raise DomainError("grid step must lie in (0, 1/2]")
    bins = Fraction(1) / step
    if bins.denominator != 1:
        raise DomainError("grid step must divide 1")
    if step < Fraction(1, 100):
        raise DomainError("grid step must be at least 0.01")
    return int(bins)


def convergence_study(xs: Sequence[int], k: int, model: WeightModel,
                      grid_step, sieve: SpfSieve) -> list[DeviationReport]:
    """Deviation reports along increasing x (limit values are cached)."""
    if list(xs) != sorted(set(xs)):
        raise DomainError("scales must be strictly increasing")
    return [sup_deviation(x, k, model, grid_step, sieve) for x in xs]


def mc_lhs(x: int, k: int, model: WeightModel, rect, n_samples: int,
           seed: int, sieve: SpfSieve) -> tuple[float, float]:
    """Monte Carlo estimate of L(x, u): (estimate, stderr).

    Samples n uniformly with f-rejection (only models with f <= 1) and
    one G-weighted tuple per accepted n.  An independent route used to
    cross-check the exact enumeration.  The draws come in batches of
    ``_MC_BATCH`` candidates over the walker's local tables: one uniform
    per candidate accepts it when below f(n), then one per prime slot,
    smallest prime first, picks that prime's composition.
    """
    _check_engine_args(x, k, model, sieve)
    u = mc_corner(k, model, rect, n_samples)
    rng = np.random.Generator(np.random.PCG64(seed))
    tables = _LocalTables(model, x, sieve)
    hits = 0
    got = 0
    while got < n_samples:
        n = rng.integers(1, x + 1, size=_MC_BATCH)
        slots, f, g_total = tables._slots(n)
        keep = np.flatnonzero(rng.random(_MC_BATCH) < f)[: n_samples - got]
        n = n[keep]
        tables.check_g_total(n, g_total[keep])
        logd = np.zeros((k - 1, len(n)))
        for entry in slots:
            entry = entry[keep]
            row = tables.draw(entry, rng.random(len(n)))
            logp = tables._logp[entry]
            for d, e in zip(logd, tables._row_exps):
                d += e[row] * logp
        log_n = _log(n)
        inside = np.all([d <= c * log_n * (1.0 + _REL_GUARD) + _ABS_GUARD
                         for c, d in zip(u, logd)], axis=0)
        hits += int(np.count_nonzero(inside))
        got += len(n)
    p = hits / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)


def mc_corner(k: int, model: WeightModel, rect,
              n_samples: int) -> list[float]:
    """The corner as floats after ``mc_lhs``'s sieve-free checks."""
    if not model.f_bounded_by_one:
        raise UnsupportedError(
            "f-rejection sampling needs a model with f <= 1")
    if n_samples < 1000:
        raise DomainError("sample count must be at least 1000")
    if n_samples > _MC_SAMPLES:
        raise ResourceError("sample count exceeds the 1e8 guard")
    return [float(c) for c in rect_fractions(rect, k)]


# ------------------------------------------------ weighted two-log moments

def box_floors(x_vec: Sequence[float], k: int) -> list[int]:
    """Box-bound floors after ``weighted_sum_S``'s sieve-free checks."""
    bounds = [float(v) for v in x_vec]
    if len(bounds) != k or k < 2:
        raise DomainError("the box needs exactly k >= 2 bounds")
    if not all(math.isfinite(v) for v in bounds):
        raise DomainError("box bounds must be finite")
    if any(v < math.e - 1e-12 for v in bounds):
        raise DomainError("box bounds must be at least e")
    size = 1.0
    for v in bounds:
        size *= v
    if size > _CELL_GUARD:
        raise ResourceError("box volume exceeds the 1e8 guard")
    return [math.floor(v) for v in bounds]


def weighted_sum_S(x_vec: Sequence[int], k: int, sieve: SpfSieve)\
        -> tuple[float, float, float]:
    """Sum of prod (log d_j)^2 / tau_k(prod d_j) over the box d_j <= x_j.

    Returns (S, main_term, residual_ratio) where the main term is
    prod_j integral_1^{x_j} (log y)^(1/k + 1) dy / Gamma(1/k)^k and
    residual_ratio = (S - main) / main.

    The sum is ``tau_box_sum`` over the axes (log d)^2 from math.log
    (0.0 at d = 1), so it is bitwise reproducible against a plain nested
    loop that follows the same (log d_1)^2 * (log d_2)^2 / tau bracket.
    """
    xs = box_floors(x_vec, k)
    log_sq = [0.0] + [math.log(d) ** 2 for d in range(2, max(xs) + 1)]
    s_val = tau_box_sum([log_sq[:x] for x in xs], sieve).real

    inv_k = 1.0 / k
    main = 1.0
    for xj in x_vec:                     # real bounds, not floors
        main *= _log_power_integral(float(xj), inv_k + 1.0)
    main /= math.gamma(inv_k) ** k
    return s_val, main, (s_val - main) / main


def _log_power_integral(x: float, c: float) -> float:
    """integral_1^x (log y)^c dy via y = e^t and tanh-sinh."""
    if x <= 1.0:
        return 0.0
    top = math.log(x)
    return quadrature.integrate(
        lambda t: t ** c * np.exp(t), 0.0, top, tol=1e-10)
