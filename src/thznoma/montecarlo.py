"""Monte Carlo outage and sum-rate sweeps.

A sweep runs a SweepSpec (grid, schemes, seed, trial and worker counts) over
a ScenarioConfig, the link. Every grid point is a ScenarioConfig: the
sweep's scenario with one field replaced, the target rate R_m = R_n for
``outage`` and the transmit power for ``sumrate``, validated like any
scenario. Neither swept field enters the channel, so the grid is an array
axis of the kernel. A link is a channel builder and an envelope law:
``"thz"`` is the direct THz channel plus the surface's, Nakagami-m faded,
``"baseline"`` the free-space reference channel, Rayleigh faded, and
``validate``'s ``"direct"`` the THz link without its surface. A task holds
the scheme names, the first point's scenario and two (P, 1) columns, every
point's target rate and transmit power. A chunk groups the links its schemes
need by Nakagami shape m, the one thing that tells two links' envelope laws
apart (``_plan``: {m: {link: [scheme, ...]}}), draws each group's gains once
and evaluates each scheme over all P points (common random numbers), taking
the grid in slabs of at most SLAB points so its temporaries are (SLAB, n)
however long the grid is. ``_reduce`` turns each scheme's per-trial outcomes
into the chunk's record {(scheme, key): count or moments}, ``_merge`` the
chunks' records into the sweep's {(scheme, key): (mean, stderr)}. Each
point's estimate is its own marginal one; differences between points and
schemes are paired. Every link's stream has the chunk's key, so where the
baseline's m equals the THz link's (the default m = 1) it shares that draw.

Trials are partitioned into fixed-size chunks; every chunk owns an RNG
stream spawned from the seed by (domain, 0, chunk) key, so results
are identical for any worker count and workers only decide which chunks
run where. A sweep forks a pool only when every worker gets at least
POOL_EVALS of work, a chunk counting DRAW_EVALS for its draws plus one
per grid point and scheme: ``workers`` is an upper bound, and a sweep
with less work runs every chunk in the parent, channels included. With
a pool the workers build the channels, the parent none, and a dead pool
is the sweep's ValueError. A chunk's channels are formed in blocks of
BLOCK trials. A sweep gives the same bits for any worker count, rerun
and CPU dispatch path:

- a chunk's stream and draw order depend on its key alone: one draw of
  shape (b, 2, M*N) consumes the stream as b trials each drawing the far
  user's (M, N) envelopes, then the near user's, would;
- a chunk's sums accumulate in trial order (np.add.accumulate, not
  pairwise np.sum) and chunks merge in chunk order, wherever they ran;
- no estimate cancels (``_merge``), so the last-ulp differences of a
  gain or a log2 between dispatch paths stay below the CSV's 12 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import allocation
from .channel import (baseline_channel_matrix, direct_channel_matrix,
                      ris_channel_matrix, sample_nakagami)
from .config import FAR, NEAR, ConfigError, ScenarioConfig, _int_at_least
from .noma import capacity, outage_indicators, sinr

CHUNK = 1024  # trials per RNG stream; fixed, never derived from worker count
BLOCK = 32    # trials whose channels are formed at once; temporaries stay in cache
SLAB = 64     # grid points a scheme is evaluated on at once; bounds peak memory
# work is counted in evaluations, one scheme at one grid point over a chunk
DRAW_EVALS = 72   # what a chunk's draws count as
POOL_EVALS = 768  # the least work a pool worker is given

_DOMAIN_OUTAGE = 1
_DOMAIN_SUMRATE = 2

OUTAGE_SCHEMES = (allocation.FIXED, allocation.FAIR)
SUMRATE_SCHEMES = (allocation.FIXED, allocation.FAIR, allocation.IMPROVED, "baseline")


@dataclass(frozen=True)
class SweepSpec:
    grid: tuple
    schemes: tuple
    seed: int
    trials: int              # per grid point and scheme
    workers: int = 1         # decides where chunks run, never what they give

    def __post_init__(self):
        # SeedSequence(None) would draw OS entropy, a different stream per chunk
        for name, low in (("seed", 0), ("trials", 1), ("workers", 1)):
            constraint, test = _int_at_least(low)
            if not test(getattr(self, name)):
                raise ConfigError(name, constraint, getattr(self, name))
        if len(self.grid) == 0:
            raise ConfigError("grid", "at least one point", self.grid)
        for a, b in zip(self.grid, self.grid[1:]):
            # a float grid can collapse: 1e16 + 1 == 1e16
            if b <= a:
                raise ConfigError("grid", "strictly increasing points", (a, b))
        if len(self.schemes) == 0:
            raise ConfigError("schemes", "at least one scheme", self.schemes)
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes", "distinct scheme names", self.schemes)


@lru_cache(maxsize=16)
def _deterministic_parts(cfg: ScenarioConfig, link: str) -> tuple:
    """Read-only (|D|^2, c, ||G||^2) per user, c = 2 Re(conj(G)∘D), of the
    link's fading-free direct (D) and surface (G) matrices, cached per
    scenario and link. With envelopes E a user's gain is ||E∘D + G||^2 =
    E^2·|D|^2 + E·c + ||G||^2. Only "thz" has a surface; "direct" is its D."""
    if link == "direct":  # "thz"'s |D|^2 with zero c and ||G||^2, all read-only
        dd = _deterministic_parts(cfg, "thz")[0]
        return dd, np.broadcast_to(0.0, dd.shape), np.broadcast_to(0.0, 2)
    build = baseline_channel_matrix if link == "baseline" else direct_channel_matrix
    d = np.stack([build(cfg, u).ravel() for u in (FAR, NEAR)])
    g = (np.stack([ris_channel_matrix(cfg, u).ravel() for u in (FAR, NEAR)])
         if link == "thz" else np.zeros_like(d))
    parts = (d.real ** 2 + d.imag ** 2,
             2.0 * (g.real * d.real + g.imag * d.imag),
             np.sum(g.real ** 2 + g.imag ** 2, axis=-1))
    for part in parts:
        part.setflags(write=False)
    return parts


def _gain_moments(cfg: ScenarioConfig, link: str, shape_m: float) -> tuple:
    """Exact (mean, variance) of each user's gain on the link at Nakagami
    shape m, two (2,) arrays in user order.

    A gain is sum_j (E_j^2 |D_j|^2 + E_j c_j) + ||G||^2 with iid envelopes
    of moments mu_k = E[E^k] = Gamma(m + k/2) / (Gamma(m) m^(k/2))
    (Nakagami, 1960): mu_2 = 1, Var E^2 = 1/m, mu_3 - mu_1 = mu_1 / (2m) as
    Gamma(m + 3/2) = (m + 1/2) Gamma(m + 1/2), and 1 - mu_1^2 = -expm1(2 ln
    mu_1). From m = 30 up, where lgamma's difference cancels, ln mu_1 is the
    series -1/(8m) + 1/(192m^3) - 1/(640m^5) + 17/(14336m^7), within 3e-14.
    Without fading every envelope is 1 and the variance is 0.
    """
    dd, c, gg = _deterministic_parts(cfg, link)
    if not cfg.fading_enabled:
        return dd.sum(axis=-1) + c.sum(axis=-1) + gg, np.zeros(2)
    x = 1.0 / shape_m
    log_mu1 = (x * (-1 / 8 + x * x * (1 / 192 + x * x * (-1 / 640 + x * x * 17 / 14336)))
               if shape_m >= 30 else
               math.lgamma(shape_m + 0.5) - math.lgamma(shape_m) - 0.5 * math.log(shape_m))
    mu1 = math.exp(log_mu1)
    mean = dd.sum(axis=-1) + mu1 * c.sum(axis=-1) + gg
    var = ((dd * dd).sum(axis=-1) / shape_m - math.expm1(2.0 * log_mu1)
           * (c * c).sum(axis=-1) + mu1 / shape_m * (dd * c).sum(axis=-1))
    return mean, var


def _chunk_sizes(trials: int):
    full, rest = divmod(trials, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def _chunk_rng(seed: int, domain: int, chunk: int):
    """The chunk's stream. The 0 stands where a grid point's index was when
    each point had its own stream; keeping it keeps the outputs of one-point
    sweeps and of the first point of every sweep."""
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(domain, 0, chunk))
    return np.random.default_rng(ss)


def _chunk_gains(shape_m: float, cfg: ScenarioConfig, links,
                 rng: np.random.Generator, n: int) -> np.ndarray:
    """(len(links), 2, n) squared Frobenius gains of n trials of cfg's named
    links (a list of names, or a ``_plan`` group), rows in user order.

    The links share the Nakagami shape m, and cfg sets fading and the M*N
    envelopes per user, so one draw serves them all. Each trial draws the
    far user's envelopes, then the near user's; a block of trials takes
    its draws with one call and forms each user's gains with two
    matrix-vector products. Without fading every envelope is 1.0. A gain
    that is not finite raises ValueError, in the sweeps and in validate.
    """
    fading, size = cfg.fading_enabled, cfg.user_antennas * cfg.bs_antennas
    parts = [_deterministic_parts(cfg, link) for link in links]
    gains = np.empty((len(links), 2, n))
    for start in range(0, n, BLOCK):
        b = min(BLOCK, n - start)
        env = (sample_nakagami(shape_m, rng, (b, 2, size)) if fading
               else np.ones((b, 2, size))).transpose(1, 0, 2)
        sq = env * env
        for out, (dd, c, gg) in zip(gains, parts):
            out[:, start:start + b] = ((sq @ dd[:, :, None])[..., 0]
                                       + (env @ c[:, :, None])[..., 0]
                                       + gg[:, None])
    if not np.all(np.isfinite(gains)):
        raise ValueError("both users' channel gains must be finite")
    return gains


def _reduce(outcome: np.ndarray) -> np.ndarray:
    """An outcome's record entry over its last (trial) axis, by dtype as
    ``_merge`` merges it: an event's count, or a float's (..., 3) moments,
    its first value x0 and the trial-order sums of x - x0 and (x - x0)^2;
    the shift keeps an unfaded sweep's stderr exactly 0."""
    if outcome.dtype == bool:
        return np.count_nonzero(outcome, axis=-1)
    x0 = outcome[..., :1]
    dev = outcome - x0
    return np.stack([x0[..., 0], np.add.accumulate(dev, axis=-1)[..., -1],
                     np.add.accumulate(dev * dev, axis=-1)[..., -1]], axis=-1)


def _scheme_outcomes(domain: int, scheme: str, g_far: np.ndarray,
                     g_near: np.ndarray, cfg: ScenarioConfig,
                     target: np.ndarray, power: np.ndarray) -> dict:
    """One scheme's per-trial outcomes over a chunk, (P, n) arrays: events
    ``near_outage`` and ``far_outage`` for ``outage``, float ``sum_rate``
    for ``sumrate``. The (n,) gains broadcast against the (P, 1) columns
    ``target`` (R = R_m = R_n) and ``power`` (W).

    Power is allocated per the scheme from the far user's instantaneous
    gain. On the feasible fair branch the far capacity is R_m identically
    (the coefficient is the exact solution of the rate equation), so that
    value is used directly rather than re-rounded through the SINR chain;
    the far outage event is then exactly the infeasibility event.
    """
    s2 = cfg.noise_power_w
    # the baseline link is allocated like fair
    a_far, feasible = allocation.allocate(
        allocation.FAIR if scheme == "baseline" else scheme, g_far, power, s2,
        target, cfg.fixed_alpha_far)
    a_near = 1.0 - a_far
    c_far = np.where(feasible & (scheme != allocation.FIXED), target,
                     capacity(sinr(g_far, a_far, a_near, power, s2)))
    c_near = capacity(sinr(g_near, a_near, 0.0, power, s2))
    if domain == _DOMAIN_SUMRATE:
        return {"sum_rate": c_far + c_near}
    c_cross = capacity(sinr(g_near, a_far, a_near, power, s2))
    return dict(zip(("near_outage", "far_outage"),
                    outage_indicators(c_cross, c_near, c_far, target, a_far)))


def _plan(cfg: ScenarioConfig, schemes: tuple) -> dict:
    """The links the schemes need, grouped by Nakagami shape, ``"thz"``
    first: {m: {link: [scheme, ...]}}. ``"thz"`` has cfg's m,
    ``"baseline"`` is Rayleigh faded (m = 1). Every link's stream has the
    chunk's key, so the links of one m share one draw."""
    plan = {}
    for s in sorted(schemes, key="baseline".__eq__):
        m, link = (1.0, "baseline") if s == "baseline" else (cfg.shape_m, "thz")
        plan.setdefault(m, {}).setdefault(link, []).append(s)
    return plan


def _run_chunk(cfg: ScenarioConfig, schemes: tuple, target: np.ndarray,
               power: np.ndarray, seed: int, domain: int, chunk: int,
               n: int) -> dict:
    """The chunk's record {(scheme, key): ``_reduce``d ``_scheme_outcomes``}.

    ``cfg`` is the first point's scenario; ``target`` and ``power`` are
    every point's (P, 1) columns. Each shape group of ``_plan`` opens the
    chunk's stream once. SIC roles go by ascending gain; tied gains are
    equal. Every row is the same elementwise computation, so taking the
    grid in slabs of SLAB rows, each reduced before the next, changes no bit.
    """
    record = {}
    for shape_m, links in _plan(cfg, schemes).items():
        gains = _chunk_gains(shape_m, cfg, links, _chunk_rng(seed, domain, chunk), n)
        for served, g in zip(links.values(), gains):
            g_far, g_near = np.sort(g, axis=0)
            for scheme in served:
                slabs = [{key: _reduce(x) for key, x in _scheme_outcomes(
                    domain, scheme, g_far, g_near, cfg, target[i:i + SLAB],
                    power[i:i + SLAB]).items()}
                    for i in range(0, len(target), SLAB)]
                for key in slabs[0]:
                    record[scheme, key] = np.concatenate([s[key] for s in slabs])
    return record


def _merge(parts: list, sizes: list) -> dict:
    """The merged record {key: (mean, stderr)}, arrays over the key's leading
    axes, of the chunks' records of sizes trials, each key merged in chunk
    order by ``_reduce``'s kind. Integer counts add, to a share p of the t
    trials with stderr sqrt(p (1 - p) / t). Moments merge by the pairwise
    update of Chan, Golub and LeVeque (Am. Stat., 1983), one running mean and
    sum of squared deviations: nothing cancels, and equal values give 0."""
    merged = {}
    for key in parts[0]:
        series = [part[key] for part in parts]
        if np.issubdtype(series[0].dtype, np.integer):
            p = sum(series) / sum(sizes)
            merged[key] = p, np.sqrt(p * (1.0 - p) / sum(sizes))
            continue
        t = mean = m2 = 0
        for n, part in zip(sizes, series):
            x0, dev, devsq = np.moveaxis(part, -1, 0)
            delta = x0 + dev / n - mean
            mean += delta * (n / (t + n))
            m2 += devsq - dev * dev / n + delta * delta * (t * n / (t + n))
            t += n
        merged[key] = mean, np.sqrt(np.maximum(m2, 0.0) / t / t)
    return merged


def _run_sweep(spec: SweepSpec, cfg: ScenarioConfig, domain: int,
               swept: str, allowed: tuple) -> dict:
    """The chunks' merged record {(scheme, key): (mean, stderr)}, two
    (P,) arrays over spec.grid, by ``_merge``. Schemes must be in ``allowed``."""
    for s in spec.schemes:
        if s not in allowed:
            raise ConfigError("schemes", f"one of {allowed}", s)
    points = [cfg.replace(**{swept: float(v)}) for v in spec.grid]
    target = np.array([[p.target_rate] for p in points], dtype=float)
    power = np.array([[p.tx_power_w] for p in points], dtype=float)
    sizes = _chunk_sizes(spec.trials)
    tasks = [(points[0], spec.schemes, target, power, spec.seed, domain,
              ci, n) for ci, n in enumerate(sizes)]
    # a pool forks all its workers up front, so never more than there are
    # tasks, and each worker must get POOL_EVALS to repay starting it
    work = len(tasks) * (DRAW_EVALS + len(points) * len(spec.schemes))
    workers = min(spec.workers, len(tasks), work // POOL_EVALS)
    if workers > 1:
        # imported here: the pool's modules cost about 25 ms of start-up
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            parts = list(executor.map(_run_chunk, *zip(*tasks), chunksize=1))
        except BrokenProcessPool as exc:
            raise ValueError(f"worker pool failed: {exc}") from exc
        finally:
            # also on KeyboardInterrupt: drop the queued chunks
            executor.shutdown(cancel_futures=True)
    else:
        parts = [_run_chunk(*t) for t in tasks]
    return _merge(parts, sizes)


def run_outage_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> dict:
    """Near/far outage (and stderr) vs far-user target rate R_m = R_n."""
    return _run_sweep(spec, cfg, _DOMAIN_OUTAGE, "target_rate",
                      allocation.SCHEMES)


def run_sumrate_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> dict:
    """Mean achieved sum rate (and stderr) vs transmit power (dBm)."""
    return _run_sweep(spec, cfg, _DOMAIN_SUMRATE, "tx_power_dbm",
                      SUMRATE_SCHEMES)
