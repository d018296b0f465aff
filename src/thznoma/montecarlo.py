"""Monte Carlo outage and sum-rate sweeps.

Every grid point is a ScenarioConfig: the sweep's scenario with one field
replaced, the target rate R_m = R_n for ``outage`` and the transmit power
for ``sumrate``. Trials are partitioned into fixed-size chunks; every
chunk owns an RNG stream spawned from the master seed by (domain, 0,
chunk) key, so results are identical for any worker count and workers
only decide which chunks run where. Neither swept field enters the
channel, so a chunk draws its gains once and every grid point and scheme
is evaluated on them (common random numbers): each point's estimate is
still its own marginal one, while differences between points and between
schemes are paired. The baseline scheme has its own scenario. Its stream
has the same key, so where its envelope law equals the THz link's (the
default m = 1) it shares the THz link's draw; otherwise it draws its own.

One chunk is evaluated as arrays, its channels formed in blocks of BLOCK
trials. A sweep gives the same bits for any worker count, rerun and CPU
dispatch path:

- a chunk's stream and draw order depend on its key alone: one draw of
  shape (b, 2, M*N) consumes the stream as b trials each drawing the far
  user's (M, N) envelopes, then the near user's, would;
- a chunk's sums accumulate in trial order (np.add.accumulate, not
  pairwise np.sum) and chunks merge in chunk order, wherever they ran;
- no estimate cancels (``_rate_stats``), so the last-ulp differences of a
  gain or a log2 between dispatch paths stay below the CSV's 12 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import allocation
from .channel import direct_channel_matrix, ris_channel_matrix, sample_nakagami
from .config import FAR, NEAR, ConfigError, ScenarioConfig
from .noma import capacity, outage_indicators, sinr

CHUNK = 1024  # trials per RNG stream; fixed, never derived from worker count
BLOCK = 32    # trials whose channels are formed at once; temporaries stay in cache

_DOMAIN_OUTAGE = 1
_DOMAIN_SUMRATE = 2

OUTAGE_SCHEMES = (allocation.FIXED, allocation.FAIR)
SUMRATE_SCHEMES = (allocation.FIXED, allocation.FAIR, allocation.IMPROVED, "baseline")


@dataclass(frozen=True)
class SweepSpec:
    grid: tuple
    schemes: tuple
    master_seed: int

    def __post_init__(self):
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


def non_ris_non_thz_baseline(cfg: ScenarioConfig) -> ScenarioConfig:
    """Reference link without the surface and without THz propagation.

    Free-space loss at the sub-6GHz reference carrier, Rayleigh fading,
    no molecular absorption, no misalignment, single ray. Geometry, array
    sizes and the power/noise budget carry over.
    """
    return cfg.replace(
        freespace_baseline=True,
        ris_elements=0,
        shape_m=1.0,
        absorption_coeff=0.0,
        ray_count=1,
        nlos_gains=(),
        nlos_delays=(),
    )


@lru_cache(maxsize=16)
def _deterministic_parts(cfg: ScenarioConfig) -> tuple:
    """(|D|^2, c, ||G||^2) per user, c = 2 Re(conj(G)∘D), of the fading-free
    direct (D) and surface (G) matrices, cached per scenario. With envelopes
    E a user's gain is ||E∘D + G||^2 = E^2·|D|^2 + E·c + ||G||^2."""
    d = np.stack([direct_channel_matrix(cfg, u).ravel() for u in (FAR, NEAR)])
    g = np.stack([ris_channel_matrix(cfg, u).ravel() for u in (FAR, NEAR)])
    return (d.real ** 2 + d.imag ** 2,
            2.0 * (g.real * d.real + g.imag * d.imag),
            np.sum(g.real ** 2 + g.imag ** 2, axis=-1))


def _law(cfg: ScenarioConfig) -> tuple:
    """What a scenario's envelope draw depends on: (fading, m, M*N)."""
    return cfg.fading_enabled, cfg.shape_m, cfg.user_antennas * cfg.bs_antennas


def _chunk_sizes(trials: int):
    full, rest = divmod(trials, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def _chunk_rng(master_seed: int, domain: int, chunk: int):
    """The chunk's stream. The 0 stands where a grid point's index was when
    each point had its own stream; keeping it keeps the outputs of one-point
    sweeps and of the first point of every sweep."""
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(domain, 0, chunk))
    return np.random.default_rng(ss)


def _chunk_gains(cfgs: list, rng: np.random.Generator, n: int) -> np.ndarray:
    """(len(cfgs), 2, n) squared Frobenius gains of n trials, rows in user order.

    The scenarios share one ``_law``, so one draw serves them all. Each
    trial draws the far user's envelopes, then the near user's; a block of
    trials takes its draws with one call and forms each user's gains with
    two matrix-vector products. Without fading every envelope is 1.0.
    """
    fading, shape_m, size = _law(cfgs[0])
    parts = [_deterministic_parts(cfg) for cfg in cfgs]
    gains = np.empty((len(cfgs), 2, n))
    for start in range(0, n, BLOCK):
        b = min(BLOCK, n - start)
        env = (sample_nakagami(shape_m, rng, (b, 2, size)) if fading
               else np.ones((b, 2, size))).transpose(1, 0, 2)
        sq = env * env
        for out, (dd, c, gg) in zip(gains, parts):
            out[:, start:start + b] = ((sq @ dd[:, :, None])[..., 0]
                                       + (env @ c[:, :, None])[..., 0]
                                       + gg[:, None])
    return gains


def _moments(rate: np.ndarray) -> tuple:
    """(rate sum, x0, S, Q) of one chunk's rates, each sum in trial order:
    S and Q sum x - x0 and (x - x0)^2 about the first rate x0."""
    dev = rate - rate[0]
    return (float(np.add.accumulate(rate)[-1]), float(rate[0]),
            float(np.add.accumulate(dev)[-1]),
            float(np.add.accumulate(dev * dev)[-1]))


def _scheme_sums(domain: int, scheme: str, g_far: np.ndarray,
                 g_near: np.ndarray, cfg: ScenarioConfig) -> tuple:
    """One scheme's sums over a chunk: (near_count, far_count) of outage
    events for ``outage``, ``_moments`` of the sum rate for ``sumrate``.

    Both users' target is cfg.target_rate. Power is allocated per the
    scheme from the far user's instantaneous gain. On the feasible fair
    branch the far capacity is R_m identically (the coefficient is the
    exact solution of the rate equation), so that value is used directly
    rather than re-rounded through the SINR chain; the far outage event is
    then exactly the infeasibility event.
    """
    target = cfg.target_rate
    p, s2 = cfg.tx_power_w, cfg.noise_power_w
    # the baseline link is allocated like fair
    a_far, feasible = allocation.allocate(
        allocation.FAIR if scheme == "baseline" else scheme, g_far, p, s2,
        target, cfg.fixed_alpha_far)
    a_near = 1.0 - a_far
    free = ~(feasible & (scheme != allocation.FIXED))
    c_far = np.full(g_far.shape, target)
    c_far[free] = capacity(sinr(g_far[free], a_far[free], a_near[free], p, s2))
    c_near = capacity(sinr(g_near, a_near, 0.0, p, s2))
    if domain == _DOMAIN_SUMRATE:
        return _moments(c_far + c_near)
    c_cross = capacity(sinr(g_near, a_far, a_near, p, s2))
    near, far = outage_indicators(c_cross, c_near, c_far, target, target,
                                  a_far)
    return int(np.count_nonzero(near)), int(np.count_nonzero(far))


def _run_chunk(points: tuple, master_seed: int, domain: int, chunk: int,
               n: int) -> list:
    """One {scheme: ``_scheme_sums``} per point.

    ``points`` holds each grid point's ``_point_groups`` result. Gains are
    drawn once, on the first point's scenarios (the swept target or power
    does not enter the gains), and every point evaluates its schemes on
    them. Every scenario's stream has the chunk's key, so scenarios with
    one envelope law would draw the same envelopes: each law opens the
    stream once and its scenarios share the draw. SIC roles go by
    ascending gain, ties to the nominal far user.
    """
    cfgs = [cfg for cfg, _ in points[0]]
    laws = {}
    for cfg in cfgs:
        laws.setdefault(_law(cfg), []).append(cfg)
    drawn = {}
    for group in laws.values():
        drawn.update(zip(group, _chunk_gains(
            group, _chunk_rng(master_seed, domain, chunk), n)))
    gains = []
    for cfg in cfgs:
        g = drawn[cfg]
        if not np.all(np.isfinite(g)):
            raise ValueError("both users' channel gains must be finite")
        swap = g[FAR] > g[NEAR]
        gains.append((np.where(swap, g[NEAR], g[FAR]),
                      np.where(swap, g[FAR], g[NEAR])))
    return [{scheme: _scheme_sums(domain, scheme, g_far, g_near, cfg)
             for (cfg, schemes), (g_far, g_near) in zip(groups, gains)
             for scheme in schemes}
            for groups in points]


def _point_groups(cfg: ScenarioConfig, schemes: tuple) -> tuple:
    """Pair one grid point's scenarios with their schemes."""
    thz = tuple(s for s in schemes if s != "baseline")
    groups = ((cfg, thz),) if thz else ()
    if "baseline" in schemes:
        groups += ((non_ris_non_thz_baseline(cfg), ("baseline",)),)
    return groups


def _outage_stats(parts: list, sizes: list) -> dict:
    """Near and far outage estimates of one point from its chunks' counts."""
    t = sum(sizes)
    p_near = sum(near for near, _ in parts) / t
    p_far = sum(far for _, far in parts) / t
    return {
        "near_outage": p_near,
        "near_outage_stderr": math.sqrt(p_near * (1.0 - p_near) / t),
        "far_outage": p_far,
        "far_outage_stderr": math.sqrt(p_far * (1.0 - p_far) / t),
    }


def _rate_stats(parts: list, sizes: list) -> dict:
    """Mean sum rate of one point and its stderr, its chunks' ``_moments``
    merged in chunk order by the pairwise update of Chan, Golub and LeVeque
    (Am. Stat., 1983): nothing cancels, and equal rates give exactly 0."""
    t = 0
    rsum = mean = m2 = 0.0
    for n, (ps, x0, dev, devsq) in zip(sizes, parts):
        rsum += ps
        delta = x0 + dev / n - mean
        mean += delta * (n / (t + n))
        m2 += devsq - dev * dev / n + delta * delta * (t * n / (t + n))
        t += n
    return {"sum_rate": rsum / t,
            "sum_rate_stderr": math.sqrt(max(m2, 0.0) / t / t)}


def _run_sweep(spec: SweepSpec, cfg: ScenarioConfig, domain: int,
               swept: str, allowed: tuple) -> dict:
    """Per scheme, each ``_outage_stats`` or ``_rate_stats`` key as an array
    over spec.grid. Every scheme must be in ``allowed``."""
    for s in spec.schemes:
        if s not in allowed:
            raise ConfigError("schemes", f"one of {allowed}", s)
    points = tuple(_point_groups(cfg.replace(**{swept: float(v)}), spec.schemes)
                   for v in spec.grid)
    sizes = _chunk_sizes(cfg.trials)
    tasks = [(points, spec.master_seed, domain, ci, n)
             for ci, n in enumerate(sizes)]
    # a pool forks all its workers up front, so never more than there are tasks
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        # imported here: the pool's modules cost about 25 ms of start-up
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            parts = list(executor.map(_run_chunk, *zip(*tasks), chunksize=1))
        finally:
            # also on KeyboardInterrupt: drop the queued chunks
            executor.shutdown(cancel_futures=True)
    else:
        parts = [_run_chunk(*t) for t in tasks]
    point_stats = _rate_stats if domain == _DOMAIN_SUMRATE else _outage_stats
    series = {}
    for scheme in spec.schemes:
        stats = [point_stats([c[point][scheme] for c in parts], sizes)
                 for point in range(len(spec.grid))]
        series[scheme] = {k: np.asarray([st[k] for st in stats]) for k in stats[0]}
    return series


def run_outage_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> dict:
    """Near/far outage (and stderr) vs far-user target rate R_m = R_n."""
    return _run_sweep(spec, cfg, _DOMAIN_OUTAGE, "target_rate",
                      allocation.SCHEMES)


def run_sumrate_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> dict:
    """Mean achieved sum rate (and stderr) vs transmit power (dBm)."""
    return _run_sweep(spec, cfg, _DOMAIN_SUMRATE, "tx_power_dbm",
                      SUMRATE_SCHEMES)
