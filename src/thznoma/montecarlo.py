"""Monte Carlo outage and sum-rate sweeps.

Trials are partitioned into fixed-size chunks; every chunk owns an RNG
stream spawned from the master seed by (domain, 0, chunk) key, so results
are identical for any worker count and workers only decide which chunks
run where. Neither the target rate nor the transmit power enters the
channel, so a chunk draws its gains once and every grid point and scheme
is evaluated on them (common random numbers): each point's estimate is
still its own marginal one, while differences between points and between
schemes are paired. The baseline scheme has its own scenario and draws
its gains from a fresh stream with the same key.

One chunk is evaluated as arrays, its channels formed in blocks of BLOCK
trials. The outputs equal those of a per-trial loop bit for bit, by:

- stream order: one draw of shape (b, 2, M, N) consumes the stream as b
  trials each drawing the far user's (M, N) envelopes, then the near
  user's, would;
- gains: the row sum over a trial's M*N entries equals np.sum over that
  matrix alone (``noma.channel_gain``);
- rate sums: a chunk's rate sum and sum of squares accumulate in trial
  order (np.add.accumulate, not pairwise np.sum), and chunk sums are
  added in chunk order;
- capacities: math.log2 is applied per element (``noma.capacity``).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import allocation
from .channel import direct_channel_matrix, ris_channel_matrix, sample_nakagami
from .config import FAR, NEAR, ScenarioConfig
from .noma import capacity, channel_gain, outage_indicators, sinr

CHUNK = 1024  # trials per RNG stream; fixed, never derived from worker count
BLOCK = 128   # trials whose channels are formed at once; bounds temporaries

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
            raise ValueError("sweep grid is empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        if len(self.schemes) == 0:
            raise ValueError("no schemes selected")
        for s in self.schemes:
            if s not in allocation.SCHEMES and s != "baseline":
                raise ValueError(f"unknown scheme {s!r}")


@dataclass(frozen=True)
class SweepResult:
    grid: tuple
    schemes: tuple
    # per scheme: {"near_outage", "far_outage", "sum_rate", and "*_stderr"}
    series: dict
    scenario: dict
    seed: int


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
def _deterministic_parts(cfg: ScenarioConfig):
    """Fading-free channel matrices, cached per scenario."""
    direct = tuple(direct_channel_matrix(cfg, u) for u in (FAR, NEAR))
    ris = tuple(ris_channel_matrix(cfg, u) for u in (FAR, NEAR))
    return direct, ris


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


def _chunk_gains(cfg: ScenarioConfig, rng: np.random.Generator,
                 n: int) -> np.ndarray:
    """(2, n) squared Frobenius gains of n trials, rows in user order.

    Each trial draws the far user's envelopes, then the near user's; a
    block of trials takes its draws with one call.
    """
    direct, ris = _deterministic_parts(cfg)
    gains = np.empty((2, n))
    if not cfg.fading_enabled:
        for user in (FAR, NEAR):
            gains[user] = channel_gain(direct[user] + ris[user])
        return gains
    for start in range(0, n, BLOCK):
        b = min(BLOCK, n - start)
        env = sample_nakagami(cfg.shape_m, rng, (b, 2) + direct[FAR].shape)
        for user in (FAR, NEAR):
            h = env[:, user] * direct[user] + ris[user]
            gains[user, start:start + b] = channel_gain(h)
    return gains


def _scheme_sums(scheme: str, g_far: np.ndarray, g_near: np.ndarray,
                 targets: tuple, cfg: ScenarioConfig) -> tuple:
    """(near_count, far_count, rate_sum, rate_sumsq) of one scheme.

    Power is allocated per the scheme from the far user's instantaneous
    gain. On the feasible fair branch the far capacity is R_m identically
    (the coefficient is the exact solution of the rate equation), so that
    value is used directly rather than re-rounded through the SINR chain;
    the far outage event is then exactly the infeasibility event.
    """
    target_far, target_near = targets
    p, s2 = cfg.tx_power_w, cfg.noise_power_w
    # the baseline link is allocated like fair
    a_far, feasible = allocation.allocate(
        allocation.FAIR if scheme == "baseline" else scheme, g_far, p, s2,
        target_far, cfg.fixed_alpha_far)
    a_near = 1.0 - a_far
    c_far = np.where(feasible & (scheme != allocation.FIXED), target_far,
                     capacity(sinr(g_far, a_far, a_near, p, s2)))
    c_cross = capacity(sinr(g_near, a_far, a_near, p, s2))
    c_near = capacity(sinr(g_near, a_near, 0.0, p, s2))
    near, far = outage_indicators(c_cross, c_near, c_far, target_far,
                                  target_near, a_far)
    rate = c_far + c_near
    return (int(np.count_nonzero(near)), int(np.count_nonzero(far)),
            float(np.add.accumulate(rate)[-1]),
            float(np.add.accumulate(rate * rate)[-1]))


def _run_chunk(points: tuple, master_seed: int, domain: int, chunk: int,
               n: int) -> list:
    """One {scheme: (near_count, far_count, rate_sum, rate_sumsq)} per point.

    ``points`` holds each grid point's ``_point_groups`` result and its
    targets. Every scenario group draws its gains once, from its own
    stream with the chunk's key, on the first point's scenario (the swept
    target or power does not enter the gains), and every point evaluates
    its schemes on them. SIC roles go by ascending gain, ties to the
    nominal far user.
    """
    gains = []
    for cfg, _ in points[0][0]:
        g = _chunk_gains(cfg, _chunk_rng(master_seed, domain, chunk), n)
        swap = g[FAR] > g[NEAR]
        g_far = np.where(swap, g[NEAR], g[FAR])
        if not np.all(np.isfinite(g_far)):
            raise ValueError("far_gain must be finite")
        gains.append((g_far, np.where(swap, g[FAR], g[NEAR])))
    return [{scheme: _scheme_sums(scheme, g_far, g_near, targets, cfg)
             for (cfg, schemes), (g_far, g_near) in zip(groups, gains)
             for scheme in schemes}
            for groups, targets in points]


def _point_groups(cfg: ScenarioConfig, schemes: tuple, targets: tuple) -> tuple:
    """Check one grid point and pair its scenarios with their schemes.

    The noise and target checks run here, once per point, instead of
    inside the trial arrays; the noise power underflows to 0 at extreme
    dBm, which ScenarioConfig does not rule out.
    """
    if not cfg.noise_power_w > 0:
        raise ValueError(f"noise_power_w must be > 0, got {cfg.noise_power_w!r}")
    for t in targets:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"target rates must be finite and >= 0, got {t!r}")
    thz = tuple(s for s in schemes if s != "baseline")
    groups = ((cfg, thz),) if thz else ()
    if "baseline" in schemes:
        groups += ((non_ris_non_thz_baseline(cfg), ("baseline",)),)
    return groups


def _point_stats(parts: list, t: int) -> dict:
    """Outage and sum-rate estimates of one point from its t trials."""
    # reduce in chunk order so float sums never depend on scheduling
    near = far = 0
    rsum = rsumsq = 0.0
    for pn, pf, ps, pq in parts:
        near += pn
        far += pf
        rsum += ps
        rsumsq += pq
    p_near, p_far = near / t, far / t
    mean = rsum / t
    var = max(rsumsq / t - mean * mean, 0.0)
    return {
        "near_outage": p_near,
        "near_outage_stderr": math.sqrt(p_near * (1.0 - p_near) / t),
        "far_outage": p_far,
        "far_outage_stderr": math.sqrt(p_far * (1.0 - p_far) / t),
        "sum_rate": mean,
        "sum_rate_stderr": math.sqrt(var / t),
    }


def _run_sweep(spec: SweepSpec, cfg: ScenarioConfig, domain: int) -> SweepResult:
    points = []
    for value in spec.grid:
        if domain == _DOMAIN_OUTAGE:
            point_cfg = cfg
            targets = (float(value), float(value))
        else:
            point_cfg = cfg.replace(tx_power_dbm=float(value))
            targets = (cfg.target_rate, cfg.target_rate)
        points.append((_point_groups(point_cfg, spec.schemes, targets), targets))
    tasks = [(tuple(points), spec.master_seed, domain, ci, n)
             for ci, n in enumerate(_chunk_sizes(cfg.trials))]
    # a pool forks all its workers up front, so never more than there are tasks
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            parts = list(executor.map(_run_chunk, *zip(*tasks), chunksize=1))
        finally:
            # also on KeyboardInterrupt: drop the queued chunks
            executor.shutdown(cancel_futures=True)
    else:
        parts = [_run_chunk(*t) for t in tasks]
    series = {}
    for scheme in spec.schemes:
        stats = [_point_stats([c[point][scheme] for c in parts], cfg.trials)
                 for point in range(len(spec.grid))]
        series[scheme] = {k: np.asarray([st[k] for st in stats]) for k in stats[0]}
    return SweepResult(grid=tuple(spec.grid),
                       schemes=tuple(spec.schemes), series=series,
                       scenario=cfg.as_dict(), seed=spec.master_seed)


def run_outage_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> SweepResult:
    """Near/far outage vs far-user target rate R_m, with R_n = R_m."""
    return _run_sweep(spec, cfg, _DOMAIN_OUTAGE)


def run_sumrate_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> SweepResult:
    """Mean achieved sum rate vs transmit power (dBm)."""
    return _run_sweep(spec, cfg, _DOMAIN_SUMRATE)
