"""Monte Carlo outage and sum-rate sweeps.

Trials are partitioned into fixed-size chunks; every chunk owns an RNG
stream spawned from the master seed by (domain, grid-point, chunk) key,
so results are identical for any worker count and workers only decide
which chunks run where.

One chunk is evaluated as arrays. Its channels are formed in blocks of
BLOCK trials, and every requested scheme is evaluated on the same gains,
so scheme comparisons are paired (common random numbers) and one chunk
task returns the sums of all schemes. The baseline scheme has its own
scenario and draws its gains from a fresh stream with the same key.
The outputs equal those of a per-trial loop bit for bit, which rests on:

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
    sizes = [CHUNK] * full
    if rest:
        sizes.append(rest)
    return sizes


def _chunk_rng(master_seed: int, domain: int, point: int, chunk: int):
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(domain, point, chunk))
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


def _run_chunk(groups: tuple, targets: tuple, master_seed: int, domain: int,
               point: int, chunk: int, n: int) -> dict:
    """{scheme: (near_count, far_count, rate_sum, rate_sumsq)} over one chunk.

    ``groups`` pairs each scenario with the schemes evaluated on its gains;
    every scenario draws from its own stream with the chunk's key. SIC
    roles go by ascending gain, ties to the nominal far user.
    """
    sums = {}
    for cfg, schemes in groups:
        g = _chunk_gains(cfg, _chunk_rng(master_seed, domain, point, chunk), n)
        swap = g[FAR] > g[NEAR]
        g_far = np.where(swap, g[NEAR], g[FAR])
        g_near = np.where(swap, g[FAR], g[NEAR])
        if not np.all(np.isfinite(g_far)):
            raise ValueError("far_gain must be finite")
        for scheme in schemes:
            sums[scheme] = _scheme_sums(scheme, g_far, g_near, targets, cfg)
    return sums


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
    sizes = _chunk_sizes(cfg.trials)
    tasks = []
    for point, value in enumerate(spec.grid):
        if domain == _DOMAIN_OUTAGE:
            point_cfg = cfg
            targets = (float(value), float(value))
        else:
            point_cfg = cfg.replace(tx_power_dbm=float(value))
            targets = (cfg.target_rate, cfg.target_rate)
        groups = _point_groups(point_cfg, spec.schemes, targets)
        tasks += [(groups, targets, spec.master_seed, domain, point, ci, n)
                  for ci, n in enumerate(sizes)]
    # a pool forks all its workers up front, so never more than there are tasks
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            parts = list(executor.map(_run_chunk, *zip(*tasks), chunksize=4))
        finally:
            # also on KeyboardInterrupt: drop the queued chunks
            executor.shutdown(cancel_futures=True)
    else:
        parts = [_run_chunk(*t) for t in tasks]
    per_point = len(sizes)
    series = {s: {k: [] for k in ("near_outage", "near_outage_stderr",
                                  "far_outage", "far_outage_stderr",
                                  "sum_rate", "sum_rate_stderr")}
              for s in spec.schemes}
    for point in range(len(spec.grid)):
        chunks = parts[point * per_point:(point + 1) * per_point]
        for scheme in spec.schemes:
            stats = _point_stats([c[scheme] for c in chunks], cfg.trials)
            for key, val in stats.items():
                series[scheme][key].append(val)
    series = {s: {k: np.asarray(v) for k, v in d.items()} for s, d in series.items()}
    return SweepResult(grid=tuple(spec.grid),
                       schemes=tuple(spec.schemes), series=series,
                       scenario=cfg.as_dict(), seed=spec.master_seed)


def run_outage_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> SweepResult:
    """Near/far outage vs far-user target rate R_m, with R_n = R_m."""
    return _run_sweep(spec, cfg, _DOMAIN_OUTAGE)


def run_sumrate_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> SweepResult:
    """Mean achieved sum rate vs transmit power (dBm)."""
    return _run_sweep(spec, cfg, _DOMAIN_SUMRATE)
