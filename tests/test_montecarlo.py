"""Trial engine and sweeps: wiring, determinism, paired-scheme ordering."""

import concurrent.futures
import dataclasses
import functools
import math
import os
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from thznoma import channel, cli, montecarlo
from thznoma.channel import (baseline_channel_matrix, direct_channel_matrix,
                             ris_channel_matrix, sample_nakagami)
from thznoma.config import FAR, NEAR, ConfigError, ScenarioConfig
from thznoma.montecarlo import (BLOCK, CHUNK, SLAB, SUMRATE_SCHEMES, SweepSpec,
                                _chunk_gains, _chunk_rng, _chunk_sizes,
                                _deterministic_parts, _gain_moments, _merge,
                                _moments, _plan, _run_chunk, run_outage_sweep,
                                run_sumrate_sweep)
from thznoma.noma import capacity

from exact import _reference_trial, channel_gain, fixed_sum_rate_closed_form

SMALL = ScenarioConfig(bs_antennas=4, user_antennas=4, ris_elements=16)
OUTAGE_KEYS = ("near_outage", "far_outage")


def test_chunk_layout_is_frozen():
    # stream identity depends on the chunk size; 1024 is part of the contract
    assert CHUNK == 1024
    assert _chunk_sizes(2100) == [1024, 1024, 52]
    assert _chunk_sizes(1024) == [1024]
    assert _chunk_sizes(3) == [3]
    assert sum(_chunk_sizes(54321)) == 54321


def test_chunk_rng_streams_are_distinct_and_stable():
    a = _chunk_rng(7, 1, 0).standard_normal(4)
    b = _chunk_rng(7, 1, 0).standard_normal(4)
    c = _chunk_rng(7, 1, 1).standard_normal(4)
    d = _chunk_rng(7, 2, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sweep_spec_validation():
    good = dict(grid=(0.5, 1.0), schemes=("fair",), seed=1, trials=10)
    SweepSpec(**good)
    for bad in (dict(grid=()), dict(grid=(1.0, 0.5)), dict(grid=(1e16, 1e16 + 1)),
                dict(schemes=()), dict(schemes=("fair", "fair")),
                # None would seed each chunk from OS entropy, True as seed 1
                dict(seed=None), dict(seed=True), dict(seed=-1),
                dict(seed=1.5), dict(seed="3"),
                dict(trials=0), dict(trials=True), dict(workers=0)):
        with pytest.raises(ConfigError) as err:
            SweepSpec(**{**good, **bad})
        assert err.value.field_name == next(iter(bad))


def _reference_gains(cfg, rng, link="thz"):
    """(far, near) gains of one trial of cfg's link: far envelopes drawn
    first, then near. The baseline link is Rayleigh faded, without a surface."""
    gains = []
    for user in (FAR, NEAR):
        if link == "thz":
            h, g, m = (direct_channel_matrix(cfg, user),
                       ris_channel_matrix(cfg, user), cfg.shape_m)
        else:
            h, g, m = baseline_channel_matrix(cfg, user), 0.0, 1.0
        if cfg.fading_enabled:
            h = sample_nakagami(m, rng, h.shape) * h
        gains.append(channel_gain(h + g))
    return gains


def _link_gains(cfg, rng, n, scheme="fixed"):
    """(2, n) kernel gains of the link serving the scheme alone, drawn under
    its own law."""
    ((shape_m, links),) = _plan(cfg, (scheme,)).items()
    (link,) = links
    return _chunk_gains(shape_m, cfg, [link], rng, n)[0]


def _chunk(cfg, schemes, targets, seed=0, chunk=0, n=8, domain=1):
    """A chunk's record {(scheme, key): array} at P target rates (one or a
    sequence) and cfg's power: (P,) outage counts ``near_outage`` and
    ``far_outage``, or with domain=2 (P, 3) ``sum_rate`` moments."""
    target = np.array(targets, dtype=float).reshape(-1, 1)
    power = np.full_like(target, cfg.tx_power_w)
    return _run_chunk(cfg, schemes, target, power, seed, domain, chunk, n)


def test_trial_without_fading_is_deterministic():
    cfg = SMALL.replace(fading_enabled=False)
    schemes = ("fixed", "fair", "improved-fair")
    t1 = _chunk(cfg, schemes, (0.5, 2.0), seed=1)
    t2 = _chunk(cfg, schemes, (0.5, 2.0), seed=999)
    assert list(t1) == list(t2) == [(s, k) for s in schemes for k in OUTAGE_KEYS]
    for key, counts in t1.items():
        assert counts.shape == (2,)
        assert np.array_equal(counts, t2[key])
        assert set(counts.tolist()) <= {0, 8}


def test_trial_matches_manual_noma_chain():
    # fading off: rebuild the same trial from the channel and noma layers
    cfg = SMALL.replace(fading_enabled=False)
    target = 0.75
    n = 5
    g_far, g_near = sorted(
        channel_gain(direct_channel_matrix(cfg, u) + ris_channel_matrix(cfg, u))
        for u in (FAR, NEAR))
    schemes = ("fixed", "fair", "improved-fair")
    got = _chunk(cfg, schemes, target, n=n)
    moments = _chunk(cfg, schemes, target, n=n, domain=2)
    for scheme in schemes:
        # the paper's SINRs, written out in the reference, not noma.sinr
        near, far, rate, *_ = _reference_trial(cfg, scheme, target,
                                               (g_far, g_near))
        assert [got[scheme, k].tolist() for k in OUTAGE_KEYS] == [[n * near],
                                                                 [n * far]]
        # every trial has the same rate, so its deviations are exactly 0
        x0, dev, devsq = moments[scheme, "sum_rate"][0]
        assert_allclose(x0, rate, rtol=1e-12)
        assert dev == devsq == 0.0


def test_trial_replays_the_documented_draw_order():
    # one stream per chunk; every trial draws far envelopes first, then
    # near; blocks of trials leave that order as it is. The kernel forms
    # the gains as E^2·|D|^2 + E·c + ||G||^2, which rounds differently from
    # the reference ||E∘D + G||^2 in the last digits only
    n = BLOCK + 5
    for shape_m in (0.5, 1.0, 3.0):
        cfg = SMALL.replace(shape_m=shape_m)
        got = _link_gains(cfg, _chunk_rng(31, 1, 0), n)
        rng = _chunk_rng(31, 1, 0)
        want = np.array([_reference_gains(cfg, rng) for _ in range(n)]).T
        assert got.shape == (2, n)
        assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=str(shape_m))


def test_vanishing_power_fails_both_users():
    cfg = SMALL.replace(tx_power_dbm=-300.0)
    got = _chunk(cfg, ("fair",), 0.5, seed=2)
    assert got["fair", "near_outage"][0] == got["fair", "far_outage"][0] == 8
    x0, dev, _ = _chunk(cfg, ("fair",), 0.5, seed=2, domain=2)["fair", "sum_rate"][0]
    assert x0 + dev / 8 < 1e-12


def test_fair_far_outage_is_the_infeasibility_event():
    # on the feasible branch the far capacity is pinned at the target;
    # at 0.25 bits/s/Hz SMALL has both branches
    cfg = SMALL
    outages = 0
    for chunk in range(200):
        far = _chunk(cfg, ("fair",), 0.25, seed=17, chunk=chunk,
                     n=1)["fair", "far_outage"][0]
        gains = _reference_gains(cfg, _chunk_rng(17, 1, chunk))
        *_, feasible = _reference_trial(cfg, "fair", 0.25, gains)
        assert far == (not feasible)
        outages += far
    assert 0 < outages < 200


def test_improved_never_worse_for_near_user():
    # paired gains: improved-fair only changes the infeasible branch,
    # where it hands the near user the whole budget
    cfg = SMALL
    better = 0
    for chunk in range(300):
        got = _chunk(cfg, ("fair", "improved-fair"), 0.25, seed=1000,
                     chunk=chunk, n=1)
        improved, fair = (got[s, "near_outage"][0] for s in ("improved-fair", "fair"))
        assert improved <= fair
        better += improved < fair
    assert better > 0


def test_outage_sweep_shapes_and_ranges():
    spec = SweepSpec(grid=(0.5, 2.0, 6.0), schemes=("fixed", "fair"), seed=5,
                     trials=600)
    series = run_outage_sweep(spec, SMALL)
    assert set(series) == {"fixed", "fair"}
    for scheme in spec.schemes:
        s = series[scheme]
        assert list(s) == ["near_outage", "near_outage_stderr", "far_outage",
                           "far_outage_stderr"]
        for key in ("near_outage", "far_outage"):
            p = s[key]
            assert p.shape == (3,)
            assert np.all((p >= 0) & (p <= 1))
            se = s[key + "_stderr"]
            assert_allclose(se, np.sqrt(p * (1 - p) / 600), rtol=1e-12)
            assert np.all(se <= 0.5 / math.sqrt(600) + 1e-15)


def test_sumrate_sweep_monotone_in_power():
    spec = SweepSpec(grid=(0.0, 15.0, 30.0), schemes=("fixed", "baseline"),
                     seed=6, trials=400)
    series = run_sumrate_sweep(spec, SMALL)
    for scheme in spec.schemes:
        assert list(series[scheme]) == ["sum_rate", "sum_rate_stderr"]
        rates = series[scheme]["sum_rate"]
        assert rates.shape == (3,)
        assert np.all(np.diff(rates) > 0)
    # THz+RIS link beats the free-space reference at equal power
    assert np.all(series["fixed"]["sum_rate"] > series["baseline"]["sum_rate"])


def test_integer_target_rate_gives_the_float_rows():
    # a scenario built in Python may carry an int rate; the far rate the
    # fair scheme pins must not turn the capacities into integers
    spec = SweepSpec(grid=(30.0,), schemes=("fair",), seed=1, trials=500)
    got = run_sumrate_sweep(spec, SMALL.replace(target_rate=1))["fair"]
    want = run_sumrate_sweep(spec, SMALL.replace(target_rate=1.0))["fair"]
    assert want["sum_rate"][0] > 0.0
    for key, vals in want.items():
        assert np.array_equal(got[key], vals), key


@pytest.mark.parametrize("run, schemes, grid", [
    (run_outage_sweep, ("fixed", "fair"), (1.0, 4.0)),
    (run_sumrate_sweep, ("fixed", "fair", "baseline"), (0.0, 30.0)),
], ids=["outage", "sumrate"])
def test_sweep_results_identical_across_worker_counts(pool_starts, run, schemes,
                                                      grid):
    # counts and moments alike merge in chunk order, wherever a chunk ran
    spec = SweepSpec(grid=grid, schemes=schemes, seed=9, trials=2100)
    serial = run(spec, SMALL)
    parallel = run(dataclasses.replace(spec, workers=3), SMALL)
    assert pool_starts == [3]
    for scheme in spec.schemes:
        for key, vals in serial[scheme].items():
            assert np.array_equal(vals, parallel[scheme][key]), (scheme, key)


def test_rerun_is_bit_identical():
    spec = SweepSpec(grid=(2.0,), schemes=("fair",), seed=77, trials=700)
    r1 = run_outage_sweep(spec, SMALL)
    r2 = run_outage_sweep(spec, SMALL)
    for key, vals in r1["fair"].items():
        assert np.array_equal(vals, r2["fair"][key])


@pytest.mark.parametrize("cfg", [
    SMALL.replace(shape_m=0.5), SMALL, SMALL.replace(shape_m=3.0),
    SMALL.replace(fading_enabled=False),
], ids=["m0.5", "m1", "m3", "no-fading"])
def test_run_chunk_reduction_matches_trial_loop(cfg):
    # each point's row of outage counts equals a trial-by-trial loop over
    # the reference gains at that point's target and power, and its rate
    # moments a loop over the kernel's gains in trial order, both exactly
    # and across a block boundary; baseline replays the same key. At m = 1
    # and without fading the THz and baseline links share one envelope law
    # and so one draw; at m != 1 each draws its own
    n = BLOCK + 12
    schemes = ("fixed", "fair", "improved-fair", "baseline")
    points = [cfg.replace(target_rate=r, tx_power_dbm=dbm)
              for r, dbm in ((0.5, 30.0), (1.0, 30.0), (1.0, 40.0))]
    target = np.array([[point.target_rate] for point in points])
    power = np.array([[point.tx_power_w] for point in points])
    counts = _run_chunk(cfg, schemes, target, power, 55, 1, 3, n)
    moments = _run_chunk(cfg, schemes, target, power, 55, 2, 3, n)
    assert list(counts) == [(s, k) for s in schemes for k in OUTAGE_KEYS]
    assert list(moments) == [(s, "sum_rate") for s in schemes]
    for scheme in schemes:
        for key in OUTAGE_KEYS:
            assert counts[scheme, key].shape == (len(points),)
            assert counts[scheme, key].dtype.kind == "i"
        assert moments[scheme, "sum_rate"].shape == (len(points), 3)
        for i, point in enumerate(points):
            link = "baseline" if scheme == "baseline" else "thz"
            rng = _chunk_rng(55, 1, 3)
            near = far = 0
            for _ in range(n):
                n_out, f_out, *_ = _reference_trial(
                    point, scheme, point.target_rate,
                    _reference_gains(point, rng, link))
                near += n_out
                far += f_out
            assert [counts[scheme, k][i] for k in OUTAGE_KEYS] == [near, far], (
                scheme, i)
            gains = _link_gains(point, _chunk_rng(55, 2, 3), n, scheme)
            rates = [_reference_trial(point, scheme, point.target_rate, g)[2]
                     for g in gains.T.tolist()]
            dev = devsq = 0.0
            for rate in rates:
                dev += rate - rates[0]
                devsq += (rate - rates[0]) * (rate - rates[0])
            assert moments[scheme, "sum_rate"][i].tolist() == [rates[0], dev,
                                                               devsq], (scheme, i)


@pytest.mark.parametrize("shape_m, streams", [(1.0, 1), (3.0, 2)])
def test_one_draw_per_envelope_law(monkeypatch, shape_m, streams):
    # fixed and baseline at m = 1 share one law, so one draw of 2*M*N
    # envelopes per trial serves both; at m = 3 the baseline (m = 1)
    # draws its own. The grid points share the draw too
    drawn = []

    def counting(*args):
        env = sample_nakagami(*args)
        drawn.append(env.size)
        return env

    monkeypatch.setattr(montecarlo, "sample_nakagami", counting)
    cfg = SMALL.replace(shape_m=shape_m)
    n = BLOCK + 12
    assert len(_plan(cfg, ("fixed", "baseline"))) == streams
    _chunk(cfg, ("fixed", "baseline"), (0.5, 1.0, 2.0), n=n)
    per_trial = 2 * cfg.user_antennas * cfg.bs_antennas
    assert sum(drawn) == streams * per_trial * n


@pytest.mark.parametrize("shape_m", [0.5, 1.0, 3.0])
def test_direct_link_is_the_thz_link_without_its_surface(shape_m):
    # drawn beside "thz", the direct link gives bit for bit the gains that
    # the surface-free scenario's "thz" link gets from the same stream
    cfg = ScenarioConfig(shape_m=shape_m)
    n = BLOCK + 5
    _, direct = _chunk_gains(shape_m, cfg, ["thz", "direct"],
                             np.random.default_rng(11), n)
    (bare,) = _chunk_gains(shape_m, cfg.replace(ris_elements=0), ["thz"],
                           np.random.default_rng(11), n)
    assert np.array_equal(direct, bare)


def test_plan_groups_links_by_shape_thz_first():
    # the THz link's schemes keep their order, and the baseline link comes
    # after them, in the THz group where both have m = 1
    schemes = ("baseline", "fair", "fixed")
    assert _plan(SMALL.replace(shape_m=3.0), schemes) == {
        3.0: {"thz": ["fair", "fixed"]}, 1.0: {"baseline": ["baseline"]}}
    plan = _plan(SMALL, schemes)
    assert list(plan) == [1.0] and list(plan[1.0]) == ["thz", "baseline"]
    assert _plan(SMALL, ("fair",)) == {1.0: {"thz": ["fair"]}}


@pytest.mark.parametrize("domain, calls", [(1, 3), (2, 2)],
                         ids=["outage", "sumrate"])
def test_chunk_evaluates_only_what_its_command_writes(monkeypatch, domain,
                                                      calls):
    # per scheme an outage chunk takes the far, SIC-stage (c_cross) and
    # near capacities; a sumrate chunk only the far and near ones, each
    # once over every trial of every grid point
    sizes = []

    def counting(s):
        sizes.append(np.size(s))
        return capacity(s)

    monkeypatch.setattr(montecarlo, "capacity", counting)
    n = BLOCK + 12
    got = _chunk(SMALL, ("fixed", "fair"), (0.5, 1.0, 2.0), n=n, domain=domain)
    assert sizes == [3 * n] * (2 * calls)
    want = [(3,)] * 4 if domain == 1 else [(3, 3)] * 2
    assert [v.shape for v in got.values()] == want


def _chunk_peak_bytes(points):
    """Peak traced bytes of one full sum-rate chunk over a grid of points."""
    schemes = montecarlo.SUMRATE_SCHEMES
    targets = np.linspace(0.5, 3.0, points)
    _chunk(SMALL, schemes, targets[:1], n=CHUNK, domain=2)  # warm the caches
    tracemalloc.start()
    try:
        _chunk(SMALL, schemes, targets, n=CHUNK, domain=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_chunk_memory_does_not_grow_with_the_grid():
    # a scheme takes the grid in slabs of SLAB points, so a chunk's
    # temporaries are (SLAB, CHUNK) however many points it evaluates
    assert _chunk_peak_bytes(1000) < 1.5 * _chunk_peak_bytes(SLAB)


def _merged(chunks, sizes):
    """(mean, stderr) of one moment key split over chunks of sizes."""
    return _merge([{"rate": _moments(c)} for c in chunks], sizes)["rate"]


def test_merge_matches_two_pass_variance_and_exact_counts():
    # the merged moments of chunks of 1024, 1024 and 512 rates give np.var
    # of all of them; with this offset sumsq/t - mean^2 is off by 2e-8
    rng = np.random.default_rng(4)
    sizes = [1024, 1024, 512]
    t = sum(sizes)
    rates = 7.0 + 1e-3 * rng.exponential(size=t)
    chunks = np.split(rates, np.cumsum(sizes)[:-1])
    mean, stderr = _merged(chunks, sizes)
    assert_allclose(mean, math.fsum(rates) / t, rtol=1e-15)
    assert_allclose(stderr ** 2 * t, np.var(rates), rtol=1e-12)
    # equal rates merge to exactly 0
    _, flat = _merged([np.full(k, 0.1) for k in sizes], sizes)
    assert flat == 0.0
    # a stack of rate rows, one per grid point, merges row by row
    rows = _merged([np.stack([c, c[::-1]]) for c in chunks], sizes)
    for i, row in enumerate((chunks, [c[::-1] for c in chunks])):
        one = _merged(row, sizes)
        assert rows[0][i] == one[0]
        assert rows[1][i] == one[1]
    # integer counts add: a share and its binomial stderr, exactly; a point
    # that never or always has the event has stderr exactly 0
    events = rng.random((4, t)) < np.array([[0.01], [0.5], [0.0], [1.0]])
    counts = [np.count_nonzero(e, axis=-1)
              for e in np.split(events, np.cumsum(sizes)[:-1], axis=-1)]
    share, share_se = _merge([{"count": c} for c in counts], sizes)["count"]
    want = np.count_nonzero(events, axis=-1) / t
    assert np.array_equal(share, want)
    assert np.array_equal(share_se, np.sqrt(want * (1.0 - want) / t))
    assert share[2] == share_se[2] == share_se[3] == 0.0 and share[3] == 1.0
    # a record with a count key and a moment key merges each as it would alone
    mixed = _merge([{"count": c, "rate": _moments(r)}
                    for c, r in zip(counts, chunks)], sizes)
    assert list(mixed) == ["count", "rate"]
    for key, alone in (("count", (share, share_se)), ("rate", (mean, stderr))):
        for got, want in zip(mixed[key], alone):
            assert np.array_equal(got, want), key


def test_sweeps_check_scheme_names(tmp_path, capsys):
    # each sweep checks its scheme names, and only it: outage has no
    # baseline link; the CLI reports a bad name as a config error
    for run, bad in ((run_outage_sweep, "equal"), (run_outage_sweep, "baseline"),
                     (run_sumrate_sweep, "equal")):
        with pytest.raises(ConfigError) as err:
            run(SweepSpec(grid=(1.0,), schemes=("fair", bad), seed=1,
                          trials=8), SMALL)
        assert (err.value.field_name, err.value.value) == ("schemes", bad)
        command = "outage" if run is run_outage_sweep else "sumrate"
        out = tmp_path / command
        assert cli.main([command, "--schemes", f"fair,{bad}", "--trials", "8",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


def test_baseline_link_reads_no_thz_field():
    # the reference link is Rayleigh faded at any m, has no surface, and
    # reads neither the THz carrier nor absorption, rays or misalignment
    cfg = ScenarioConfig()
    other = cfg.replace(frequency_hz=0.1e12, absorption_coeff=0.0,
                        pointing_error_m=0.0, nlos_gains=(),
                        nlos_delays=(), ris_elements=0, shape_m=3.0)
    d = np.stack([baseline_channel_matrix(cfg, u).ravel() for u in (FAR, NEAR)])
    for c in (cfg, other):
        assert _plan(c, ("baseline",)) == {1.0: {"baseline": ["baseline"]}}
        dd, cross, gg = _deterministic_parts(c, "baseline")
        assert np.array_equal(dd, d.real ** 2 + d.imag ** 2)
        assert not np.any(cross) and not np.any(gg)


def test_baseline_mean_snr_counts_path_loss_twice():
    # the baseline entry amplitude is the free-space power loss, so its
    # mean SNR p ||D||^2 / s2 (E[x^2] = 1, no surface) is far below the
    # THz link's; criterion 4's fair >= 2x baseline rests on it
    base = ScenarioConfig()
    snr_db = [10.0 * math.log10(base.tx_power_w / base.noise_power_w
                                * channel_gain(baseline_channel_matrix(base, u)))
              for u in (FAR, NEAR)]
    assert_allclose(snr_db, [-38.3, -26.3], atol=0.05)


def test_mean_snr_of_the_default_surface():
    # known defect: random phases leave the mean SNR at 30 dBm where it is
    # without the surface; zero phases make the surface count.
    # 10 log10(p/s2 E||H||^2), E||H||^2 = ||D||^2 + 2 E[x] Re<G, D> + ||G||^2
    cfg = ScenarioConfig()
    m = cfg.shape_m
    mean_x = math.gamma(m + 0.5) / (math.gamma(m) * math.sqrt(m))
    for surface, want in (
            (cfg.replace(ris_elements=0), [5.36, 14.96]),
            (cfg, [5.34, 14.84]),
            (cfg.replace(ris_phase_mode="zero"), [23.26, 21.42])):
        snr_db = []
        for user in (FAR, NEAR):
            d = direct_channel_matrix(surface, user)
            g = ris_channel_matrix(surface, user)
            power = (np.sum(np.abs(d) ** 2) + np.sum(np.abs(g) ** 2)
                     + 2.0 * mean_x * np.sum((np.conj(g) * d).real))
            snr_db.append(10.0 * math.log10(
                surface.tx_power_w / surface.noise_power_w * power))
        assert_allclose(snr_db, want, atol=0.05)


def test_pool_never_has_more_workers_than_tasks(monkeypatch):
    # a task is one chunk of the whole grid; a pool forks every worker up
    # front and gives each at least POOL_EVALS of work, a chunk counting
    # DRAW_EVALS plus one per point and scheme, so workers is an upper bound
    sizes = []
    chunksizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            chunksizes.append(chunksize)
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    def pools(trials, grid=(1.0, 2.0)):
        before = len(sizes)
        run_outage_sweep(SweepSpec(grid=grid, schemes=("fair",), seed=1,
                                   trials=trials, workers=3), SMALL)
        return sizes[before:]

    def chunks_for(workers):
        # the fewest chunks of the two-point, one-scheme grid with that work
        return -(-workers * montecarlo.POOL_EVALS // (montecarlo.DRAW_EVALS + 2))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    assert pools((chunks_for(2) - 1) * CHUNK) == []
    assert pools(chunks_for(2) * CHUNK) == [2]
    assert pools(chunks_for(3) * CHUNK) == [3]
    # on a grid of POOL_EVALS points two chunks are work for two workers
    wide = tuple(1.0 + i / 256 for i in range(montecarlo.POOL_EVALS))
    assert pools(CHUNK + 1, wide) == [2]
    # when any work repays a pool, one chunk runs without one and two get two
    monkeypatch.setattr(montecarlo, "POOL_EVALS", 1)
    assert pools(10) == []
    assert pools(CHUNK + 1) == [2]
    assert chunksizes == [1, 1, 1, 1]


def test_pooled_parent_builds_no_channel(monkeypatch, pool_starts):
    # the workers build every link's channel; a parent that built one would
    # grow the pooled run's peak memory (the surface's phases load
    # numpy.random). Calls are counted in this process only: the forked
    # workers count in their own copies
    calls = []
    for module in (channel, montecarlo):
        for name in ("direct_channel_matrix", "ris_channel_matrix",
                     "baseline_channel_matrix"):
            def counting(*args, _real=getattr(module, name)):
                calls.append(args)
                return _real(*args)
            monkeypatch.setattr(module, name, counting)
    montecarlo._deterministic_parts.cache_clear()
    spec = SweepSpec(grid=(0.0, 30.0), schemes=SUMRATE_SCHEMES, seed=4,
                     trials=CHUNK + 10)
    pooled = run_sumrate_sweep(dataclasses.replace(spec, workers=2), SMALL)
    assert pool_starts == [2]
    assert calls == []
    # the count does see an in-process build, and the pool ran the sweep
    alone = run_sumrate_sweep(spec, SMALL)
    assert calls
    for scheme in spec.schemes:
        for key, vals in alone[scheme].items():
            assert np.array_equal(pooled[scheme][key], vals), (scheme, key)


def test_dead_pool_is_a_value_error(monkeypatch):
    # the sweep reports its own pool's failure, chained from the pool's error;
    # when any work repays a pool, two chunks fork one
    monkeypatch.setattr(montecarlo, "POOL_EVALS", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, initializer=os._exit, initargs=(1,)))
    spec = SweepSpec(grid=(1.0,), schemes=("fair",), seed=1,
                     trials=CHUNK + 1, workers=2)
    with pytest.raises(ValueError, match="worker pool failed") as err:
        run_outage_sweep(spec, SMALL)
    assert isinstance(err.value.__cause__, BrokenProcessPool)


@pytest.mark.parametrize("run, schemes, grid, rows", [
    (run_outage_sweep, ("fixed", "fair", "improved-fair"), (0.25, 0.5, 2.0),
     (0, 1, 2)),
    (run_sumrate_sweep, ("fixed", "fair", "improved-fair", "baseline"),
     (0.0, 15.0, 30.0), (0, 1, 2)),
    (run_sumrate_sweep, ("fixed", "fair", "improved-fair", "baseline"),
     tuple(0.5 * i for i in range(SLAB + 2)), (0, SLAB - 1, SLAB, SLAB + 1)),
], ids=["outage", "sumrate", "sumrate-slabs"])
def test_point_row_does_not_depend_on_the_rest_of_the_grid(run, schemes, grid,
                                                           rows):
    # every point is evaluated on its chunk's shared gains, so a one-point
    # sweep reproduces that point's row of a longer sweep bit for bit, also
    # on either side of a slab boundary
    full = run(SweepSpec(grid=grid, schemes=schemes, seed=3,
                         trials=CHUNK + 100), SMALL)
    for i in rows:
        value = grid[i]
        one = run(SweepSpec(grid=(value,), schemes=schemes, seed=3,
                            trials=CHUNK + 100), SMALL)
        for scheme in schemes:
            for key, vals in one[scheme].items():
                assert vals.tolist() == [full[scheme][key][i]], (
                    value, scheme, key)


@pytest.mark.parametrize("shape_m", [0.5, 3.0], ids=["m0.5", "m3"])
def test_no_surface_sweep_fixed_sum_rate_matches_closed_form(shape_m):
    # the mean gains differ 9-fold and each is a sum of 256 terms, so SIC
    # roles never swap; every row lies within 4 SE of the exact value
    cfg = ScenarioConfig(ris_elements=0, shape_m=shape_m)
    grid = (0.0, 6.0, 12.0, 18.0, 24.0, 30.0)
    out = run_sumrate_sweep(
        SweepSpec(grid=grid, schemes=("fixed",), seed=1, trials=4096),
        cfg)["fixed"]
    for dbm, rate, se in zip(grid, out["sum_rate"], out["sum_rate_stderr"]):
        exact = fixed_sum_rate_closed_form(cfg.replace(tx_power_dbm=dbm))
        assert abs(rate - exact) <= 4.0 * se, dbm


def test_baseline_link_is_far_weaker_than_composite():
    cfg = ScenarioConfig()
    thz = channel_gain(direct_channel_matrix(cfg, FAR) + ris_channel_matrix(cfg, FAR))
    ref = channel_gain(baseline_channel_matrix(cfg, FAR))
    assert thz > 100.0 * ref


def _one_entry_links(monkeypatch):
    # the far gain E (|D|^2 = 0, c = 1), of mean mu_1 and variance 1 - mu_1^2,
    # and the near gain E^2 + E (|D|^2 = c = 1)
    parts = (np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]]), np.zeros(2))
    monkeypatch.setattr(montecarlo, "_deterministic_parts",
                        lambda cfg, link: parts)


@pytest.mark.parametrize("shape_m", [0.5, 1.0, 1.5, 3.0])
def test_gain_moments_of_one_entry_links(monkeypatch, shape_m):
    # their means and variances hold mu_1 and mu_3, here from scipy
    _one_entry_links(monkeypatch)
    mean, var = _gain_moments(ScenarioConfig(), "thz", shape_m)
    mu = [stats.nakagami(shape_m).moment(k) for k in range(5)]
    assert_allclose(mean, [mu[1], 1.0 + mu[1]], rtol=1e-13)
    assert_allclose(var, [1.0 - mu[1] ** 2,
                          mu[4] + 2.0 * mu[3] + mu[2] - (1.0 + mu[1]) ** 2],
                    rtol=1e-12)


def test_gain_moments_branches_meet_at_the_switch(monkeypatch):
    # ln mu_1 comes from lgamma below m = 30 and from its series from 30 up
    _one_entry_links(monkeypatch)
    below = _gain_moments(ScenarioConfig(), "thz", math.nextafter(30.0, 0.0))
    at = _gain_moments(ScenarioConfig(), "thz", 30.0)
    assert_allclose(at, below, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape_m", [1e4, 1e8, 1e12, 1e100, 1e300])
def test_gain_moments_hold_at_large_m(monkeypatch, shape_m):
    # 1 - mu_1^2 = 1/(4m) - 1/(32m^2) + ...: where lgamma's difference would
    # cancel, Var E = 1 - mu_1^2 still tends to 1/(4m)
    _one_entry_links(monkeypatch)
    mean, var = _gain_moments(ScenarioConfig(), "thz", shape_m)
    assert_allclose(4.0 * shape_m * var[FAR], 1.0, rtol=1.0 / shape_m + 1e-14)
    assert_allclose(mean[FAR], 1.0 - 1.0 / (8.0 * shape_m),
                    rtol=(1.0 / shape_m) ** 2 + 1e-15)


@pytest.mark.parametrize("shape_m", [0.5, 1.0, 1.5, 3.0])
def test_gain_moments_match_per_entry_quadrature(shape_m):
    # each entry adds f(E) = |D|^2 E^2 + c E, independently of the others,
    # so E[g] and Var g are sums of one-entry integrals over the envelope law
    cfg = ScenarioConfig(bs_antennas=2, user_antennas=2, ris_elements=3,
                         shape_m=shape_m)
    mean, var = _gain_moments(cfg, "thz", shape_m)
    law = stats.nakagami(shape_m)
    for user in (FAR, NEAR):
        d = direct_channel_matrix(cfg, user).ravel()
        g = ris_channel_matrix(cfg, user).ravel()
        means, variances = [], []
        for w, c in zip(np.abs(d) ** 2, 2.0 * (np.conj(g) * d).real):
            means.append(law.expect(lambda e: w * e * e + c * e,
                                    epsabs=0.0, epsrel=1e-13))
            variances.append(law.expect(
                lambda e: (w * e * e + c * e - means[-1]) ** 2,
                epsabs=0.0, epsrel=1e-13))
        assert_allclose(mean[user], math.fsum(means) + channel_gain(
            ris_channel_matrix(cfg, user)), rtol=1e-10)
        assert_allclose(var[user], math.fsum(variances), rtol=1e-10)
