import hashlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bunchlidar import photonsim as ps
from bunchlidar.correlator import CorrelationConfig, cross_correlate, normalize_g2
from bunchlidar.estimator import fit_g2
from bunchlidar.quantities import DomainError, SourceSpec, TickOverflowError
from test_correlator import run_child

TAU_C = 23.2e-9


def scan_block(work, times, tau_c_ticks, first_lag, noise_x, noise_y, carry_x, carry_y,
               rng_accept):
    """Run the block kernel on one block of sorted int64 candidate times in
    ``work``, drawing the uniforms from ``rng_accept``; returns views of x, y, keep."""
    n = times.size
    work.reserve(n)
    work.x[:n] = noise_x
    work.y[:n] = noise_y
    x, y = ps._gauss_markov_scan_pair(work, times, first_lag, tau_c_ticks, rng_accept,
                                      carry_x, carry_y)
    return x, y, work.keep[:n]


def kernel_lags(times, tau_c_ticks, first_lag):
    """The lags the kernel forms from sorted candidate times, formed for the
    whole block at once, as the sampler did before the scan tiles did."""
    lags = np.empty(times.size)
    lags[0] = first_lag
    np.subtract(times[1:], times[:-1], out=lags[1:])
    lags[1:] /= tau_c_ticks
    return lags


def random_times(rng, n, mean_gap):
    """n sorted int64 candidate times with rounded exponential gaps, 20% of
    them zero, as candidates that share a tick give."""
    gaps = np.rint(rng.exponential(mean_gap, n)).astype(np.int64)
    gaps[rng.random(n) < 0.2] = 0
    return int(rng.integers(0, 2**40)) + np.cumsum(gaps)


def field_intensity(tau_c_steps, n_steps, seed, chunk=1_000_000):
    """Normalized intensity of the scenario path's field on a uniform step grid.

    Chains the block kernel over chunks through its carried-in state,
    starting from the stationary distribution. A candidate on every tick at
    ``tau_c_steps`` ticks per coherence time makes every lag 1/tau_c_steps.
    """
    rng = np.random.default_rng(seed)
    intensity = np.empty(n_steps)
    x = y = 0.0
    with ps._BlockWork() as work:
        for lo in range(0, n_steps, chunk):
            n = min(chunk, n_steps - lo)
            times = np.arange(lo, lo + n, dtype=np.int64)
            first_lag = np.inf if lo == 0 else 1.0 / tau_c_steps
            xs, ys, _ = scan_block(work, times, tau_c_steps, first_lag, rng.standard_normal(n),
                                   rng.standard_normal(n), x, y, np.random.default_rng(seed))
            intensity[lo : lo + n] = 0.5 * (xs * xs + ys * ys)
            x, y = xs[-1], ys[-1]
    return intensity


@pytest.fixture(scope="module")
def long_field():
    return field_intensity(100, 10_000_000, seed=20)


class TestFieldIntensity:
    def test_mean_is_one(self, long_field):
        assert abs(long_field.mean() - 1.0) < 0.01

    def test_variance_is_one(self, long_field):
        # complex Gaussian field: <I^2>/<I>^2 = 2, so Var(I) = 1
        assert abs(long_field.var() - 1.0) < 0.02

    def test_autocorrelation_at_coherence_time(self, long_field):
        lag = 100  # one coherence time at dt = tau_c/100
        corr = np.mean(long_field[:-lag] * long_field[lag:]) / long_field.mean() ** 2
        assert abs(corr - (1.0 + math.exp(-2.0))) < 0.02

    def test_samples_non_negative(self, long_field):
        assert long_field.min() >= 0.0

    def test_short_coherence_time_simulates(self):
        # the field is sampled at candidate times, so no grid bounds tau_c from below
        config = ps.ScenarioConfig(
            source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=2e10, coherence_time_s=10e-12),
            duration_s=1e-6, seed=0, split_probe=0.5, split_ref=0.5,
        )
        for stream in ps.simulate_ranging_scenario(config)[:2]:
            assert len(stream) > 0
            assert np.all(np.diff(stream.times) >= 0)
            assert stream.times[0] >= 0 and stream.times[-1] <= stream.duration_ticks

    def test_deterministic(self):
        assert np.array_equal(field_intensity(100, 1000, seed=3), field_intensity(100, 1000, seed=3))

    @pytest.mark.parametrize("tau_c_steps", [3, 100, 12_345])
    def test_tick_grid_gives_the_step_grid_lags(self, tau_c_steps):
        # the lags of field_intensity's candidate-per-tick times are those of
        # a uniform step grid, bit for bit
        times = np.arange(77, 77 + 1000, dtype=np.int64)
        lags = kernel_lags(times, tau_c_steps, 1.0 / tau_c_steps)
        assert np.array_equal(lags, np.full(1000, 1.0 / tau_c_steps))


class TestGaussMarkovScan:
    @staticmethod
    def _sequential(lags, noise, carry):
        out = np.empty(lags.size)
        state = carry
        for i in range(lags.size):
            gain = math.exp(-lags[i]) if lags[i] < 37.0 else 0.0
            state = gain * state + math.sqrt(-math.expm1(-2.0 * lags[i])) * noise[i]
            out[i] = state
        return out

    @staticmethod
    def _random_block(n, seed):
        """Candidate times, ticks per coherence time, first lag and noise."""
        rng = np.random.default_rng(seed)
        tau_c_ticks = rng.uniform(10.0, 1000.0)
        times = random_times(rng, n, tau_c_ticks * rng.uniform(0.05, 30.0))
        first_lag = np.inf if rng.random() < 0.5 else rng.exponential(1.0)
        return times, tau_c_ticks, first_lag, rng.standard_normal(n), rng.standard_normal(n)

    def _check(self, work, n, seed):
        times, tau_c_ticks, first_lag, nx, ny = self._random_block(n, seed)
        x, y, keep = scan_block(work, times, tau_c_ticks, first_lag, nx, ny, 0.4, -1.1,
                                np.random.default_rng((seed, 1)))
        lags = kernel_lags(times, tau_c_ticks, first_lag)
        u = np.random.default_rng((seed, 1)).random(n)  # the twin of the kernel's generator
        assert np.allclose(x, self._sequential(lags, nx, 0.4), atol=1e-9)
        assert np.allclose(y, self._sequential(lags, ny, -1.1), atol=1e-9)
        assert np.array_equal(keep, u * ps.DEFAULT_INTENSITY_CAP < 0.5 * (x * x + y * y))

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_matches_sequential_recursion(self, n, seed):
        with ps._BlockWork() as work:
            self._check(work, n, seed)

    @pytest.mark.parametrize("tile_rows", [1, 2, 3])
    def test_tiles_and_thread_split(self, monkeypatch, tile_rows):
        # tiny tiles: blocks of up to 16 rows cross many tile boundaries and
        # the split between the two threads, with partial last rows; one
        # workspace serves blocks larger and smaller than those before
        monkeypatch.setattr(ps, "_TILE_ROWS", tile_rows)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads finely
        try:
            with ps._BlockWork() as work:
                for seed, n in enumerate([1, 64, 65, 130, 1000, 200, 577, 999, 3]):
                    self._check(work, n, seed)
        finally:
            sys.setswitchinterval(interval)

    def test_golden_field_bytes(self, monkeypatch):
        # the chains and verdicts bit for bit, so a change to the kernel's
        # arithmetic shows even where it flips no thinning verdict. The digest
        # is that of the kernel fed whole-block lags (as `kernel_lags` forms
        # them) and uniforms, which matched the full-block scan it replaced
        monkeypatch.setattr(ps, "_TILE_ROWS", 2)
        digest = hashlib.sha256()
        with ps._BlockWork() as work:
            for n, seed, mean_gap, first_lag in [(1000, 31, 15.0, np.inf), (777, 32, 1e4, 0.5)]:
                rng = np.random.default_rng(seed)
                times = random_times(rng, n, mean_gap)
                nx, ny = rng.standard_normal(n), rng.standard_normal(n)
                x, y, keep = scan_block(work, times, 5000.0, first_lag, nx, ny, 0.4, -1.1,
                                        np.random.default_rng((seed, 1)))
                for a in (x, y, keep):
                    digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "6cffc6327aa77ba2a5195b7362a1663e26726a5729882527e33fbeb6a46202bd"
        )


def cox_arrivals(rate_ref, rate_probe, coherence_time_s, duration_s, seed):
    """Undelayed reference and probe signal streams from the scenario path's sampler."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    return ps._sample_cox_channels(rate_ref, rate_probe, 0, coherence_time_s,
                                   round(duration_s * 1e12), *rngs)


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def workspace_bytes(n):
    """Bytes of one block workspace for n samples: the int64 candidate time,
    the two float64 chains and the bool verdict per padded sample (25 B), five
    float64 values per row (40 B)."""
    rows = -(-n // ps._SCAN_COLUMNS)
    return rows * ps._SCAN_COLUMNS * (3 * 8 + 1) + rows * 5 * 8


def tile_scratch_bytes():
    """Bytes of the two threads' tile scratch."""
    return 2 * sum(a.nbytes for a in vars(ps._TileScratch(ps._TILE_ROWS)).values())


class TestWorkingSet:
    def test_reserve_drops_old_buffers_before_growing(self):
        n = 200_000

        def grow():
            with ps._BlockWork() as work:
                work.reserve(n)
                work.reserve(2 * n)

        assert traced_peak(grow) <= workspace_bytes(2 * n) + tile_scratch_bytes() + 64 * 1024

    @pytest.mark.parametrize("first_reserve", [None, 1_000])
    def test_multi_block_peak_is_one_block(self, monkeypatch, first_reserve):
        # four blocks of 100 K candidates on average; at seed 3 block 2 draws
        # more candidates than block 1 (100,198 against 100,037). A first
        # reserve cut to 1,000 makes the workspace grow mid-run, while the
        # block before is still alive; the bound is then taken at the
        # largest capacity. Tiles of 128 rows keep the one-tile draw of
        # candidate times (8 B per sample of a tile) well below a block's
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 100_000)
        monkeypatch.setattr(ps, "_TILE_ROWS", 128)
        rates, duration_ticks = [2e8, 8e8], 33_333_333
        block_mean = ps.DEFAULT_INTENSITY_CAP * sum(rates) * duration_ticks / 4 / 1e12
        capacity = math.ceil(block_mean + 10 * math.sqrt(block_mean))
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(3).spawn(3)]
        streams, capacities = [], []
        if first_reserve is not None:
            reserve = ps._BlockWork.reserve

            def cut_first(work, n):
                reserve(work, n if capacities else first_reserve)
                capacities.append(work.capacity)

            monkeypatch.setattr(ps._BlockWork, "reserve", cut_first)

        def sample():
            streams.extend(ps._sample_cox_channels(*rates, 0, 1e-9, duration_ticks, *rngs))

        peak = traced_peak(sample)
        if first_reserve is not None:
            assert capacities[0] < capacities[1] < max(capacities)  # grown at least twice
            capacity = max(capacities)
        output = sum(s.nbytes for s in streams)
        # one workspace (the block's candidate times among it), one tile's
        # draw of times, the streams being joined and their parts, the tile
        # scratch
        tile_draw = 8 * ps._TILE_ROWS * ps._SCAN_COLUMNS
        bound = workspace_bytes(capacity) + tile_draw + 2 * output + tile_scratch_bytes()
        assert output > 0 and peak <= bound

    def test_growth_mid_run_keeps_the_stream(self, monkeypatch):
        # a workspace first sized far below the blocks grows at block 1 and
        # again at each later block that is larger than all before it
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 5_000)

        def sample():
            rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(2024).spawn(3)]
            return ps._sample_cox_channels(3e6, 6e7, 0, 5e-9, 50_000_000, *rngs)

        expected = sample()
        reserve, capacities = ps._BlockWork.reserve, []

        def small_first(work, n):
            reserve(work, n if capacities else 1_000)
            capacities.append(work.capacity)

        monkeypatch.setattr(ps._BlockWork, "reserve", small_first)
        streams = sample()
        assert len(set(capacities[1:])) > 1  # grown with blocks already drawn
        assert all(np.array_equal(a, b) for a, b in zip(streams, expected, strict=True))


# SHA-256 of the two streams of `_sample_cox_channels(3e6, 6e7, 0, 5e-9,
# 50_000_000, ...)` at SeedSequence(2024) in blocks of 5,000 candidates
GOLDEN_STREAMS = [
    "ac1f409b3037bf6a98b7aeaee95b377907b273c67480c1706487538ddb35dca5",
    "3a5625d5615ca82ef357bffbc1764e59b1169d09d681835be8ce12fd828fbfcf",
]


class TestGenerateArrivals:
    def test_zero_rate_empty(self):
        for times in cox_arrivals(0.0, 0.0, 1e-9, 1e-6, seed=2):
            assert times.size == 0

    def test_homogeneous_counts(self):
        # Cox counts: Poisson variance plus the thermal excess rate*tau_c
        rate, duration = 5e6, 0.01
        times, probe = cox_arrivals(rate, 0.0, 1e-9, duration, seed=7)
        assert probe.size == 0
        expected = rate * duration
        assert abs(times.size - expected) < 5 * math.sqrt(expected * (1 + rate * 1e-9))

    def test_times_sorted_within_duration(self, monkeypatch):
        # small blocks: block-local sorted segments must still concatenate sorted
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 1_000)
        for times in cox_arrivals(1e8, 3e8, 1e-9, 1e-4, seed=5):
            assert times.size > 0
            assert np.all(np.diff(times) >= 0)
            assert times[0] >= 0
            assert times[-1] < round(1e-4 * 1e12)

    def test_exact_ticks_at_full_tick_range(self, monkeypatch):
        # blocks spanning far more than 2**53 ticks still give exact integer times
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 1_000)
        duration_ticks = 2**63 - 1
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(8).spawn(3)]
        streams = ps._sample_cox_channels(4e-5, 8e-5, 0, 1e-9, duration_ticks, *rngs)
        for times in streams:
            assert times.dtype == np.int64 and times.size > 50
            assert np.all(np.diff(times) >= 0)
            assert times[0] >= 0 and times[-1] < duration_ticks
            # a float draw at this span would land on multiples of 2**10
            assert np.any(times % 1024 != 0)

    @pytest.mark.parametrize("tile_rows", [1, 2, 3])
    def test_golden_bytes(self, monkeypatch, tile_rows):
        # several blocks and many tiles per block, the two threads switching
        # every microsecond while the noise streams into the scan; the
        # digests are those of the full-block scan this kernel replaced, so
        # a change that alters the random stream must update them on purpose
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 5_000)
        monkeypatch.setattr(ps, "_TILE_ROWS", tile_rows)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(2024).spawn(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streams = ps._sample_cox_channels(3e6, 6e7, 0, 5e-9, 50_000_000, *rngs)
        finally:
            sys.setswitchinterval(interval)
        assert [s.size for s in streams] == [144, 2965]
        assert [hashlib.sha256(s.tobytes()).hexdigest() for s in streams] == GOLDEN_STREAMS

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            SourceSpec(wavelength_m=518e-9, photon_rate_hz=-1.0, coherence_time_s=1e-9)


# Child-process set-up for the sampler's two-thread schedule: blocks of ~5 K
# candidates in ~40 tiles of 128, and generators whose draws go through hooks.
_SCHEDULE_SETUP = """
import json, threading
import numpy as np
from bunchlidar import photonsim as ps
ps._CANDIDATE_BLOCK = 5_000
ps._TILE_ROWS = 2
TILE = ps._TILE_ROWS * ps._SCAN_COLUMNS

class Hooked:
    def __init__(self, rng, **hooks):
        self.rng = rng
        vars(self).update(hooks)
    def __getattr__(self, name):
        return getattr(self.rng, name)

def rngs():
    return [np.random.default_rng(s) for s in np.random.SeedSequence(2024).spawn(3)]

def sample(candidates, field, accept):
    return ps._sample_cox_channels(3e6, 6e7, 0, 5e-9, 50_000_000, candidates, field, accept)

candidates, field, accept = rngs()
fills, next_block_noise = [], threading.Event()

def fill(out):
    # a block's x fill is larger than a tile; the first after a y tile is block 2's
    if out.size > TILE and fills and fills[-1] <= TILE:
        next_block_noise.set()
    fills.append(out.size)
    field.standard_normal(out=out)

def failing_call(message, call):
    before, surfaced = threading.active_count(), False
    try:
        call()
    except RuntimeError as exc:
        surfaced = str(exc) == message
    print(json.dumps([surfaced, threading.active_count() == before, next_block_noise.is_set()]))
"""


class TestStreamedNoise:
    def test_tiles_scan_while_the_noise_is_drawn(self):
        # the helper's second y fill of a block waits for a tile scanned on
        # the caller's thread: only a scan that starts on each tile's own
        # noise lets it go on
        code = _SCHEDULE_SETUP + (
            "expected = sample(*rngs())\n"
            "ran_here, waits, scan = threading.Event(), [], ps._scan_tile_rows\n"
            "def watched(*args):\n"
            "    if threading.current_thread() is threading.main_thread():\n"
            "        ran_here.set()\n"
            "    scan(*args)\n"
            "ps._scan_tile_rows = watched\n"
            "def second_y_fill_waits(out):\n"
            "    if not waits and fills and fills[-1] == TILE >= out.size:\n"
            "        waits.append(ran_here.wait(10))\n"
            "    fill(out)\n"
            "streams = sample(candidates, Hooked(field, standard_normal=second_y_fill_waits), accept)\n"
            "print(json.dumps([waits, all(np.array_equal(a, b)\n"
            "                             for a, b in zip(streams, expected, strict=True))]))\n"
        )
        waits, equal = run_child(code)
        assert waits == [True] and equal

    def test_the_helper_never_waits(self):
        # an executor whose submit runs the job to completion before it
        # returns: a helper job that waited for the caller would hang here
        code = _SCHEDULE_SETUP + (
            "import concurrent.futures, hashlib\n"
            "class Inline:\n"
            "    def __init__(self, max_workers):\n"
            "        pass\n"
            "    def submit(self, job, *args):\n"
            "        future = concurrent.futures.Future()\n"
            "        future.set_result(job(*args))\n"
            "        return future\n"
            "    def shutdown(self, wait):\n"
            "        pass\n"
            "ps.ThreadPoolExecutor = Inline\n"
            "print(json.dumps([hashlib.sha256(s.tobytes()).hexdigest() for s in sample(*rngs())]))\n"
        )
        assert run_child(code) == GOLDEN_STREAMS

    def test_helper_fault_mid_fill_surfaces_and_joins(self):
        code = _SCHEDULE_SETUP + (
            "def half_then_fail(out):\n"
            "    if len(fills) == 2:  # block 1's second y tile\n"
            "        fill(out[: out.size // 2])\n"
            "        raise RuntimeError('field draw failed')\n"
            "    fill(out)\n"
            "failing_call('field draw failed', lambda: sample(\n"
            "    candidates, Hooked(field, standard_normal=half_then_fail), accept))\n"
        )
        surfaced, joined, _ = run_child(code)
        assert surfaced and joined

    def test_caller_fault_while_helper_waits_surfaces_and_joins(self):
        # block 2's candidate draw fails once the helper has its noise in hand
        code = _SCHEDULE_SETUP + (
            "lows = set()\n"
            "def integers(low, *args, **kwargs):\n"
            "    lows.add(low)  # a block draws its times a tile at a time from its low tick\n"
            "    if len(lows) == 2:\n"
            "        next_block_noise.wait(10)\n"
            "        raise RuntimeError('candidate draw failed')\n"
            "    return candidates.integers(low, *args, **kwargs)\n"
            "failing_call('candidate draw failed', lambda: sample(\n"
            "    Hooked(candidates, integers=integers), Hooked(field, standard_normal=fill), accept))\n"
        )
        surfaced, joined, helper_started = run_child(code)
        assert surfaced and joined and helper_started

    def test_routing_fault_after_next_noise_started_surfaces_and_joins(self):
        # block 1's split into reference and probe waits for block 2's noise
        # to start, then fails: its probe verdicts fail their first negation
        code = _SCHEDULE_SETUP + (
            "class Verdicts(np.ndarray):\n"
            "    def __invert__(self):\n"
            "        next_block_noise.wait(10)\n"
            "        raise RuntimeError('routing failed')\n"
            "class Uniforms(np.ndarray):\n"
            "    def __ge__(self, other):\n"
            "        return (np.asarray(self) >= other).view(Verdicts)\n"
            "def random(*args, **kwargs):\n"
            "    return candidates.random(*args, **kwargs).view(Uniforms)\n"
            "failing_call('routing failed', lambda: sample(\n"
            "    Hooked(candidates, random=random), Hooked(field, standard_normal=fill), accept))\n"
        )
        surfaced, joined, helper_started = run_child(code)
        assert surfaced and joined and helper_started


class TestTileUniforms:
    def test_uniforms_follow_the_cursor(self):
        # this thread's first pass-2 tile waits until the helper holds a
        # tile (not a block's last), which it keeps until this thread has
        # finished a later tile: each tile draws its uniforms from the
        # block's accept-stream state advanced to its own first sample, so
        # tiles finished out of order still thin by the uniforms of their
        # own samples, and the streams keep their digests
        code = _SCHEDULE_SETUP + (
            "import hashlib\n"
            "finish, held = ps._finish_tile_rows, []\n"
            "holding, later_done = threading.Event(), threading.Event()\n"
            "def hooked(work, scratch, r0, r1):\n"
            "    on_main = threading.current_thread() is threading.main_thread()\n"
            "    if on_main and not holding.is_set():\n"
            "        holding.wait(10)\n"
            "    elif not on_main and not held and r1 * ps._SCAN_COLUMNS < work.times.size:\n"
            "        held.append(r0)\n"
            "        holding.set()\n"
            "        held.append(later_done.wait(10))\n"
            "    finish(work, scratch, r0, r1)\n"
            "    if on_main and held and r0 > held[0]:\n"
            "        later_done.set()\n"
            "ps._finish_tile_rows = hooked\n"
            "digests = [hashlib.sha256(s.tobytes()).hexdigest() for s in sample(*rngs())]\n"
            "print(json.dumps([held[1:], digests]))\n"
        )
        held, digests = run_child(code)
        assert held == [True] and digests == GOLDEN_STREAMS

    @pytest.mark.parametrize("fail_on_main", [False, True], ids=["helper", "caller"])
    def test_uniform_draw_fault_surfaces_and_joins(self, fail_on_main):
        # the first pass-2 tile on one thread fails; the other thread's first
        # pass-2 tile waits until the pass is stopped, so the failing thread
        # takes a tile. Either way the fault stops the pass: no tile is
        # entered after it
        code = _SCHEDULE_SETUP + (
            f"FAIL_ON_MAIN = {fail_on_main}\n"
            "failed, after = threading.Event(), []\n"
            "finish = ps._finish_tile_rows\n"
            "def hooked(work, *args):\n"
            "    on_main = threading.current_thread() is threading.main_thread()\n"
            "    if failed.is_set():\n"
            "        after.append(on_main)\n"
            "    elif on_main == FAIL_ON_MAIN:\n"
            "        failed.set()\n"
            "        raise RuntimeError('pass-2 tile failed')\n"
            "    else:\n"
            "        with work._turn:\n"
            "            work._turn.wait_for(lambda: work._stopped, 10)\n"
            "    finish(work, *args)\n"
            "ps._finish_tile_rows = hooked\n"
            "before, surfaced = threading.active_count(), False\n"
            "try:\n"
            "    sample(candidates, field, accept)\n"
            "except RuntimeError as exc:\n"
            "    surfaced = str(exc) == 'pass-2 tile failed'\n"
            "print(json.dumps([surfaced, threading.active_count() == before, after]))\n"
        )
        surfaced, joined, after = run_child(code)
        assert surfaced and joined and after == []

    def test_accept_stream_left_past_every_candidate(self, monkeypatch):
        # after several blocks, the accept generator is where n sequential
        # draws per block of n candidates leave it, though no tile drew
        # from it
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 5_000)
        monkeypatch.setattr(ps, "_TILE_ROWS", 2)
        sizes, scan = [], ps._gauss_markov_scan_pair

        def counted(work, times, *args):
            sizes.append(times.size)
            return scan(work, times, *args)

        monkeypatch.setattr(ps, "_gauss_markov_scan_pair", counted)
        seeds = np.random.SeedSequence(2024).spawn(3)
        rngs = [np.random.default_rng(s) for s in seeds]
        ps._sample_cox_channels(3e6, 6e7, 0, 5e-9, 50_000_000, *rngs)
        twin = np.random.default_rng(seeds[2])
        for n in sizes:
            twin.random(n)
        assert len(sizes) > 1
        assert rngs[2].bit_generator.state == twin.bit_generator.state


class TestSplitEvents:
    """Beam splitting: the scenario routes fixed fractions of the source rate."""

    def _counts(self, split_probe, split_ref, seed):
        source = SourceSpec(wavelength_m=518e-9, photon_rate_hz=5e6, coherence_time_s=1e-9)
        config = ps.ScenarioConfig(
            source=source, duration_s=0.04, seed=seed,
            split_probe=split_probe, split_ref=split_ref,
        )
        ref, probe, truth = ps.simulate_ranging_scenario(config)
        return len(ref), len(probe), truth

    def test_full_fraction_identity(self):
        n_ref, n_probe, truth = self._counts(1.0, 0.0, seed=1)
        assert n_ref == 0
        assert truth["signal_rate_probe_hz"] == 5e6
        assert n_probe > 0

    def test_asymmetric_92_4(self):
        n_ref, n_probe, _ = self._counts(0.92, 0.04, seed=2)
        for fraction, count in ((0.92, n_probe), (0.04, n_ref)):
            rate = 5e6 * fraction
            expected = rate * 0.04
            # Cox counts: Poisson variance plus the thermal excess rate*tau_c
            sigma = math.sqrt(expected * (1 + rate * 1e-9))
            assert abs(count - expected) < 5 * sigma

    def test_oversubscribed_fractions_rejected(self):
        with pytest.raises(ps.ConfigurationError):
            self._counts(1.5, 0.0, seed=0)

    def test_bunching_survives_balanced_split(self):
        # Bernoulli routing preserves thermal statistics: each arm of a 50:50
        # split still shows g2(0) = 2 against the other.
        source = SourceSpec(wavelength_m=518e-9, photon_rate_hz=2.4e6, coherence_time_s=TAU_C)
        config = ps.ScenarioConfig(
            source=source, distance_m=0.0, duration_s=0.35, seed=77,
            split_probe=0.5, split_ref=0.5,
        )
        arm_a, arm_b, _ = ps.simulate_ranging_scenario(config)
        hist = cross_correlate(arm_a, arm_b, CorrelationConfig(2_000, -150_000, 150_000))
        curve = normalize_g2(hist)
        fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 2e-9)
        assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.05)


class TestDelayEvents:
    """Propagation delay: the probe arm is the zero-distance probe shifted by 2*d*n/c."""

    DURATION_S = 2e-5

    def _probe(self, distance_m):
        source = SourceSpec(wavelength_m=518e-9, photon_rate_hz=1e8, coherence_time_s=1e-9)
        config = ps.ScenarioConfig(
            source=source, duration_s=self.DURATION_S, seed=4, distance_m=distance_m,
            split_probe=0.5, split_ref=0.5,
        )
        _, probe, truth = ps.simulate_ranging_scenario(config)
        return probe.times, truth["delay_ticks"]

    def _assert_shifted(self, distance_m, delay_ticks):
        undelayed, _ = self._probe(0.0)
        delayed, ticks = self._probe(distance_m)
        assert ticks == delay_ticks
        shifted = undelayed + delay_ticks
        assert np.array_equal(delayed, shifted[shifted <= round(self.DURATION_S * 1e12)])
        assert delayed.size > 0

    def test_zero_delay_identity(self):
        # a round trip under half a tick rounds to no shift at all
        self._assert_shifted(0.4e-12 * 299792458.0 / 2, 0)

    def test_nanosecond_shift(self):
        self._assert_shifted(5e-9 * 299792458.0 / 2, 5_000)

    def test_long_range_shift(self):
        self._assert_shifted(6439.7e-9 * 299792458.0 / 2, 6_439_700)

    def test_negative_delay_rejected(self):
        with pytest.raises(ps.ConfigurationError):
            self._probe(-1e-3)

    def test_overflow_raises(self):
        # a round trip beyond the 64-bit tick range raises instead of wrapping
        with pytest.raises(TickOverflowError):
            self._probe(2e15)

    def test_duration_plus_round_trip_overflow_refused(self):
        # each fits 64-bit ticks alone, but the delayed probe's last tick
        # would not: refused when the configuration is built, before sampling
        source = SourceSpec(photon_rate_hz=1e6, coherence_time_s=1e-9)
        half_range_s = 2**62 / 1e12
        distance_m = half_range_s * 299792458.0 / 2
        config = ps.ScenarioConfig(source=source, duration_s=0.9 * half_range_s, seed=1,
                                   distance_m=distance_m)
        assert config.duration_ticks + config.delay_ticks <= 2**63 - 1
        with pytest.raises(TickOverflowError, match="duration_s plus distance_m's round trip"):
            ps.ScenarioConfig(source=source, duration_s=1.1 * half_range_s, seed=1,
                              distance_m=distance_m)

    def test_sampler_delays_probe_to_top_of_tick_range(self, monkeypatch):
        # the probe is shifted in place up to duration + delay = 2**63 - 1
        # without a wrap, and the reference and the routing do not depend on
        # the delay
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 1_000)
        duration_ticks, delay_ticks = 2**62, 2**62 - 1

        def sample(delay):
            rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(8).spawn(3)]
            return ps._sample_cox_channels(8e-5, 8e-5, delay, 1e-9, duration_ticks, *rngs)

        ref, probe = sample(0)
        ref_delayed, probe_delayed = sample(delay_ticks)
        assert ref.size > 50 and probe.size > 50
        assert np.array_equal(ref_delayed, ref)
        assert np.array_equal(probe_delayed, probe + delay_ticks)
        assert probe_delayed[0] >= delay_ticks and np.all(np.diff(probe_delayed) >= 0)


def dead_time_filter_sequential(times, dead_ticks):
    """Event-by-event dead-time scan on Python ints: the oracle for dead_time_filter."""
    if dead_ticks <= 0 or times.size == 0:
        return times
    out = []
    last = None
    for t in times.tolist():
        if last is None or t - last >= dead_ticks:
            out.append(t)
            last = t
    return np.asarray(out, dtype=np.int64)


class TestDeadTime:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3_000),
        st.integers(min_value=0, max_value=60),
        st.sampled_from([1, 2, 7, 50, 200, "span"]),
        st.booleans(),
    )
    @example(seed=1, n=3_000, mean_gap=10, dead="span", at_top=True)
    @example(seed=2, n=2_000, mean_gap=0, dead=1, at_top=False)
    @example(seed=3, n=3_000, mean_gap=20, dead=200, at_top=True)
    @settings(max_examples=150, deadline=None)
    def test_doubling_matches_sequential(self, seed, n, mean_gap, dead, at_top):
        # gaps of 0 give duplicate ticks; with 2 * mean_gap < dead the whole
        # stream is one close run; at_top puts the last tick within dead of
        # the top of int64, where t + dead would wrap
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.integers(0, 2 * mean_gap + 1, n), dtype=np.int64)
        if dead == "span":
            span = int(times[-1] - times[0]) if n else 0
            dead = max(1, span + int(rng.integers(0, 2)))
        if at_top and n:
            times += (2**63 - 1) - times[-1] - int(rng.integers(0, dead))
        got = ps.dead_time_filter(times, dead)
        want = dead_time_filter_sequential(times, dead)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_burst_is_fast(self):
        # 200k events at 1e9/s into 50 ns: one close run the length of the
        # stream, where a filter quadratic in the run length takes minutes
        rng = np.random.default_rng(5)
        times = np.sort(rng.integers(0, 200_000_000, 200_000)).astype(np.int64)
        dead = 50_000
        assert int(np.diff(times).max()) < dead
        start = time.perf_counter()
        got = ps.dead_time_filter(times, dead)
        elapsed = time.perf_counter() - start
        assert np.array_equal(got, dead_time_filter_sequential(times, dead))
        assert elapsed < 2.0

    def test_known_chain(self):
        # c recovers because b was dropped, d then falls inside c's dead time
        times = np.array([0, 30, 60, 80], dtype=np.int64)
        assert ps.dead_time_filter(times, 50).tolist() == [0, 60]

    def test_saturation_rate(self):
        # non-paralyzable throughput: r_out = r_in / (1 + r_in * dead)
        rate_in = 1e8
        duration = 0.01
        rng = np.random.default_rng(11)
        n = rng.poisson(rate_in * duration)
        times = np.sort(rng.integers(0, int(duration * 1e12), n, dtype=np.int64))
        kept = ps.dead_time_filter(times, 50_000)
        expected = rate_in / (1 + rate_in * 50e-9) * duration
        assert kept.size == pytest.approx(expected, rel=0.03)


def detector_noise_oracle(times, spec, background_mean, duration_ticks, rng):
    """The detector chain as it was before the jitter was drawn in chunks:
    whole-stream offsets and sum, clipped through an unsigned view."""
    if background_mean > 0 and duration_ticks > 0:
        background = rng.integers(0, duration_ticks, size=rng.poisson(background_mean),
                                  dtype=np.int64)
        times = np.sort(np.concatenate([times, background]), kind="stable")
    times = ps.dead_time_filter(times, spec.dead_time_ticks)
    if spec.jitter_fwhm_s > 0 and times.size:
        sigma_ticks = spec.jitter_fwhm_s * 1e12 / ps._FWHM_PER_SIGMA
        offsets = np.rint(sigma_ticks * rng.standard_normal(times.size))
        offsets[np.abs(offsets) >= 2.0**63] = -(2.0**63)
        times = np.sort(times + offsets.astype(np.int64), kind="stable")
    if times.size:
        times = times[times.view(np.uint64) <= duration_ticks]
    return times


def near_tick_max_times():
    """Sorted ticks spanning the whole tick range, 500 of them within 1024
    ticks of 0 and 500 within 1024 of 2**63 - 1."""
    top = 2**63 - 1
    rng = np.random.default_rng(8)
    ends = rng.integers(0, 1024, 500)
    return np.sort(np.concatenate([rng.integers(0, top, 2000), ends, top - ends]))


def detector(fwhm_s, dead_time_s=0.0, dark_rate_hz=0.0):
    return ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=fwhm_s, dead_time_s=dead_time_s,
                           dark_rate_hz=dark_rate_hz)


# (times, detector, background mean, duration ticks) for the chunked chain
DURATION_TICKS = 10**9
JITTER_CASES = {
    **{f"near-tick-max-{fwhm_s:g}": (near_tick_max_times(), detector(fwhm_s), 0.0, 2**63 - 1)
       for fwhm_s in (40e-12, 1e3, 9e6)},
    "all-outside": (DURATION_TICKS + 10**6 + np.arange(0, 3_000_000, 1_000),
                    detector(40e-12), 0.0, DURATION_TICKS),
    "ends-at-duration": (np.repeat(np.linspace(0, DURATION_TICKS, 30, dtype=np.int64), 41),
                         detector(1e-12), 0.0, DURATION_TICKS),
    "background-and-dead-time": (
        np.sort(np.random.default_rng(3).integers(0, DURATION_TICKS, 5_000)),
        detector(40e-12, 20e-9, 1e4), 700.0, DURATION_TICKS),
    "no-jitter": (np.arange(0, 2 * DURATION_TICKS, 997_001), detector(0.0), 0.0, DURATION_TICKS),
}


class TestApplyDetector:
    """The detector chain after thinning: background, dead time, jitter, clip."""

    @pytest.mark.parametrize("tile_rows", [1, 2, 7])
    @pytest.mark.parametrize("case", sorted(JITTER_CASES))
    def test_chunked_jitter_matches_oracle(self, monkeypatch, case, tile_rows):
        # chunks of 64, 128 and 448 offsets
        monkeypatch.setattr(ps, "_TILE_ROWS", tile_rows)
        times, spec, background_mean, duration_ticks = JITTER_CASES[case]
        times = times.astype(np.int64)
        before = times.copy()
        want = detector_noise_oracle(times, spec, background_mean, duration_ticks,
                                     np.random.default_rng(9))
        got = ps._detector_noise(times, spec, background_mean, duration_ticks,
                                 np.random.default_rng(9))
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(times, before)  # the caller's array is left as it was
        if case == "all-outside":
            assert want.size == 0
        if case == "ends-at-duration":
            assert want[-1] == duration_ticks and 0 < want.size < times.size

    def test_jitter_peak_memory_bounded(self):
        # one copy of the stream (8 B per event), numpy's stable sort's merge
        # buffer (half the stream, 4 B per event) and four chunks of 8 B per
        # offset; the whole-stream offsets, their int64 cast and sum held at
        # once took over 3 copies
        n = 1_000_000
        times = np.sort(np.random.default_rng(4).integers(0, DURATION_TICKS, n))
        chunk = ps._TILE_ROWS * ps._SCAN_COLUMNS
        peak = traced_peak(lambda: ps._detector_noise(times, detector(40e-12), 0.0, DURATION_TICKS,
                                                      np.random.default_rng(5)))
        assert peak <= 8 * n + 4 * n + 4 * 8 * chunk

    def _times(self, n=100_000, duration=1e-3, seed=0):
        return np.sort(np.random.default_rng(seed).integers(0, int(duration * 1e12), n))

    def _detect(self, times, spec, ambient_rate_hz, duration, seed):
        return ps._detector_noise(
            times, spec, (ambient_rate_hz + spec.dark_rate_hz) * duration, round(duration * 1e12),
            np.random.default_rng(seed),
        )

    def test_ideal_detector_is_identity(self):
        times = self._times()
        out = self._detect(times, ps.IDEAL_DETECTOR, 0.0, 1e-3, seed=1)
        assert np.array_equal(out, times)

    def test_background_rate_added(self):
        spec = ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=0.0, dead_time_s=0.0, dark_rate_hz=100.0)
        out = self._detect(np.empty(0, dtype=np.int64), spec, 1e6, 1e-2, seed=3)
        expected = (1e6 + 100.0) * 0.01
        assert abs(out.size - expected) < 5 * math.sqrt(expected)

    def test_jitter_keeps_times_in_bounds(self):
        times = self._times(n=20_000, duration=1e-6, seed=4)
        spec = ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=40e-12, dead_time_s=0.0, dark_rate_hz=0.0)
        out = self._detect(times, spec, 0.0, 1e-6, seed=5)
        assert np.all(np.diff(out) >= 0)
        assert out[0] >= 0 and out[-1] <= round(1e-6 * 1e12)

    def test_jitter_spread_matches_fwhm(self):
        times = np.full(200_000, 500_000, dtype=np.int64)
        spec = ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=40e-12, dead_time_s=0.0, dark_rate_hz=0.0)
        out = self._detect(times, spec, 0.0, 1e-6, seed=6)
        sigma_ps = np.std(out.astype(np.float64) - 500_000)
        assert sigma_ps == pytest.approx(40.0 / (2 * math.sqrt(2 * math.log(2))), rel=0.02)

    @pytest.mark.parametrize("fwhm_s", [40e-12, 1e3, 9e6])
    def test_jitter_near_tick_max_matches_integer_reference(self, fwhm_s):
        # a span of the whole tick range and offsets up to past 2**63, with
        # events within 1024 ticks of either end: each event is kept iff
        # 0 <= t + offset <= duration in exact integers
        top = 2**63 - 1
        times = near_tick_max_times()
        spec = ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=fwhm_s, dead_time_s=0.0, dark_rate_hz=0.0)
        out = ps._detector_noise(times, spec, 0.0, top, np.random.default_rng(9))
        sigma_ticks = fwhm_s * 1e12 / ps._FWHM_PER_SIGMA
        offsets = np.rint(sigma_ticks * np.random.default_rng(9).standard_normal(times.size))
        shifted = [t + int(o) for t, o in zip(times.tolist(), offsets.tolist())]
        want = sorted(t for t in shifted if 0 <= t <= top)
        assert out.tolist() == want
        assert 0 < len(want) < times.size


class TestScenario:
    def _config(self, **overrides):
        base = dict(
            source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4e5, coherence_time_s=TAU_C),
            distance_m=0.0,
            duration_s=0.2,
            seed=55,
            split_probe=0.5,
            split_ref=0.5,
        )
        base.update(overrides)
        return ps.ScenarioConfig(**base)

    def test_deterministic_streams(self):
        ref1, probe1, truth1 = ps.simulate_ranging_scenario(self._config())
        ref2, probe2, truth2 = ps.simulate_ranging_scenario(self._config())
        assert np.array_equal(ref1.times, ref2.times)
        assert np.array_equal(probe1.times, probe2.times)
        assert truth1 == truth2

    def test_no_helper_thread_left_running(self):
        before = threading.active_count()
        ps.simulate_ranging_scenario(self._config(duration_s=0.01))
        assert threading.active_count() == before

    def test_zero_duration(self):
        ref, probe, _ = ps.simulate_ranging_scenario(self._config(duration_s=0.0))
        assert len(ref) == 0 and len(probe) == 0

    def test_zero_distance_peak_at_origin(self):
        ref, probe, _ = ps.simulate_ranging_scenario(self._config(duration_s=1.0, seed=66))
        hist = cross_correlate(ref, probe, CorrelationConfig(1_000, -150_000, 150_000))
        curve = normalize_g2(hist)
        fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 1e-9)
        assert abs(fit.delay_s) < 3 * fit.delay_err_s
        assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.12)

    def test_stationary_rate(self):
        ref, _, _ = ps.simulate_ranging_scenario(self._config(duration_s=1.0, seed=67))
        # rate constant over windows >> 100 tau_c within 5 sigma Poisson
        edges = np.linspace(0, ref.duration_ticks, 21)
        counts, _ = np.histogram(ref.times, bins=edges)
        expected = len(ref) / 20
        assert np.all(np.abs(counts - expected) < 5 * math.sqrt(expected))

    def test_thinning_invariance(self):
        # halving efficiency halves the rate but neither g2(0) nor tau_c moves
        fits = []
        for efficiency, seed in ((1.0, 31), (0.5, 32)):
            det = ps.DetectorSpec(
                efficiency=efficiency, jitter_fwhm_s=0.0, dead_time_s=0.0, dark_rate_hz=0.0
            )
            config = self._config(
                source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=3.2e6, coherence_time_s=TAU_C),
                duration_s=0.5, seed=seed, detector_ref=det, detector_probe=det,
            )
            ref, probe, truth = ps.simulate_ranging_scenario(config)
            assert len(ref) == pytest.approx(
                truth["signal_rate_reference_hz"] * 0.5, rel=0.02
            )
            hist = cross_correlate(ref, probe, CorrelationConfig(2_000, -150_000, 150_000))
            curve = normalize_g2(hist)
            fits.append(fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 2e-9))
        for fit in fits:
            assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.06)
            assert fit.coherence_time_s == pytest.approx(TAU_C, rel=0.1)

    def test_truth_record_contents(self):
        _, _, truth = ps.simulate_ranging_scenario(self._config(distance_m=1.5))
        assert truth["delay_ticks"] == round(2 * 1.5 / 299792458.0 * 1e12)
        assert truth["probe_signal_fraction"] == 1.0
        assert truth["signal_rate_probe_hz"] == pytest.approx(2e5)

    def test_bunching_ground_truth_1ns(self):
        # fine bins (w <= tau_c/20): g2(0) = 2.00 +/- 0.05 and tau_c within 5%
        # (the 23.2 ns twin runs at full scale in the acceptance suite)
        config = self._config(
            source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4.4e7, coherence_time_s=1e-9),
            duration_s=0.08, seed=91,
        )
        ref, probe, _ = ps.simulate_ranging_scenario(config)
        hist = cross_correlate(ref, probe, CorrelationConfig(40, -8_000, 8_000))
        curve = normalize_g2(hist)
        fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 40e-12)
        assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.05)
        assert fit.coherence_time_s == pytest.approx(1e-9, rel=0.05)

    def test_multi_seed_mean_matches_truth(self):
        # one fixed seed passes a ~1 s.e. band only by luck; the mean over K
        # seeds of a short 1 ns run must sit within 3 s.e. of the truth
        truth = np.array([2.0, 1e-9])  # g2(0), tau_c
        samples = []
        for seed in range(12):
            config = self._config(
                source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4.4e7, coherence_time_s=1e-9),
                duration_s=0.004, seed=seed,
            )
            ref, probe, _ = ps.simulate_ranging_scenario(config)
            curve = normalize_g2(cross_correlate(ref, probe, CorrelationConfig(40, -8_000, 8_000)))
            fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 40e-12)
            samples.append((fit.baseline + fit.amplitude, fit.coherence_time_s))
        samples = np.array(samples)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert np.all(stderr < 0.05 * truth), stderr  # resolves a 15% bias
        assert np.all(np.abs(mean - truth) <= 3 * stderr), (mean, stderr)

    def test_split_sum_enforced(self):
        with pytest.raises(ps.ConfigurationError):
            self._config(split_probe=0.7, split_ref=0.4)

    def test_negative_seed_rejected(self):
        with pytest.raises(ps.ConfigurationError, match="seed"):
            self._config(seed=-1)


class TestEventStream:
    def test_times_read_only_caller_array_writable(self):
        caller = np.array([1, 5, 9], dtype=np.int64)
        stream = ps.EventStream(0, caller, 1e-9)
        with pytest.raises(ValueError):
            stream.times[0] = 7
        caller[0] = 2  # the caller's own array is not frozen
        assert caller.flags.writeable

    @pytest.mark.parametrize("last", [0, 2**53 + 1, 2**63 - 1])
    def test_omitted_duration_is_last_tick_exactly(self, last):
        stream = ps.EventStream(1, np.array([0, last], dtype=np.int64))
        assert stream.duration_ticks == last
        assert stream.duration_s == last / 10**12
        empty = ps.EventStream(1, np.empty(0, dtype=np.int64))
        assert (empty.duration_ticks, empty.duration_s) == (0, 0.0)

    def test_non_integer_times_rejected(self):
        with pytest.raises(ps.ConfigurationError, match="times"):
            ps.EventStream(0, np.array([1.5, 2.7]))
        assert ps.EventStream(0, []).times.tolist() == []
        assert ps.EventStream(0, [1, 2]).times.tolist() == [1, 2]

    def test_positional_duration_in_seconds(self):
        stream = ps.EventStream(0, np.array([3, 340_000_000_000]), 0.34)
        assert (stream.duration_s, stream.duration_ticks) == (0.34, 340_000_000_000)

    @pytest.mark.parametrize("times, duration_s", [
        ([-1, 3], None),
        ([1, 2_000], 1e-9),
        ([1], -1.0),
    ])
    def test_range_invariants_rejected(self, times, duration_s):
        # order is covered by test_correlator's test_unsorted_rejected
        with pytest.raises(ps.ConfigurationError):
            ps.EventStream(0, np.array(times, dtype=np.int64), duration_s)
