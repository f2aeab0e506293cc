import itertools
import logging
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralflow import dynamics, experiments, hilbert, models
from chiralflow.errors import BadInitial, ConfigError, NotSpin
from chiralflow.experiments import DisorderConfig, concurrence
from conftest import disordered_stack, first_peak_time


@pytest.fixture(scope="module")
def base_spec():
    return models.asgf(4, 2.0, math.pi / 2)


@pytest.fixture(scope="module")
def onsite_spec(base_spec):
    """The base on spins, with a detuning and a Kerr term."""
    return replace(base_spec, statistics=hilbert.Statistics.spin(),
                   onsite=(hilbert.OnSite(2, 0.4, 0.0), hilbert.OnSite(5, -0.3, 0.8)))


def test_zero_disorder_is_perfect(base_spec):
    cfg = DisorderConfig("hopping_strength", 5, 1)
    points = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.0])
    assert points[0].mean_fidelity == pytest.approx(1.0, abs=1e-9)
    assert points[0].stderr == 0.0


@pytest.mark.parametrize("samples", [20, 200])
@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_equal_samples_have_zero_stderr(base_spec, kind, samples):
    # At amplitude 0 every sample is the clean network, bitwise; a mean of
    # equal values that does not round back to the value must not leak in.
    points = experiments.disorder_sweep(base_spec, DisorderConfig(kind, samples, 0), [0.0])
    assert points[0].stderr == 0.0


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_network_without_spectral_width_scans_two_points(kind):
    # Three uncoupled nodes: every level is 0, so the width bound of the
    # hopping kinds is 0 at any amplitude and the scan takes its two ends.
    # The excitation stays on node 1, one ring node of three.
    spec = models.NetworkSpec(3, 0, (), (), hilbert.Statistics.boson())
    for point in experiments.disorder_sweep(spec, DisorderConfig(kind, 5, 0), [0.0, 0.3]):
        assert point.mean_fidelity == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert point.stderr == 0.0


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_clean_row_searches_one_sample(base_spec, kind, monkeypatch):
    # Every sample of amplitude 0 is the base network: one is searched and
    # stands for all 50; the row at 0.3 searches each of its 50.
    searched = []

    def counted(eigenvalues, *args):
        searched.append(eigenvalues.shape[0])
        return window_peaks(eigenvalues, *args)

    window_peaks = experiments.window_peaks
    monkeypatch.setattr(experiments, "window_peaks", counted)
    experiments.disorder_sweep(base_spec, DisorderConfig(kind, 50, 0), [0.0, 0.3])
    assert sum(searched) == 1 + 50


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_negative_zero_amplitude_is_zero(base_spec, kind):
    # -0 draws and sweeps as 0 (uniform(0, -0) refuses its interval), and
    # its point reports +0.
    specs = [experiments.perturbed_spec(base_spec, kind, amplitude, np.random.default_rng(3))
             for amplitude in (-0.0, 0.0)]
    assert spec_bits(specs[0]) == spec_bits(specs[1])
    cfg = DisorderConfig(kind, 5, 0)
    point, = experiments.disorder_sweep(base_spec, cfg, [-0.0])
    assert math.copysign(1.0, point.amplitude) == 1.0
    assert [point] == experiments.disorder_sweep(base_spec, cfg, [0.0])


def test_disorder_reproducible(base_spec):
    cfg = DisorderConfig("hopping_phase", 40, 42)
    first = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.1, 0.3])
    second = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.1, 0.3])
    assert first == second
    other_seed = DisorderConfig("hopping_phase", 40, 43)
    assert experiments.disorder_sweep(base_spec, other_seed, amplitudes=[0.1, 0.3]) != first


def test_hopping_disorder_robustness(base_spec):
    for kind in ("hopping_strength", "hopping_phase"):
        cfg = DisorderConfig(kind, 200, 7)
        points = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.3])
        assert points[0].mean_fidelity > 0.9


def test_fidelity_non_increasing_with_amplitude(base_spec):
    cfg = DisorderConfig("hopping_strength", 500, 11)
    points = experiments.disorder_sweep(base_spec, cfg, amplitudes=[0.0, 0.25, 0.5, 1.0])
    means = [p.mean_fidelity for p in points]
    errs = [p.stderr for p in points]
    for i in range(len(means) - 1):
        assert means[i + 1] <= means[i] + 2 * (errs[i] + errs[i + 1])


def test_frequency_disorder_dominates_at_matched_relative_size(base_spec):
    # 30% of the node frequency, converted to hopping units, versus 30% of
    # the hopping itself.
    freq_amp = 0.3 * experiments.FREQUENCY_TO_HOPPING_RATIO
    freq = experiments.disorder_sweep(
        base_spec, DisorderConfig("frequency", 100, 3), amplitudes=[freq_amp])
    hop = experiments.disorder_sweep(
        base_spec, DisorderConfig("hopping_strength", 100, 3), amplitudes=[0.3])
    assert freq[0].mean_fidelity < hop[0].mean_fidelity


def test_hopping_scale_frequency_disorder_beats_tiny_hopping_disorder(base_spec):
    # Frequency disorder comparable to the hopping rate is a minute fraction
    # of the node frequency; hopping disorder of that same fraction is
    # harmless by comparison.
    fraction = 1.0 / experiments.FREQUENCY_TO_HOPPING_RATIO
    freq = experiments.disorder_sweep(
        base_spec, DisorderConfig("frequency", 120, 9), amplitudes=[1.0])
    hop = experiments.disorder_sweep(
        base_spec, DisorderConfig("hopping_strength", 120, 9),
        amplitudes=[fraction])
    assert freq[0].mean_fidelity < hop[0].mean_fidelity - 0.01
    assert hop[0].mean_fidelity > 0.999


def reference_sweep(base, cfg, amplitudes, draw=experiments.perturbed_spec):
    """The per-sample pipeline: each sample, a spec drawn by ``draw`` from the
    amplitude's one generator in sample order, is simulated alone on the
    sweep's scan, ``window_peaks`` takes each ring node's maximum from the
    sample's own eigensystem, and the sqrt of those are averaged; then mean
    and standard error."""
    basis = hilbert.enumerate_basis(base.n_sites, 1, base.statistics)
    ring = [j - 1 for j in base.ring_nodes]
    points = []
    counts = experiments._scan_points(base, cfg.kind, amplitudes, basis)
    for a_idx, (amplitude, count) in enumerate(zip(amplitudes, counts)):
        times = np.linspace(0.0, math.pi, count)
        fidelities = []
        # One stream per amplitude, each sample drawn after the one before.
        rng = np.random.default_rng((cfg.seed, a_idx))
        for _ in range(cfg.samples):
            spec = draw(base, cfg.kind, amplitude, rng)
            traj = dynamics.simulate(spec, hilbert.occupation(spec.n_sites, 1), times)
            system = dynamics.eigendecompose(hilbert.build_hamiltonian(spec, basis))
            vectors = system.eigenvectors
            peaks = dynamics.window_peaks(system.eigenvalues, vectors[ring] * vectors[0].conj(),
                                          0.0, math.pi / (count - 1), traj.populations[:, ring])
            fidelities.append(np.mean(np.sqrt(peaks.values)))
        results = np.array(fidelities)
        stderr = (float(np.std(results - results[0], ddof=1) / math.sqrt(cfg.samples))
                  if cfg.samples > 1 else 0.0)
        points.append(experiments.DisorderPoint(amplitude, float(np.mean(results)),
                                                stderr, cfg.samples))
    return points


def chunk_samples(base, kind, amplitude):
    """Samples per chunk of the sweep at one amplitude."""
    basis = hilbert.enumerate_basis(base.n_sites, 1, base.statistics)
    count = experiments._scan_points(base, kind, [amplitude], basis)[0]
    return max(experiments._CHUNK_MIN_SAMPLES,
               experiments._CHUNK_ENTRIES // (count * len(basis)))


# Amplitudes whose scans are long enough to split a few dozen samples into
# chunks: strength draws of 10 cross zero, phase draws of 4 wrap past pi.
LARGE_AMPLITUDE = {"frequency": 30.0, "hopping_strength": 10.0, "hopping_phase": 4.0}


@pytest.mark.parametrize("samples", [1, 7, 9])
@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_blocked_sweep_is_the_per_sample_pipeline_bit_for_bit(base_spec, kind, samples):
    # One chunk per amplitude: each sample's search is bitwise its own.
    cfg = DisorderConfig(kind, samples, 4)
    amplitudes = [0.0, 0.3] + ([30.0] if kind == "frequency" else [])
    assert (experiments.disorder_sweep(base_spec, cfg, amplitudes)
            == reference_sweep(base_spec, cfg, amplitudes))


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_chunked_sweep_is_the_per_sample_pipeline_bit_for_bit(base_spec, kind):
    # Two chunks at the larger amplitude, the second of two samples.
    large = LARGE_AMPLITUDE[kind]
    cfg = DisorderConfig(kind, chunk_samples(base_spec, kind, large) + 2, 6)
    amplitudes = [0.3, large]
    assert (experiments.disorder_sweep(base_spec, cfg, amplitudes)
            == reference_sweep(base_spec, cfg, amplitudes))


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_sweep_does_not_depend_on_the_chunk_size(base_spec, kind, monkeypatch):
    # One sample per chunk, chunks that do not divide the samples, and one
    # chunk for all: the draws are the same stream.
    cfg = DisorderConfig(kind, 45, 8)
    amplitudes = [0.3, LARGE_AMPLITUDE[kind]]
    sweeps = []
    monkeypatch.setattr(experiments, "_CHUNK_MIN_SAMPLES", 1)
    for entries in (1, 7 * 5 * 200, 2**20):
        monkeypatch.setattr(experiments, "_CHUNK_ENTRIES", entries)
        sweeps.append(experiments.disorder_sweep(base_spec, cfg, amplitudes))
    assert sweeps[0] == sweeps[1] == sweeps[2]


def test_default_study_moves_each_sample_up_by_at_most_the_grid_bound(base_spec):
    # Every sample of the default study (seed 0, 200 samples per row)
    # against the 1601-point grid of [0, pi] whose maximum the sweep took
    # before its certified search: per ring node, old - delta <= new <=
    # old + M h^2 / 8, h = pi / 1600, M = sum_kl |c_k||c_l| (E_k - E_l)^2 and
    # delta = PEAK_TOL times the ceiling (the certificate) plus 1e-15 (the
    # rounding of the two evaluations).  Measured: the largest fall is
    # 4.4e-16, the largest rise 7.2e-6 (0.995 of its bound), and a sample's
    # fidelity rises by at most 2.0e-6.  Each row's mean is the sweep's.
    basis = hilbert.enumerate_basis(base_spec.n_sites, 1, base_spec.statistics)
    psi0 = basis.unit_vector(hilbert.occupation(base_spec.n_sites, 1))
    ring = [j - 1 for j in base_spec.ring_nodes]
    grid = np.linspace(0.0, math.pi, 1601)
    h = grid[1]
    for kind in experiments.DISORDER_KINDS:
        amplitudes = [0.0, 0.1, 0.2, 0.3]
        points = experiments.disorder_sweep(base_spec, DisorderConfig(kind, 200, 0), amplitudes)
        for a_idx, (amplitude, point) in enumerate(zip(amplitudes, points)):
            pattern = hilbert._spec_pattern(experiments.perturbed_spec(
                base_spec, kind, amplitude, np.random.default_rng((0, a_idx))), basis)
            stack = disordered_stack(base_spec, kind, amplitude, basis, pattern,
                                     np.random.default_rng((0, a_idx)), 200)
            system, weights, phases, modes = dynamics._eigen_phase_modes(stack, psi0, grid)
            old = dynamics._populations(phases, modes, None, grid.size)[..., ring].max(axis=-2)
            count = experiments._scan_points(base_spec, kind, [amplitude], basis)[0]
            _, _, phases, modes = dynamics._eigen_phase_modes(
                stack, psi0, np.linspace(0.0, math.pi, count))
            coefficients = system.eigenvectors[:, ring] * weights[:, None, :]
            new = dynamics.window_peaks(
                system.eigenvalues, coefficients, 0.0, math.pi / (count - 1),
                dynamics._populations(phases, modes, None, count)[..., ring]).values
            size = np.abs(coefficients)
            gaps = system.eigenvalues[:, :, None] - system.eigenvalues[:, None, :]
            curvature = np.einsum("sjk,sjl,skl->sj", size, size, gaps**2)
            delta = dynamics.PEAK_TOL * size.sum(axis=-1) ** 2 + 1e-15
            assert np.all(old - delta <= new), (kind, amplitude, np.min(new - old))
            assert np.all(new <= old + curvature * h * h / 8.0), (kind, amplitude)
            assert np.mean(np.sqrt(new).mean(axis=-1)) == point.mean_fidelity


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
@pytest.mark.parametrize("sample", [0, 1, 6, 41])
def test_sample_s_is_the_amplitude_stream_advanced_past_s_samples(base_spec, onsite_spec,
                                                                  kind, sample):
    # Sample s of amplitude a_idx is a copy drawn from the (seed, a_idx)
    # stream after s copies' worth of doubles, whatever the sample count.
    seed, a_idx, amplitude = 3, 2, 0.4
    for base in (base_spec, onsite_spec):
        basis = hilbert.enumerate_basis(base.n_sites, 1, base.statistics)
        size = base.n_sites if kind == "frequency" else len(base.hoppings)
        stream = np.random.PCG64(np.random.SeedSequence((seed, a_idx))).advance(sample * size)
        spec = experiments.perturbed_spec(base, kind, amplitude, np.random.Generator(stream))
        h = hilbert.build_hamiltonian(spec, basis)
        values = disordered_stack(base, kind, amplitude, basis, hilbert._spec_pattern(spec, basis),
                                  np.random.default_rng((seed, a_idx)), sample + 3).values
        assert np.array_equal(values[sample].view(np.uint64), h.values.view(np.uint64))


@pytest.mark.parametrize("n_ring", [38, 39], ids=["fold", "table"])
def test_sweep_on_either_side_of_the_fold_is_the_per_sample_pipeline_bit_for_bit(n_ring):
    # A frequency amplitude whose scan has 1600 points: K is 40 for 39 states
    # (40 * 39 < 1600), and is cut to 39 for 40 states (40 * 40 >= 1600).
    base = models.asgf(n_ring, 2.0, math.pi / 2)
    basis = hilbert.enumerate_basis(base.n_sites, 1, base.statistics)
    levels = dynamics.eigendecompose(hilbert.build_hamiltonian(base, basis)).eigenvalues
    amplitude = (1598.5 * experiments._SCAN_PHASE / math.pi - (levels[-1] - levels[0])) / 2.0
    assert experiments._scan_points(base, "frequency", [amplitude], basis)[0] == 1600
    assert dynamics._fold(1600, base.n_sites) == (40 if n_ring == 38 else 39)
    cfg = DisorderConfig("frequency", 5, 2)
    amplitudes = [0.0, amplitude]
    assert (experiments.disorder_sweep(base, cfg, amplitudes)
            == reference_sweep(base, cfg, amplitudes))


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_sweep_with_onsite_terms_is_the_per_sample_pipeline_bit_for_bit(onsite_spec, kind):
    # Frequency disorder appends its offsets after the base's terms.  Strength
    # draws of 3 cross zero; phase draws of 4 wrap past pi.  The reference
    # builds each sample by ``dataclasses.replace``, apart from the sweep's
    # array draw.
    cfg = DisorderConfig(kind, 7, 5)
    amplitudes = [0.0, 0.3, 4.0 if kind == "hopping_phase" else 3.0]
    assert (experiments.disorder_sweep(onsite_spec, cfg, amplitudes)
            == reference_sweep(onsite_spec, cfg, amplitudes, draw=replaced_spec))


@pytest.mark.parametrize("kind", experiments.DISORDER_KINDS)
def test_sweep_draws_one_spec_per_amplitude(base_spec, kind, monkeypatch):
    # The other samples are drawn as arrays, with no spec of their own.
    drawn = []

    def counted(base, kind, amplitude, rng):
        drawn.append(amplitude)
        return perturbed_spec(base, kind, amplitude, rng)

    perturbed_spec = experiments.perturbed_spec
    monkeypatch.setattr(experiments, "perturbed_spec", counted)
    # One sample per chunk.
    monkeypatch.setattr(experiments, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(experiments, "_CHUNK_MIN_SAMPLES", 1)
    cfg = DisorderConfig(kind, 9, 0)
    experiments.disorder_sweep(base_spec, cfg, [0.0, 0.1, 0.3])
    assert drawn == [0.0, 0.1, 0.3]


def test_sweep_logs_its_search_once_per_amplitude(base_spec, caplog):
    # At INFO each amplitude gets one line: the samples searched, the scan
    # points, the Newton brackets refined, the nodes bisection had to search
    # and the largest certificate.  The clean ring, searched once, peaks at
    # each node's ceiling or between samples; frequency draws of 30 leave
    # nodes for bisection.
    caplog.set_level(logging.INFO, logger="chiralflow.experiments")
    amplitudes = [0.0, 0.3, 30.0]
    experiments.disorder_sweep(base_spec, DisorderConfig("frequency", 20, 1), amplitudes)
    basis = hilbert.enumerate_basis(base_spec.n_sites, 1, base_spec.statistics)
    counts = experiments._scan_points(base_spec, "frequency", amplitudes, basis)
    lines = [record.getMessage() for record in caplog.records]
    assert len(lines) == len(amplitudes)
    found = []
    for line, amplitude, count in zip(lines, amplitudes, counts):
        match = re.search(r"amplitude=(\S+) .*searched=(\d+) scan=(\d+) points refined=(\d+) "
                          r"bisected=(\d+) certificate=(\S+)$", line)
        assert match, line
        assert float(match[1]) == amplitude
        searched = int(match[2])
        assert searched == (1 if amplitude == 0 else 20)
        assert int(match[3]) == count
        refined, bisected = int(match[4]), int(match[5])
        # At most one bracket and one bisection per ring node and sample searched.
        assert 0 <= refined <= searched * 4 and 0 <= bisected <= searched * 4
        assert float(match[6]) <= dynamics.PEAK_TOL
        found.append((refined, bisected))
    assert found[0][1] == 0 and found[2][1] > 0


def replaced_spec(base, kind, amplitude, rng):
    """A disordered spec drawn as ``perturbed_spec`` draws it, built through
    ``dataclasses.replace`` of every term."""
    if kind == "frequency":
        offsets = rng.uniform(-amplitude, amplitude, base.n_sites)
        return replace(base, onsite=base.onsite + tuple(
            hilbert.OnSite(j + 1, float(offsets[j]), 0.0) for j in range(base.n_sites)))
    deltas = rng.uniform(-amplitude, amplitude, len(base.hoppings))
    hops = []
    for hop, d in zip(base.hoppings, deltas):
        if kind == "hopping_phase":
            hops.append(replace(hop, phase=hop.phase + float(d)))
        elif hop.amplitude + float(d) >= 0:
            hops.append(replace(hop, amplitude=hop.amplitude + float(d)))
        else:
            hops.append(replace(hop, amplitude=-(hop.amplitude + float(d)),
                                phase=hop.phase + math.pi))
    return replace(base, hoppings=tuple(hops))


def spec_bits(spec):
    """Every field of a spec, floats as their exact hex form (-0.0 apart)."""
    return (spec.n_network, spec.auxiliary_count, spec.statistics, spec.labels,
            tuple((h.j, h.k, h.amplitude.hex(), h.phase.hex()) for h in spec.hoppings),
            tuple((t.j, t.delta_omega.hex(), t.kerr_u.hex()) for t in spec.onsite))


def test_perturbed_spec_respects_invariants(base_spec, onsite_spec):
    rng = np.random.default_rng(0)
    for kind in experiments.DISORDER_KINDS:
        spec = experiments.perturbed_spec(base_spec, kind, 0.5, rng)
        assert all(h.amplitude >= 0 for h in spec.hoppings)
        assert all(-math.pi < h.phase <= math.pi for h in spec.hoppings)
    # Strength draws up to 3 cross zero for the unit ring links and the
    # auxiliary links of 2 (the phase then gains pi and is wrapped).  On a
    # base with on-site terms, the drawn offsets come after them.
    crossed = 0
    for kind, base in itertools.product(experiments.DISORDER_KINDS, (base_spec, onsite_spec)):
        for amplitude in (0.0, 0.5, 3.0):
            for seed in range(40):
                spec = experiments.perturbed_spec(base, kind, amplitude,
                                                  np.random.default_rng((seed, 1)))
                expected = replaced_spec(base, kind, amplitude,
                                         np.random.default_rng((seed, 1)))
                assert spec_bits(spec) == spec_bits(expected)
                assert all(h.amplitude >= 0 for h in spec.hoppings)
                assert all(-math.pi < h.phase <= math.pi for h in spec.hoppings)
                if kind == "hopping_strength":
                    crossed += sum(math.cos(h.phase - b.phase) < 0
                                   for h, b in zip(spec.hoppings, base.hoppings))
    assert crossed > 40


@pytest.mark.parametrize("kind", ["hopping_phase", "frequency"])
def test_sweep_memory_does_not_grow_with_samples(base_spec, kind):
    # Eight chunks of samples take the working memory of one (+0.06 MiB): each
    # chunk's arrays are freed before the next chunk's are formed.
    def peak(samples):
        cfg = DisorderConfig(kind, samples, 2)
        tracemalloc.start()
        try:
            experiments.disorder_sweep(base_spec, cfg, [0.3])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunk = chunk_samples(base_spec, kind, 0.3)
    peak(chunk)  # the first sweep also sets up NumPy's lazy state
    one, eight = peak(chunk), peak(8 * chunk)
    assert eight - one < 2**19, (one, eight)


def test_revival_fidelity_of_perfect_cell(base_spec):
    fidelity, period = experiments.revival_fidelity(base_spec)
    assert fidelity == pytest.approx(1.0, abs=1e-9)
    assert period == pytest.approx(math.pi, abs=1e-6)


def _levels(spec):
    """Eigenvalues and node-1 weights of the one-excitation sector."""
    basis = hilbert.enumerate_basis(spec.n_sites, 1, spec.statistics)
    values, vectors = np.linalg.eigh(hilbert.build_hamiltonian(spec, basis).matrix)
    return values, np.abs(vectors[0]) ** 2


def _scan(values, weights, samples):
    """The search window of ``revival_fidelity`` on ``samples`` points, and the
    return overlap on each."""
    scale = max(1.0, float(np.max(np.abs(values))))
    populated = (weights > 1e-8) & (np.abs(values) > 1e-9 * scale)
    t_est = 2.0 * math.pi / float(np.min(np.abs(values[populated])))
    times = np.linspace(0.5 * t_est, 1.7 * t_est, samples)
    angles = np.outer(times, values)
    return times, (np.cos(angles) @ weights) ** 2 + (np.sin(angles) @ weights) ** 2


def _scanned_revival(spec, samples=100_001):
    """Brute-force maximum of the node-1 return overlap over the search window."""
    times, overlap = _scan(*_levels(spec), samples)
    best = int(np.argmax(overlap))
    return float(overlap[best]), float(times[best]), float(times[1] - times[0])


def _derivatives(t, values, weights):
    """F = |A|^2, F' and F'' at t, A(t) = sum_k w_k exp(-i E_k t)."""
    a, da, dda = (np.sum((-1j * values) ** p * weights * np.exp(-1j * values * t))
                  for p in range(3))
    return (abs(a) ** 2, 2.0 * (a.conjugate() * da).real,
            2.0 * (abs(da) ** 2 + (a.conjugate() * dda).real))


def test_revival_fidelity_matches_brute_force_scan():
    rng = np.random.default_rng(2024)
    for n in range(1, 9):
        steps = rng.uniform(0.05, 1.5, (n + 1) // 2 - 1)
        monotone = [2.0] + list(2.0 + np.cumsum(steps))
        for profile in ([2.0], monotone):
            spec = models.ladder(n, profile)
            fidelity, period = experiments.revival_fidelity(spec)
            scan_fidelity, scan_period, spacing = _scanned_revival(spec)
            assert fidelity >= scan_fidelity - 1e-12
            assert abs(period - scan_period) <= spacing


def _window_peak(spec):
    """``window_peaks`` on node 1's return population over the revival window,
    scanned with steps h of at most 1 / W, W the spectral width: the
    certified maximum and its certificate."""
    values, weights = _levels(spec)
    times, _ = _scan(values, weights, 2)
    count = 1 + math.ceil((times[1] - times[0]) * (values[-1] - values[0]))
    times, overlap = _scan(values, weights, count)
    peaks = dynamics.window_peaks(values, weights[None, :], times[0], times[1] - times[0],
                                  overlap[:, None])
    return float(peaks.values[0]), float(peaks.certificates[0])


def test_revival_fidelity_is_the_certified_window_maximum():
    # Uniform ladders of 1-16 cells, the optimised profiles of 8 and 10 cells
    # and random monotone profiles: the revival search finds the window's
    # maximum.  Measured: the two agree within 5.6e-16, with certificates of
    # at most 4.8e-15; the bar adds 1e-15 of rounding on F <= 1.
    specs = [models.ladder(n, [2.0]) for n in range(1, 17)]
    specs += [models.ladder(n, experiments.optimize_ladder(n, seed=0).beta_profile)
              for n in (8, 10)]
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for _ in range(3):
            steps = rng.uniform(0.05, 1.5, (n + 1) // 2 - 1)
            specs.append(models.ladder(n, [2.0, *(2.0 + np.cumsum(steps))]))
    for spec in specs:
        fidelity, _ = experiments.revival_fidelity(spec)
        peak, certificate = _window_peak(spec)
        assert abs(fidelity - peak) <= certificate + 1e-15


def test_uniform_one_cell_period_is_pi_to_rounding():
    fidelity, period = experiments.revival_fidelity(models.ladder(1, [2.0]))
    assert abs(period - math.pi) <= 1e-14 * math.pi
    assert fidelity == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.floats(min_value=0.05, max_value=1.5),
                         min_size=(n + 1) // 2 - 1, max_size=(n + 1) // 2 - 1))))
def test_revival_peak_is_a_root_of_the_slope(case):
    # On monotone ladder profiles the peak is a root of F' to rounding: the
    # phases E_k t carry a rounding of eps |E_k t| each.  It lies between the
    # neighbours of the best scanned sample and is no lower than that sample.
    n, steps = case
    values, weights = _levels(models.ladder(n, [2.0, *(2.0 + np.cumsum(steps))]))
    fidelity, t = experiments._revival_peak(values, weights)
    _, slope, _ = _derivatives(t, values, weights)
    eps = np.finfo(float).eps
    assert abs(slope) <= 16 * eps * np.sum(np.abs(values) * weights * (1 + np.abs(values) * t))
    times, overlap = _scan(values, weights, experiments._REVIVAL_POINTS)
    best = int(np.argmax(overlap))
    assert times[max(best - 1, 0)] <= t <= times[min(best + 1, times.size - 1)]
    assert fidelity >= overlap[best] - 1e-15


@pytest.mark.parametrize("gap,edge", [(0.2, 0.5), (0.5, 1.7)])
def test_revival_peak_at_the_window_edge_is_the_edge_sample(gap, edge):
    # F = (1 + cos(gap t)) / 2 over the window [pi, 3.4 pi] (t_est = 2 pi):
    # for gap 0.2 it falls from the left edge, for gap 0.5 the right edge is
    # highest.  F' has no root there, so the edge sample stands.
    values, weights = np.array([1.0, 1.0 + gap]), np.array([0.5, 0.5])
    fidelity, t = experiments._revival_peak(values, weights)
    assert t == edge * 2.0 * math.pi
    assert fidelity == pytest.approx((1.0 + math.cos(gap * t)) / 2.0, abs=1e-15)
    assert _derivatives(t, values, weights)[1] != 0.0


def test_revival_peak_keeps_the_sample_when_the_slope_does_not_change_sign(monkeypatch):
    # A ripple of frequency 39 on a slow beat is not resolved by 7 samples of
    # [pi, 3.4 pi]: F' has the same sign at the best sample and at the
    # neighbour on its climbing side, so no root is bracketed and the sample
    # stands rather than a lower point between them.
    values, weights = np.array([1.0, 1.2, 40.0]), np.array([0.45, 0.45, 0.1])
    times, overlap = _scan(values, weights, 7)
    best = int(np.argmax(overlap))
    _, slope, _ = _derivatives(times[best], values, weights)
    other = times[best + 1] if slope > 0 else times[best - 1]
    assert slope * _derivatives(other, values, weights)[1] > 0.0
    monkeypatch.setattr(experiments, "_REVIVAL_POINTS", 7)
    fidelity, t = experiments._revival_peak(values, weights)
    assert t == times[best]
    assert fidelity == pytest.approx(overlap[best], abs=1e-15)


@pytest.mark.parametrize("levels,convex", [(10, True), (9, False)])
def test_revival_peak_bisects_where_a_newton_step_would_not_climb(levels, convex, monkeypatch):
    # Equal levels 1..K align at t = 2 pi (F = 1) in a peak of half-width
    # 2 pi / K.  Of 12 samples on [pi, 3.4 pi] the best lies 0.29 past it.
    # For K = 10 F'' > 0 there, so a Newton step would descend; for K = 9
    # F'' < 0, but the step overshoots the neighbour on the other side.
    values, weights = np.arange(1.0, levels + 1.0), np.full(levels, 1.0 / levels)
    times, overlap = _scan(values, weights, 12)
    best = int(np.argmax(overlap))
    assert times[best] - 2.0 * math.pi == pytest.approx(0.2856, abs=1e-4)
    _, slope, curvature = _derivatives(times[best], values, weights)
    if convex:
        assert curvature > 0.0
    else:
        assert curvature < 0.0 and times[best] - slope / curvature < times[best - 1]
    monkeypatch.setattr(experiments, "_REVIVAL_POINTS", 12)
    fidelity, t = experiments._revival_peak(values, weights)
    assert abs(t - 2.0 * math.pi) <= 1e-14 * 2.0 * math.pi
    assert fidelity == pytest.approx(1.0, abs=1e-14)


def test_ladder_curve_decreasing():
    points = experiments.ladder_fidelity_curve(range(1, 9))
    assert points[0].fidelity == pytest.approx(1.0, abs=1e-9)
    fidelities = [p.fidelity for p in points]
    assert all(b < a for a, b in zip(fidelities, fidelities[1:]))


def test_ladder_curve_linear_tail():
    points = experiments.ladder_fidelity_curve(range(2, 9))
    sizes = np.array([p.n_copies for p in points], dtype=float)
    fidelities = np.array([p.fidelity for p in points])
    slope, intercept = np.polyfit(sizes, fidelities, 1)
    residual = fidelities - (slope * sizes + intercept)
    r_squared = 1.0 - np.sum(residual**2) / np.sum((fidelities - fidelities.mean())**2)
    assert slope < 0
    assert r_squared >= 0.95


def test_optimize_without_free_parameters_returns_uniform():
    result = experiments.optimize_ladder(2, seed=0)
    uniform = experiments.ladder_fidelity_curve([2])[0]
    assert result.beta_profile == (2.0,)
    assert result.fidelity == pytest.approx(uniform.fidelity, abs=1e-9)
    assert result.monotone


def test_optimize_improves_on_uniform():
    uniform = experiments.ladder_fidelity_curve([4])[0]
    result = experiments.optimize_ladder(4, seed=0)
    assert result.fidelity > uniform.fidelity + 1e-3
    assert result.monotone
    assert result.beta_profile[0] == 2.0
    assert all(b > a for a, b in zip(result.beta_profile, result.beta_profile[1:]))


def test_ladder_objective_decomposes_through_eigendecompose(monkeypatch):
    # Every objective evaluation and the final revival_fidelity go through
    # eigendecompose, so a tracer of that layer sees all of them.
    calls = []
    original = experiments.eigendecompose

    def counting(h):
        calls.append(1)
        return original(h)

    monkeypatch.setattr(experiments, "eigendecompose", counting)
    result = experiments.optimize_ladder(4, seed=0)
    assert len(calls) == result.evaluations + 1


@pytest.mark.parametrize("n_copies", [1, 2])
def test_ladder_without_free_coupling_evaluates_no_objective(n_copies, monkeypatch):
    # The one eigendecompose is the final revival_fidelity, so a budget of 0
    # holds and no evaluation is reported.
    calls = []
    original = experiments.eigendecompose
    monkeypatch.setattr(experiments, "eigendecompose", lambda h: calls.append(1) or original(h))
    result = experiments.optimize_ladder(n_copies, budget=0, seed=0)
    assert result.evaluations == 0
    assert len(calls) == result.evaluations + 1
    assert result.beta_profile == (2.0,)
    assert not result.budget_exhausted


def test_ladder_objective_operator_is_the_built_hamiltonian(monkeypatch):
    # The scaled triplet template is bit for bit the ladder's own Hamiltonian.
    rng = np.random.default_rng(7)
    seen = []
    original = experiments.eigendecompose
    monkeypatch.setattr(experiments, "eigendecompose", lambda h: seen.append(h) or original(h))
    for n in range(1, 9):
        increments = rng.normal(size=(n + 1) // 2 - 1)
        seen.clear()
        experiments._ladder_objective(n)(increments)
        spec = models.ladder(n, experiments._profile_from_increments(increments))
        basis = hilbert.enumerate_basis(spec.n_sites, 1, spec.statistics)
        expected = hilbert.build_hamiltonian(spec, basis).matrix
        (h,) = seen
        assert np.array_equal(h.matrix.view(np.uint64), expected.view(np.uint64))


def _dense_ladder_objective(n, increments):
    """The ladder objective with dense generators A_d = H(e_d) - H(0), each
    from ``build_hamiltonian(...).matrix``, contracted by einsum."""
    n_profiles = (n + 1) // 2

    def built(profile):
        spec = models.ladder(n, profile)
        return hilbert.build_hamiltonian(
            spec, hilbert.enumerate_basis(spec.n_sites, 1, spec.statistics))

    h0 = built(np.zeros(n_profiles)).matrix
    free = np.array([built(unit).matrix - h0 for unit in np.eye(n_profiles)])[1:]
    system = dynamics.eigendecompose(built(experiments._profile_from_increments(increments)))
    values, vectors = system.eigenvalues, system.eigenvectors
    lead = vectors[0]
    weights = np.abs(lead) ** 2
    fidelity, t = experiments._revival_peak(values, weights)
    phases = np.exp(-1j * values * t)
    amplitude = phases @ weights
    gaps = values[:, None] - values[None, :]
    near = np.abs(gaps) < 1e-9
    phi = np.where(near, -1j * t * phases[:, None],
                   (phases[:, None] - phases[None, :]) / np.where(near, 1.0, gaps))
    w = vectors @ (phi * np.outer(lead, lead.conj())).T @ vectors.conj().T
    d_profile = 2.0 * np.real(np.conj(amplitude) * np.einsum("dij,ji->d", free, w))
    return fidelity, np.exp(increments) * np.cumsum(d_profile[::-1])[::-1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_ladder_gradient_over_triplets_matches_the_dense_contraction(n, seed):
    # The triplet sums over the generators' value vectors give the dense
    # einsum's gradient to rounding (at most 1.7e-16 over 360 such draws,
    # |grad| <= 0.75) and the same fidelity bit for bit.
    increments = np.log(np.random.default_rng(seed).uniform(0.05, 1.5, (n + 1) // 2 - 1))
    fidelity, grad = experiments._ladder_objective(n)(increments)
    dense_fidelity, dense_grad = _dense_ladder_objective(n, increments)
    assert fidelity == dense_fidelity
    assert grad.shape == dense_grad.shape
    assert np.max(np.abs(grad - dense_grad), initial=0.0) <= 1e-14


def test_optimize_budget_validation():
    with pytest.raises(ValueError):
        experiments.optimize_ladder(4, budget=10)


def test_ladder_gradient_matches_central_differences():
    rng = np.random.default_rng(31)
    step = 1e-5
    for n in range(3, 9):
        x = np.log(rng.uniform(0.05, 1.5, (n + 1) // 2 - 1))

        def revival(y):
            spec = models.ladder(n, experiments._profile_from_increments(y))
            return experiments.revival_fidelity(spec)[0]

        fidelity, grad = experiments._ladder_objective(n)(x)
        assert fidelity == pytest.approx(revival(x), abs=1e-12)
        for i, e in enumerate(np.eye(x.size) * step):
            central = (revival(x + e) - revival(x - e)) / (2 * step)
            assert grad[i] == pytest.approx(central, abs=1e-6)


def test_optimize_respects_budget():
    # Eight cells have three free couplings, so the smallest budget is 150.
    full = experiments.optimize_ladder(8, budget=1500, seed=0)
    assert 150 < full.evaluations <= 1500
    assert not full.budget_exhausted
    cut = experiments.optimize_ladder(8, budget=150, seed=0)
    assert cut.evaluations <= 150
    assert cut.budget_exhausted
    assert cut.monotone
    with pytest.raises(ConfigError):
        experiments.optimize_ladder(8, budget=149, seed=0)


def test_optimize_is_deterministic():
    first = experiments.optimize_ladder(3, seed=5)
    second = experiments.optimize_ladder(3, seed=5)
    assert first == second


@pytest.fixture(scope="module")
def spin_ring():
    return models.sgf_ring(3, 3 * math.pi / 2, statistics=hilbert.Statistics.spin())


def test_bell_initial_conditions(spin_ring):
    psi = experiments.bell_transport(spin_ring, "psi")
    assert psi.psi_populations[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert psi.concurrence[0, 0] == pytest.approx(1.0, abs=1e-6)
    phi = experiments.bell_transport(spin_ring, "phi")
    assert phi.phi_populations[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert phi.concurrence[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_bell_states_counter_propagate(spin_ring):
    psi = experiments.bell_transport(spin_ring, "psi")
    phi = experiments.bell_transport(spin_ring, "phi")
    t_psi = [first_peak_time(psi.times, psi.psi_populations[p], 0.8)
             for p in (1, 2)]
    t_phi = [first_peak_time(phi.times, phi.phi_populations[p], 0.8)
             for p in (1, 2)]
    # pair order is (12), (23), (31): one initial state reaches (31) before
    # (23), the other the opposite way around
    psi_orientation = t_psi[0] < t_psi[1]
    phi_orientation = t_phi[0] < t_phi[1]
    assert psi_orientation != phi_orientation


def test_concurrence_tracks_bell_populations(spin_ring):
    for initial, traces in (
        ("psi", "psi_populations"),
        ("phi", "phi_populations"),
    ):
        result = experiments.bell_transport(spin_ring, initial)
        pops = getattr(result, traces)
        pop_times = [first_peak_time(result.times, pops[p], 0.8)
                     for p in range(3)]
        conc_times = [first_peak_time(result.times, result.concurrence[p], 0.8)
                      for p in range(3)]
        assert np.argsort(pop_times).tolist() == np.argsort(conc_times).tolist()


def test_bell_transport_validation(spin_ring):
    with pytest.raises(BadInitial):
        experiments.bell_transport(spin_ring, "ghz")
    with pytest.raises(NotSpin):
        experiments.bell_transport(models.sgf_ring(3, 3 * math.pi / 2), "psi")


def test_concurrence_reference_values():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert concurrence(bell, (1, 2)) == pytest.approx(1.0, abs=1e-12)
    product = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert concurrence(product, (1, 2)) == pytest.approx(0.0, abs=1e-12)
    phased = np.array([0.0, 1.0, 1.0j, 0.0], dtype=complex) / math.sqrt(2.0)
    assert concurrence(phased, (1, 2)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(23)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    reference = concurrence(state, (1, 3))
    embeddings = (lambda q: np.kron(q, np.eye(4)),              # site 1
                  lambda q: np.kron(np.eye(4), q))              # site 3
    for embed in embeddings:
        for _ in range(5):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            rotated = embed(q) @ state
            assert concurrence(rotated, (1, 3)) == pytest.approx(reference, abs=1e-9)


def test_batched_concurrence_matches_per_state_reference():
    def reference(state, pair):
        # Per-state construction the batched kernel replaced.
        tensor = np.moveaxis(state.reshape(2, 2, 2), (pair[0] - 1, pair[1] - 1), (0, 1))
        m = tensor.reshape(4, -1)
        vals, vecs = np.linalg.eigh(m @ m.conj().T)
        vals = np.where(vals > 1e-12 * max(float(vals[-1]), 1e-300), vals, 0.0)
        root = (vecs * np.sqrt(vals)) @ vecs.conj().T
        yy = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])
        lambdas = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
        return max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])

    rng = np.random.default_rng(5)
    states = rng.normal(size=(300, 8)) + 1j * rng.normal(size=(300, 8))
    states /= np.linalg.norm(states, axis=1)[:, None]
    states[::7] = np.eye(8)[rng.integers(0, 8, len(states[::7]))]  # product states
    for pair in experiments.PAIRS + ((2, 1),):
        batched = experiments._concurrences(states, pair)
        assert np.array_equal(batched, [reference(s, pair) for s in states])
        assert batched[11] == concurrence(states[11], pair)


def test_concurrence_requires_qubit_state():
    with pytest.raises(NotSpin):
        concurrence(np.ones(3) / math.sqrt(3.0), (1, 2))
