"""The CLI's command handlers: models from a run configuration, simulations,
studies and their CSV/SVG output.

``cli.main`` imports this module once it has parsed and validated a command,
so importing it loads numpy and every numeric module of the package.  Each
handler returns the command's exit code.
"""

from __future__ import annotations

import math

import numpy as np

from . import criteria as criteria_mod
from . import dynamics, experiments, floquet, hilbert, models, oracles
from .cli import RunConfig, _emit, parse_angle, parse_float_list, parse_int_list
from .errors import ConfigError


def build_spec(cfg: RunConfig) -> models.NetworkSpec:
    statistics = hilbert.Statistics.spin() if cfg.model.startswith("spin-") else hilbert.Statistics.boson()
    kind = cfg.model.removeprefix("spin-")
    if kind == "sgf":
        return models.sgf_ring(cfg.n, parse_angle(cfg.flux), statistics=statistics)
    if kind == "asgf":
        return models.asgf(cfg.n, cfg.beta, parse_angle(cfg.nn_phase), statistics=statistics)
    if kind == "chiral":
        return models.chiral_n_node(cfg.n, statistics=statistics)
    if kind == "ladder":
        return models.ladder(cfg.n, parse_float_list(cfg.profile), statistics=statistics)
    raise ConfigError(f"unknown model {cfg.model!r}")


def initial_state(cfg: RunConfig, spec: models.NetworkSpec):
    """Initial occupation vector from a node label or a bit pattern.

    A string of 0s and 1s whose length equals the site count is an
    occupation pattern; anything else is a 1-based node label.
    """
    text = cfg.init.strip()
    n = spec.n_sites
    if set(text) <= {"0", "1"} and len(text) == n and n > 1:
        return tuple(int(c) for c in text)
    try:
        node = int(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse initial state {text!r}") from exc
    if not 1 <= node <= n:
        raise ConfigError(f"initial node {node} outside 1..{n}")
    return hilbert.occupation(n, node)


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def svg_line_chart(x, series, labels, title: str) -> str:
    """Self-contained 800x480 SVG line chart of population traces."""
    width, height = 800, 480
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    left, right, top, bottom = 60, 150, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    x_min, x_max = float(x[0]), float(x[-1]) if x[-1] > x[0] else float(x[0]) + 1.0
    y_min, y_max = 0.0, max(1.0, max(float(np.max(s)) for s in series))

    def sx(v):
        return left + (v - x_min) / (x_max - x_min) * plot_w

    def sy(v):
        return top + (y_max - v) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_min + i * (x_max - x_min) / 4
        yv = y_min + i * (y_max - y_min) / 4
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{top + plot_h}" x2="{sx(xv):.1f}" '
                     f'y2="{top + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{top + plot_h + 18}" '
                     f'text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<line x1="{left - 4}" y1="{sy(yv):.1f}" x2="{left}" '
                     f'y2="{sy(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end">{yv:.2g}</text>')
    parts.append(f'<text x="{left + plot_w / 2}" y="{height - 12}" '
                 f'text-anchor="middle">time (1/J0)</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {top + plot_h / 2})">population</text>')
    stride = max(1, x.size // 600)
    for idx, (s, label) in enumerate(zip(series, labels)):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(x[i]):.1f},{sy(s[i]):.1f}" for i in range(0, x.size, stride))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 * idx
        parts.append(f'<line x1="{width - right + 10}" y1="{ly}" x2="{width - right + 34}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - right + 40}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_simulate(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    times = np.linspace(0.0, parse_angle(cfg.tmax), cfg.grid)
    traj = dynamics.simulate(spec, initial_state(cfg, spec), times)
    _emit(cfg.out, dynamics.trajectory_to_csv(traj))
    if cfg.svg:
        series = [traj.populations[:, i] for i in range(traj.populations.shape[1])]
        _emit(cfg.svg, svg_line_chart(traj.times, series, traj.labels,
                                      title=f"{cfg.model} populations"))
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    basis = hilbert.enumerate_basis(spec.n_sites, 1, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    values = dynamics.eigendecompose(h).eigenvalues
    _emit(cfg.out, dynamics.rows_to_csv(enumerate(values), "index,eigenvalue"))
    return 0


def cmd_criteria(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    basis = hilbert.enumerate_basis(spec.n_sites, 1, spec.statistics)
    h = hilbert.build_hamiltonian(spec, basis)
    report = criteria_mod.check_criteria(h, spec.ring_nodes)
    print(report.summary())
    return 0 if report.verdict else 1


def cmd_study_disorder(args) -> int:
    base = models.asgf(4, 2.0, math.pi / 2)
    amplitudes = parse_float_list(args.amplitudes)
    rows = []
    for kind in (args.kind,) if args.kind else experiments.DISORDER_KINDS:
        cfg = experiments.DisorderConfig(kind, args.samples, args.seed)
        for point in experiments.disorder_sweep(base, cfg, amplitudes=amplitudes):
            rows.append((kind, point.amplitude, point.mean_fidelity,
                         point.stderr, point.samples, args.seed))
    _emit(args.out, dynamics.rows_to_csv(rows, "kind,amplitude,mean_fidelity,stderr,samples,seed"))
    return 0


def cmd_study_ladder(args) -> int:
    sizes = parse_int_list(args.nrange)
    rows = []
    for point in experiments.ladder_fidelity_curve(sizes):
        rows.append((point.n_copies, point.fidelity, point.period,
                     ";".join(f"{b:.6g}" for b in point.profile)))
    _emit(args.out, dynamics.rows_to_csv(rows, "n_copies,fidelity,period,profile"))
    return 0


def cmd_study_optimize(args) -> int:
    result = experiments.optimize_ladder(args.ncopies, budget=args.budget, seed=args.seed)
    rows = [(args.ncopies, result.fidelity, result.period, result.evaluations,
             str(result.monotone).lower(), str(result.budget_exhausted).lower(),
             ";".join(f"{b:.6g}" for b in result.beta_profile))]
    header = "n_copies,fidelity,period,evaluations,monotone,budget_exhausted,profile"
    _emit(args.out, dynamics.rows_to_csv(rows, header))
    return 0


def cmd_study_bell(args) -> int:
    spec = models.sgf_ring(3, 3 * math.pi / 2, statistics=hilbert.Statistics.spin())
    result = experiments.bell_transport(spec, args.initial)
    rows = np.column_stack([result.times, result.psi_populations.T, result.phi_populations.T,
                            result.concurrence.T]).tolist()
    header = ("t,p_psi_12,p_psi_23,p_psi_31,p_phi_12,p_phi_23,p_phi_31,"
              "c_12,c_23,c_31")
    _emit(args.out, dynamics.rows_to_csv(rows, header))
    return 0


def cmd_study_floquet(args) -> int:
    ratios = parse_float_list(args.ratios)
    rows = floquet.rwa_deviation_scan(ratios)
    _emit(args.out, dynamics.rows_to_csv(rows, "ratio,max_deviation"))
    return 0


def cmd_oracle_check(_args) -> int:
    t = np.linspace(0.0, 12.0, 1200)
    cases = [("three_node_ring", models.sgf_ring(3, math.pi / 2),
              [oracles.three_node_sgf_population(j, t) for j in (1, 2, 3)])]
    cases += [(f"four_node_ring_theta={theta:.3f}", models.sgf_ring(4, 4 * theta),
               oracles.four_node_sgf_populations(theta, t))
              for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 8)]
    cases += [(f"four_node_centre_beta={beta:g}", models.asgf(4, beta, math.pi / 2),
               [np.asarray(oracles.four_node_asgf_amplitude(j, beta, t)) ** 2 for j in (1, 2, 3, 4)])
              for beta in (1.0, 2.0, 3.0)]
    cases.append(("six_node_centre", models.asgf(6, math.sqrt(2.0), math.pi / 2),
                  oracles.six_node_asgf_populations(math.sqrt(2.0), t)))
    cases += [(f"ring_plane_waves_n={n}", models.sgf_ring(n, n * math.pi / 2),
               [np.abs(oracles.n_node_sgf_solution(n, j, t)) ** 2 for j in range(1, n + 1)])
              for n in range(3, 9)]
    cases.append(("ladder_three_cells", models.ladder(3, [2.0]),
                  [oracles.three_cell_ladder_amplitude(t) ** 2]))
    code = 0
    for name, spec, oracle in cases:
        oracle = np.asarray(oracle)
        traj = dynamics.simulate(spec, hilbert.occupation(spec.n_sites, 1), t)
        err = float(np.max(np.abs(traj.populations[:, :len(oracle)].T - oracle)))
        print(f"{name}: max_err={err:.3e} {'OK' if err <= 1e-9 else 'FAIL'}")
        code = code if err <= 1e-9 else 3
    return code
