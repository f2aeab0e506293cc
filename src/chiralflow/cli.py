"""Command-line front door: model catalogue, studies, CSV/SVG emission.

Exit codes: 0 success, 1 criteria verdict false, 2 configuration error
(any bad argument or unwritable output path), 3 numeric failure.  Each file
is written whole or not at all (temp file then rename).  Angles accept a
``pi`` suffix ("0.5pi"); times are in inverse base-hopping units.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import stat
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import criteria as criteria_mod
from . import dynamics, experiments, floquet, hilbert, models, oracles
from .errors import ChiralFlowError, ConfigError

log = logging.getLogger(__name__)

MODELS = ("sgf", "asgf", "chiral", "ladder", "spin-sgf", "spin-asgf")


def parse_angle(text: str) -> float:
    """Parse an angle in radians, with an optional 'pi' suffix multiplier."""
    text = str(text).strip().lower()
    try:
        if text.endswith("pi"):
            head = text[:-2].strip()
            factor = 1.0 if head in ("", "+") else (-1.0 if head == "-" else float(head))
            return factor * math.pi
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse angle {text!r}") from exc


def parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc
    if not values:
        raise ConfigError(f"number list {text!r} is empty")
    return values


def parse_int_list(text: str) -> list[int]:
    text = str(text)
    try:
        if ":" in text:
            lo, hi = text.split(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {text!r}") from exc
    if not values:
        raise ConfigError(f"integer list {text!r} is empty")
    return values


@dataclass
class RunConfig:
    """Validated description of one simulate/spectrum/criteria run.  The
    model constructors check ``n`` (ring nodes or ladder cells)."""

    model: str = "sgf"
    n: int = 3
    flux: str | float = "0.5pi"
    beta: float = 2.0
    nn_phase: str | float = "0.5pi"
    profile: str | float = "2"
    init: str = "1"
    tmax: str | float = "2pi"
    grid: int = 2001
    out: str | None = None
    svg: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.grid < 2:
            raise ConfigError("grid needs at least 2 points")
        for name, angle in (("flux", self.flux), ("nn_phase", self.nn_phase)):
            if not math.isfinite(parse_angle(angle)):
                raise ConfigError(f"{name} {angle!r} must be finite")
        if not 0 <= parse_angle(self.tmax) < math.inf:
            raise ConfigError(f"tmax {self.tmax!r} must be finite and >= 0")
        if not 0 <= self.beta < math.inf:
            raise ConfigError(f"beta {self.beta!r} must be finite and >= 0")
        if not all(0 <= b < math.inf for b in parse_float_list(self.profile)):
            raise ConfigError(f"profile {self.profile!r} entries must be finite and >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # The annotations are strings (postponed evaluation).  An int passes for a
        # float; JSON true/false load as bools, a subclass of int, and never pass.
        accepted = {"str": str, "int": int, "float": (int, float), "None": type(None)}
        for name, value in data.items():
            kinds = tuple(accepted[t.strip()] for t in fields[name].type.split("|"))
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"config {name} must be {fields[name].type}, got {value!r}")
        return cls(**data)


def _read_config(path: str) -> dict:
    """The JSON object of a config file, not yet validated."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return data


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


def write_atomic(path: str, text: str) -> None:
    """Write text to path whole or not at all: a temp file beside it gets
    the mode ``open(path, "w")`` would leave (the file's own, else 0o666
    less the umask) and is renamed over it.  A failed write removes the
    temp file; an ``OSError`` (say, a missing directory) is a ``ConfigError``."""
    tmp = None
    try:
        if os.path.isfile(path):
            mode = stat.S_IMODE(os.stat(path).st_mode)
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".chiralflow-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.chmod(tmp, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _emit(path: str | None, text: str) -> None:
    """Write text atomically to path and report it, or print it to stdout."""
    if path:
        write_atomic(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


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


def _config_from_args(args) -> RunConfig:
    """The ``--config`` file's keys overridden by the flags given, validated
    once as a whole, so a flag may replace a value the file gets wrong."""
    data = _read_config(args.config) if getattr(args, "config", None) else {}
    data.update({name: getattr(args, name) for name in RunConfig.__dataclass_fields__
                 if getattr(args, name, None) is not None})
    return RunConfig.from_dict(data)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--n", type=int, help="ring nodes (or ladder cells)")
    parser.add_argument("--flux", help="ring flux, e.g. 0.5pi")
    parser.add_argument("--beta", type=float, help="centre coupling strength")
    parser.add_argument("--nn-phase", dest="nn_phase", help="per-link phase, e.g. 0.5pi")
    parser.add_argument("--profile", help="ladder coupling profile, e.g. 2,2.5")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chiralflow",
                                     description="chiral excitation flow simulator")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate")
    _add_model_flags(p)
    p.add_argument("--init", help="initial node label or bit pattern")
    p.add_argument("--tmax", help="time window length, e.g. 2pi")
    p.add_argument("--grid", type=int, help="number of grid points")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--svg", help="SVG output path")

    p = sub.add_parser("spectrum")
    _add_model_flags(p)
    p.add_argument("--out", help="CSV output path")

    _add_model_flags(sub.add_parser("criteria"))

    study = sub.add_parser("study")
    study_sub = study.add_subparsers(dest="study", required=True)

    p = study_sub.add_parser("disorder")
    p.add_argument("--kind", choices=experiments.DISORDER_KINDS)
    p.add_argument("--amplitudes", default="0,0.1,0.2,0.3")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = study_sub.add_parser("ladder")
    p.add_argument("--nrange", default="1:8")
    p.add_argument("--out")

    p = study_sub.add_parser("optimize")
    p.add_argument("--ncopies", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = study_sub.add_parser("bell")
    p.add_argument("--initial", choices=("psi", "phi"), default="psi")
    p.add_argument("--out")

    p = study_sub.add_parser("floquet")
    p.add_argument("--ratios", default="10,20,40")
    p.add_argument("--out")

    sub.add_parser("oracle-check")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command in ("simulate", "spectrum", "criteria"):
            cfg = _config_from_args(args)
            handler = {"simulate": cmd_simulate, "spectrum": cmd_spectrum,
                       "criteria": cmd_criteria}[args.command]
            return handler(cfg)
        if args.command == "study":
            handler = {"disorder": cmd_study_disorder, "ladder": cmd_study_ladder,
                       "optimize": cmd_study_optimize, "bell": cmd_study_bell,
                       "floquet": cmd_study_floquet}[args.study]
            return handler(args)
        if args.command == "oracle-check":
            return cmd_oracle_check(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ChiralFlowError, np.linalg.LinAlgError, ArithmeticError, MemoryError,
            ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
