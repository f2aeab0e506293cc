"""Command-line front door: argument parsing, run configuration, output
writing and the exit-code mapping.

Exit codes: 0 success, 1 criteria verdict false, 2 configuration error
(any bad argument or unwritable output path), 3 numeric failure.  Each file
is written whole or not at all (temp file then rename).  Angles accept a
``pi`` suffix ("0.5pi"); times are in inverse base-hopping units.

Importing this module loads only the standard library, ``chiralflow`` and
``chiralflow.errors``, so ``--help``, usage errors and a run configuration
that fails validation are answered without numpy.  ``main`` imports the
command handlers (``chiralflow.commands``), and with them numpy and every
numeric module of the package, once it has parsed the command line and
validated the run configuration.
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

from . import DISORDER_KINDS
from .errors import ChiralFlowError, ConfigError

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
    p.add_argument("--kind", choices=DISORDER_KINDS)
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
    # basicConfig does nothing once root has a handler, so the level is set apart.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        run_command = args.command in ("simulate", "spectrum", "criteria")
        cfg = _config_from_args(args) if run_command else None
        # numpy and every numeric module load here, whichever command runs:
        # the benchmark's tracer wraps functions only in loaded modules.
        from . import commands

        if run_command:
            handler = {"simulate": commands.cmd_simulate, "spectrum": commands.cmd_spectrum,
                       "criteria": commands.cmd_criteria}[args.command]
            return handler(cfg)
        if args.command == "study":
            handler = {"disorder": commands.cmd_study_disorder,
                       "ladder": commands.cmd_study_ladder,
                       "optimize": commands.cmd_study_optimize,
                       "bell": commands.cmd_study_bell,
                       "floquet": commands.cmd_study_floquet}[args.study]
            return handler(args)
        if args.command == "oracle-check":
            return commands.cmd_oracle_check(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # numpy's LinAlgError is a ValueError.
    except (ChiralFlowError, ArithmeticError, MemoryError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
