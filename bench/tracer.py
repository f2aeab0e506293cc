"""Outside-in span tracer for the chiralflow benchmark.

The tracer wraps named public functions of the package from outside, at
every binding: ``experiments`` holds its own reference to
``hilbert.build_hamiltonian`` through ``from .hilbert import ...``, and
``dynamics.evolve`` reaches ``eigendecompose`` through ``dynamics``' own
globals, so patching only the defining module would miss those calls.  Each
call records a span (name, start, end, parent) in memory; per-function
totals are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time


class TraceError(RuntimeError):
    """A traced function is missing, or an expected span recorded no calls."""


PACKAGE = "chiralflow"


def _matrix_dim3(args, kwargs, result):
    """Sum of dim**3 over the (possibly stacked) matrices handed to eigh."""
    h = args[0] if args else kwargs["h"]
    shape = getattr(h, "matrix", h).shape
    return math.prod(shape[:-2]) * shape[-1] ** 3


# <module>.<function>: {work-count name: counter(args, kwargs, result)}.
TARGETS = {
    "cli.main": {},
    "cli.write_atomic": {},
    "experiments.optimize_ladder": {},
    "experiments.revival_fidelity": {},
    "experiments.disorder_sweep": {},
    "experiments.perturbed_spec": {},
    "models.ladder": {},
    "hilbert.enumerate_basis": {"states": lambda a, k, r: len(r)},
    "hilbert.build_hamiltonian": {},
    "dynamics.eigendecompose": {"dim3_sum": _matrix_dim3},
    "dynamics.evolve": {"amplitudes": lambda a, k, r: r.amplitudes.size},
    "dynamics.average_fidelity": {},
    "dynamics.trajectory_to_csv": {},
    "floquet.integrate_tdse": {},
    "floquet.compare_effective": {},
}


class Tracer:
    """Records spans of the TARGETS functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counters: dict):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident(), "child_s": 0.0}
            spans.append(span)
            stack.append(span["id"])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span["start"], span["end"] = start, end
                if span["parent"] is not None:
                    spans[span["parent"]]["child_s"] += end - start
            for key, count in counters.items():
                span[key] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TARGETS function wherever the package binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, counters in TARGETS.items():
            module_name, func_name = name.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None or not callable(original):
                self.uninstall()
                raise TraceError(f"traced function {PACKAGE}.{name} no longer exists")
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive s, self_s and summed work counts."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0,
                      **{key: 0 for key in counters}}
               for name, counters in TARGETS.items()}
        for span in self.spans:
            row = out[span["name"]]
            duration = span["end"] - span["start"]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - span["child_s"]
            for key in TARGETS[span["name"]]:
                row[key] += span[key]
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
