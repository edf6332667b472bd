"""Spans around the calls the CLI makes into each solver module.

The tracer wraps each module's public functions from outside, in every
stockloan namespace that holds them, so a call is recorded at the point
where the CLI (or another module, such as fd1d calling
lattice1d.extract_boundary) reaches it.  Spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the part of it that its child spans cover; children may overlap when
the CLI's sweep pool runs solves on several threads.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# Public functions the CLI reaches, per module.
TARGETS = {
    "fd1d": ("solve_vi",),
    "lattice1d": ("price_regime1", "price_regime2", "price_regime3", "price_amortized",
                  "price_withdrawable", "extract_boundary"),
    "fsg2d": ("price_regime4", "extract_boundary_surface"),
    "oracle": ("oracle_price",),
    "closedform": ("perpetual_regime1", "perpetual_regime2", "perpetual_regime3"),
}
COMMAND_SPAN = "cli.main"
LATTICE_PRICERS = tuple(f"lattice1d.{n}" for n in TARGETS["lattice1d"] if n.startswith("price_"))
SOLVES = LATTICE_PRICERS + ("fd1d.solve_vi", "fsg2d.price_regime4", "oracle.oracle_price")

# Per-call self-time metrics: metric name -> (span names, scale from seconds).
TIMED_GROUPS = {
    "fd1d.solve_vi_ms": (("fd1d.solve_vi",), 1e3),
    "lattice1d.extract_boundary_ms": (("lattice1d.extract_boundary",), 1e3),
    "lattice1d.price_ms": (LATTICE_PRICERS, 1e3),
    "fsg2d.price_regime4_ms": (("fsg2d.price_regime4",), 1e3),
    "fsg2d.extract_boundary_surface_ms": (("fsg2d.extract_boundary_surface",), 1e3),
    "oracle.oracle_price_ms": (("oracle.oracle_price",), 1e3),
    "closedform.perpetual_us": (tuple(f"closedform.{n}" for n in TARGETS["closedform"]), 1e6),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    attrs: dict = field(default_factory=dict)


def held_bytes(obj) -> int:
    """Bytes of the numpy arrays a returned surface holds, each array counted once."""
    seen: dict[int, int] = {}

    def visit(value) -> None:
        if hasattr(value, "nbytes") and hasattr(value, "dtype"):
            seen.setdefault(id(value), int(value.nbytes))
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit(item)

    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            visit(getattr(obj, f.name))
    return sum(seen.values())


def _attrs(name: str, result) -> dict:
    """Counts read off a returned value at the layer boundary."""
    if not isinstance(result, tuple) or len(result) != 2:
        return {}
    if name == "fd1d.solve_vi":
        surface = result[0]
        meta = getattr(surface, "solver_meta", {}) or {}
        return {
            "bytes": held_bytes(surface),
            "steps": len(surface.tau_grid) - 1,
            "psor_sweeps": meta.get("psor_total_sweeps"),
            "constrained": meta.get("constrained"),
        }
    if name == "fsg2d.price_regime4":
        surface = result[1]
        if surface is None:
            return {"bytes": 0, "substeps": 0}
        meta = getattr(surface, "solver_meta", {}) or {}
        return {
            "bytes": held_bytes(surface),
            "substeps": meta.get("n_sub", 1) * (len(surface.tau_grid) - 1),
        }
    if name in LATTICE_PRICERS:
        return {"bytes": held_bytes(result[1])}
    return {}


class Tracer:
    """Records spans for one run; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.commands: dict[int, list[str]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command: int | None = None
        self._command_span: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._command_span
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self._command,
                                       _attrs(name, result)))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "stockloan" or n.startswith("stockloan.")]
        for mod_name, fn_names in TARGETS.items():
            home = sys.modules[f"stockloan.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def run_command(self, argv: list[str], invoke):
        """Invoke one command inside a command span; returns invoke's result."""
        span_id = next(self._ids)
        index = len(self.commands)
        self.commands[index] = argv
        self._command, self._command_span = index, span_id
        start = time.perf_counter()
        try:
            return invoke(argv)
        finally:
            end = time.perf_counter()
            self.spans.append(Span(span_id, COMMAND_SPAN, start, end, None, index,
                                   {"subcommand": argv[0]}))
            self._command = self._command_span = None

    def write(self, path, extra: dict) -> None:
        doc = dict(extra, commands={str(k): v for k, v in self.commands.items()},
                   spans=[dataclasses.asdict(s) for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, [])):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from one run's spans; a layer never entered reads 0."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = {}
    for metric, (names, scale) in TIMED_GROUPS.items():
        group = [s for s in spans if s.name in names]
        # Calls nested inside another call of the same group are part of that call.
        outer = [s for s in group if s.parent is None or by_id[s.parent].name not in names]
        out[metric] = scale * sum(selfs[s.id] for s in group) / len(outer) if outer else 0.0

    commands = [s for s in spans if s.name == COMMAND_SPAN]
    out["cli.self_ms"] = 1e3 * statistics.median(selfs[s.id] for s in commands) if commands else 0.0
    sweeps = {s.id for s in commands if s.attrs.get("subcommand") == "sweep"}
    solves = [s for s in spans if s.name in SOLVES and s.parent in sweeps]
    out["cli.sweep_solves"] = len(solves) / len(sweeps) if sweeps else 0.0

    constrained = [s for s in spans if s.name == "fd1d.solve_vi" and s.attrs.get("constrained")
                   and s.attrs.get("psor_sweeps") is not None]
    steps = sum(s.attrs["steps"] for s in constrained)
    out["fd1d.psor_sweeps_per_step"] = (
        sum(s.attrs["psor_sweeps"] for s in constrained) / steps if steps else 0.0
    )
    lattice = [s.attrs.get("bytes", 0) for s in spans if s.name in LATTICE_PRICERS]
    out["lattice1d.surface_mb"] = max(lattice, default=0) / 2**20
    fsg = [s for s in spans if s.name == "fsg2d.price_regime4"]
    out["fsg2d.surface_mb"] = max((s.attrs.get("bytes", 0) for s in fsg), default=0) / 2**20
    out["fsg2d.substeps"] = (
        statistics.fmean(s.attrs.get("substeps", 0) for s in fsg) if fsg else 0.0
    )
    return out
