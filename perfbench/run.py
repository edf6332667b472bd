"""Benchmark of the stockloan CLI, driven in-process through stockloan.cli.main.

    python3 perfbench/run.py --workload fd_boundary --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One caller runs one command at a time (a closed loop), in whole
rounds of the workload's commands, each round in a seeded shuffled order,
until --seconds have passed.  A calibration kernel timed between commands
turns each command's wall time into a cost in ref units (see
calibration.py).  After the timed phase every output is checked.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run alternates untraced and traced rounds, writes the spans
to perfbench/out/ and reports the per-layer metrics, including the
tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import calibration
import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 3  # fresh interpreters per run for setup_s
IMPORT_RUNS = 3  # fresh interpreters per traced run for the import-time layers
COLD_START = (
    "import sys; sys.path.insert(0, 'src'); from stockloan.cli import main; "
    "sys.exit(main(['perpetual', '--regime', '1']))"
)
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import stockloan.cli"


@dataclass
class Record:
    index: int  # position of the command in the workload's round
    rc: int
    out: str
    err: str
    wall: float
    cost: float
    traced: bool


def _libc_malloc_trim():
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    return getattr(libc, "malloc_trim", None)


MALLOC_TRIM = _libc_malloc_trim()


def release_free_memory() -> None:
    """Hand freed heap pages back to the OS between commands.

    A user's CLI process starts with an empty heap, so every command pays
    for the pages it touches.  In one long process the allocator keeps
    freed pages or not depending on the heap's layout, which made the
    8000-step lattice cost vary twofold from run to run.
    """
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in this process; returns (exit code, stdout, stderr)."""
    from stockloan import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback escaped the CLI: record it as a failed command
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def cold_start() -> float:
    """Wall time of a fresh interpreter answering `perpetual --regime 1`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith("alpha_plus="):
        raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall


def import_times() -> dict[str, float]:
    """Cumulative import times in ms from `-X importtime`, median of fresh interpreters."""
    samples: dict[str, list[float]] = {"stockloan.import_ms": [], "closedform.import_ms": []}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        samples["stockloan.import_ms"].append(cumulative["stockloan.cli"])  # includes the package
        samples["closedform.import_ms"].append(cumulative["stockloan.closedform"])
    return {k: statistics.median(v) for k, v in samples.items()}


def run_rounds(commands, seconds: float, seed: int, tracer: tracing.Tracer | None):
    """Timed phase: whole shuffled rounds until `seconds` have passed.

    With a tracer, rounds alternate untraced and traced and the phase ends
    after a traced round.  Returns the records and the kernel times.
    """
    rng = random.Random(f"order-{seed}")
    records: list[Record] = []
    release_free_memory()
    kernels = [calibration.time_kernel()]
    start = time.perf_counter()
    round_no = 0
    while True:
        traced = tracer is not None and round_no % 2 == 1
        if traced:
            tracer.install()
        order = list(range(len(commands)))
        rng.shuffle(order)
        round_start = time.perf_counter()
        try:
            for index in order:
                argv = list(commands[index].argv)
                t0 = time.perf_counter()
                rc, out, err = tracer.run_command(argv, invoke) if traced else invoke(argv)
                wall = time.perf_counter() - t0
                release_free_memory()
                kernels.append(calibration.time_kernel())
                cost = calibration.normalized_cost(wall, kernels[-2], kernels[-1])
                records.append(Record(index, rc, out, err, wall, cost, traced))
        finally:
            if traced:
                tracer.uninstall()
        round_no += 1
        now = time.perf_counter()
        done = now - start + 0.5 * (now - round_start) >= seconds
        if done and (tracer is None or round_no % 2 == 0):
            return records, kernels


def check_records(commands, records: list[Record]) -> tuple[int, dict[int, str], dict[int, str]]:
    """Failed-command count, exit problems and output problems, by command index.

    A command fails if it exits non-zero, if its output differs from the
    first output of the same command, or if that first output fails its check.
    """
    first: dict[int, str] = {}
    exits: dict[int, str] = {}
    wrong: dict[int, str] = {}
    for rec in records:
        name = commands[rec.index].name
        if rec.rc != 0:
            exits.setdefault(rec.index, f"{name}: exit {rec.rc}: {rec.err.strip()}")
        elif first.setdefault(rec.index, rec.out) != rec.out:
            wrong.setdefault(rec.index, f"{name}: output differs between rounds")
    wrong.update(checks.check_outputs(commands, first, checks.CheckContext(invoke)))
    failed = sum(1 for rec in records if rec.index in exits or rec.index in wrong)
    return failed, exits, wrong


def end_to_end(records: list[Record], setup: list[float]) -> dict[str, float]:
    costs = [r.cost for r in records]
    return {
        "setup_s": statistics.median(setup),
        "cost_p50_ref": statistics.median(costs),
        "cost_mean_ref": statistics.fmean(costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def raw_summary(records: list[Record]) -> str:
    """Raw wall-time figures, printed for reading but not reported as metrics.

    They move with the host's speed from run to run (see README.md).
    """
    walls = [r.wall for r in records]
    return (f"raw latency p50 {1e3 * statistics.median(walls):.1f} ms, "
            f"throughput {len(walls) / sum(walls):.3f} commands/s")


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def tracing_overhead(records: list[Record]) -> float:
    """Median over commands of traced/untraced median cost, as a percentage above 1."""
    ratios = []
    for index in sorted({r.index for r in records}):
        plain = [r.cost for r in records if r.index == index and not r.traced]
        traced = [r.cost for r in records if r.index == index and r.traced]
        ratios.append(statistics.median(traced) / statistics.median(plain))
    return 100.0 * (statistics.median(ratios) - 1.0)


def per_layer(records, kernels, tracer: tracing.Tracer) -> dict[str, float]:
    values = tracing.layer_metrics(tracer.spans)
    values.update(import_times())
    values["calibration.kernel_ms"] = 1e3 * statistics.median(kernels)
    values["trace.overhead_pct"] = tracing_overhead(records)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stockloan" / "cli.py").is_file():
        print(f"error: no stockloan sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    commands = workloads.build(args.workload, args.seed)
    setup = [] if args.trace else [cold_start() for _ in range(SETUP_RUNS)]
    invoke(["perpetual", "--regime", "1"])  # import the package before timing
    tracer = tracing.Tracer() if args.trace else None
    records, kernels = run_rounds(commands, args.seconds, args.seed, tracer)
    values = per_layer(records, kernels, tracer) if tracer else end_to_end(records, setup)
    units = metric_units("per_layer" if tracer else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed, exits, wrong = check_records(commands, records)
    for message in [*exits.values(), *wrong.values()]:
        print(f"failed: {message}", file=sys.stderr)
    if tracer:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "metrics": values})
    print(f"{args.workload} seed {args.seed}: {len(records)} commands attempted, {failed} failed, "
          f"{len(records) // len(commands)} rounds; {raw_summary(records)}")
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
