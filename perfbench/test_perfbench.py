"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import checks
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- normalization -----------------------------------------------------------


def test_normalized_cost_divides_by_mean_kernel_time():
    assert calibration.normalized_cost(2.0, 0.5, 1.5) == 2.0
    assert calibration.normalized_cost(0.0, 1.0, 1.0) == 0.0


def test_uniform_slowdown_cancels():
    base = calibration.normalized_cost(0.3, 0.012, 0.014)
    slowed = calibration.normalized_cost(0.3 * 1.37, 0.012 * 1.37, 0.014 * 1.37)
    assert slowed == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("args", [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)])
def test_normalized_cost_rejects_bad_times(args):
    with pytest.raises(ValueError):
        calibration.normalized_cost(*args)


def test_kernel_is_deterministic_work():
    assert calibration.kernel() == calibration.kernel()
    assert calibration.time_kernel() > 0.0


# --- reference formulas ------------------------------------------------------


@pytest.mark.parametrize("spot,strike,rate,sigma,tau", [
    (0.8, 0.7, 0.06, 0.4, 1.0), (0.5, 0.9, 0.12, 0.2, 3.0), (1.3, 0.77, 0.0, 0.3, 0.25),
])
def test_put_call_parity(spot, strike, rate, sigma, tau):
    call = reference.bs_call(spot, strike, rate, sigma, tau)
    put = reference.bs_put(spot, strike, rate, sigma, tau)
    assert call - put == pytest.approx(spot - strike * math.exp(-rate * tau), abs=1e-14)


def test_normal_cdf_symmetry_and_known_values():
    assert reference.normal_cdf(0.0) == 0.5
    assert reference.normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-15)
    for z in (0.3, 1.7, 4.2):
        assert reference.normal_cdf(z) + reference.normal_cdf(-z) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("r_bar,delta,sigma", [
    (-0.04, 0.03, 0.4), (-0.05, 0.0, 0.2), (0.02, 0.03, 0.3), (-0.5, 0.0, 0.05),
])
def test_characteristic_roots_solve_the_quadratic(r_bar, delta, sigma):
    hi, lo = reference.characteristic_roots(r_bar, delta, sigma)
    assert hi >= lo
    for root in (hi, lo):
        b = r_bar - delta - 0.5 * sigma**2
        scale = 0.5 * sigma**2 * root**2 + abs(b * root) + abs(r_bar)
        assert abs(reference.quadratic_residual(root, r_bar, delta, sigma)) <= 1e-14 * scale
    assert hi * lo == pytest.approx(-2.0 * r_bar / sigma**2, rel=1e-13)


def test_perpetual_level():
    assert reference.perpetual_level(0.7, 2.0) == pytest.approx(1.4)
    assert reference.perpetual_level(0.7, 1.0) == math.inf


# --- parsing and checks ------------------------------------------------------

CSV = """# stockloan-csv-v1
# config: {"maturity":1.0,"space_nodes":400,"time_steps":2,"sigma":0.4}
tau,x_star
0,0.70597998186120026
0.5,0.75
1,inf
"""


def test_parse_csv():
    config, header, rows = checks.parse_csv(CSV)
    assert config["space_nodes"] == 400
    assert header == ["tau", "x_star"]
    assert rows == [[0.0, 0.70597998186120026], [0.5, 0.75], [1.0, math.inf]]


@pytest.mark.parametrize("text", ["", "tau,x\n0,1\n", CSV.replace("0.5,0.75", "0.5,0.75,1")])
def test_parse_csv_rejects_malformed(text):
    with pytest.raises(checks.CheckFailure):
        checks.parse_csv(text)


def test_parse_keyvals():
    assert checks.parse_keyvals("a=1\nx_star_inf=inf\n") == {"a": 1.0, "x_star_inf": math.inf}
    with pytest.raises(checks.CheckFailure):
        checks.parse_keyvals("no equals sign\n")


def _command(name: str) -> workloads.Command:
    for build in workloads.WORKLOADS.values():
        for cmd in build(1):
            if cmd.name == name:
                return cmd
    raise KeyError(name)


def test_fd_boundary_check_accepts_a_valid_curve_and_rejects_a_drop():
    cmd = _command("boundary-fd-r1-T1")
    checks.check_fd_boundary(cmd, CSV, None)
    falling = CSV.replace("0.5,0.75", "0.5,0.71").replace("1,inf", "1,0.60")
    with pytest.raises(checks.CheckFailure):
        checks.check_fd_boundary(cmd, falling, None)
    far = CSV.replace("0,0.70597998186120026", "0,0.80")
    with pytest.raises(checks.CheckFailure):
        checks.check_fd_boundary(cmd, far, None)


def test_perpetual_check_uses_own_roots():
    cmd = _command("perpetual-r1")
    p = cmd.params
    hi, lo = reference.characteristic_roots(p["r"] - p["loan_rate"], p["delta"], p["sigma"])
    good = (f"alpha_plus={hi!r}\nalpha_minus={lo!r}\n"
            f"x_star_inf={reference.perpetual_level(p['principal'], hi)!r}\nc1=0.4\n")
    checks.check_perpetual(cmd, good, None)
    bad = good.replace(f"alpha_plus={hi!r}", f"alpha_plus={hi * (1 + 1e-9)!r}")
    with pytest.raises(checks.CheckFailure):
        checks.check_perpetual(cmd, bad, None)


def test_oracle_check_needs_a_bitwise_tie():
    cmd = _command("oracle-check-r1")
    checks.check_oracle(cmd, "solver_value=0.15\noracle_value=0.15\nabs_diff=0\n", None)
    off = "solver_value=0.15\noracle_value=0.1500001\nabs_diff=1e-07\n"
    with pytest.raises(checks.CheckFailure):
        checks.check_oracle(cmd, off, None)


def test_lattice_price_check_against_black_scholes():
    cmd = _command("price-lattice-r1-call")
    p = cmd.params
    strike = p["principal"] * math.exp(p["loan_rate"] * p["maturity"])
    exact = reference.bs_call(p["spot"], strike, p["r"], p["sigma"], p["maturity"])
    checks.check_lattice_price(cmd, f"{exact + 1e-4!r}\n", None)
    with pytest.raises(checks.CheckFailure):
        checks.check_lattice_price(cmd, f"{exact + 2e-3!r}\n", None)


def test_fsg_price_floor():
    cmd = _command("price-fsg-T1")
    p = cmd.params
    intrinsic = max(p["spot"] + p["accrued"] - p["principal"], 0.0)
    with pytest.raises(checks.CheckFailure):
        checks.check_fsg_price(cmd, f"{intrinsic - 1e-6!r}\n", None)


# --- workloads and tracing ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert [x.argv for x in a] == [x.argv for x in b]
    assert [x.argv for x in a] != [x.argv for x in c]
    # The seed never moves a command across r = gamma, so each class keeps its code path.
    for x, y in zip(a, c):
        assert x.name == y.name
        assert (x.params.get("r", 0) >= 0.1) == (y.params.get("r", 0) >= 0.1)


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        tracing.Span(1, "cli.main", 0.0, 10.0, None, 0),
        tracing.Span(2, "lattice1d.price_regime1", 1.0, 5.0, 1, 0),
        tracing.Span(3, "lattice1d.price_regime1", 3.0, 6.0, 1, 0),  # another thread
        tracing.Span(4, "lattice1d.extract_boundary", 2.0, 4.0, 2, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 2.0}


def test_layer_metrics_count_nested_calls_once():
    spans = [
        tracing.Span(1, "cli.main", 0.0, 1.0, None, 0, {"subcommand": "perpetual"}),
        tracing.Span(2, "closedform.perpetual_regime2", 0.1, 0.5, 1, 0),
        tracing.Span(3, "closedform.perpetual_regime1", 0.2, 0.3, 2, 0),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["closedform.perpetual_us"] == pytest.approx(0.4e6)
    assert metrics["cli.self_ms"] == pytest.approx(600.0)
    assert metrics["fd1d.solve_vi_ms"] == 0.0


# --- end to end --------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


SMOKE = [(w, 0) for w in sorted(workloads.WORKLOADS)] + [("quote_mix", 1)]


@pytest.mark.parametrize("name,trace", SMOKE)
def test_smoke_run(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] % len(workloads.build(name, 3)) == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "quote_mix", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
