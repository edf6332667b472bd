"""Command-line interface: output formats, exits, config precedence."""

import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import stockloan.cli as cli
from stockloan import closedform, fd1d, fsg2d, lattice1d, oracle


BASE = ["--r", "0.06", "--delta", "0.03", "--sigma", "0.4",
        "--principal", "0.7", "--loan-rate", "0.1", "--maturity", "1.0"]
PRICE = ["price", "--regime", "1", "--spot", "0.8",
         "--solver", "lattice", "--steps", "400"] + BASE
# what PRICE prints; the lattice step folds the one-step discount into its branch weights
PRICE_OUT = "0.15267830681784342\n"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_price_golden_stdout(capsys):
    code, out, err = run(PRICE, capsys)
    assert code == 0
    assert err == ""
    assert out == PRICE_OUT
    # printed with repr-roundtrip precision
    assert repr(float(out)) + "\n" == PRICE_OUT
    # discounting each expectation after the weighted sum printed this; only rounding moved
    assert abs(float(out) - 0.15267830681784181) <= 1e-14


def test_price_output_file(tmp_path, capsys):
    target = tmp_path / "value.txt"
    code, out, _ = run(PRICE + ["--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == PRICE_OUT


def test_value_error_exits_2(capsys):
    code, out, err = run(["price", "--regime", "9", "--spot", "0.8"] + BASE, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(["price", "--regime", "1", "--spot", "-2.0",
                        "--solver", "lattice"] + BASE, capsys)
    assert code == 2
    assert "spot" in err


def test_runtime_error_exits_3(monkeypatch, capsys):
    def boom(cfg, spots):
        raise RuntimeError("iteration stalled")

    monkeypatch.setattr(cli, "_values", boom)
    code, _, err = run(PRICE, capsys)
    assert code == 3
    assert err.startswith("solver error:")


@pytest.mark.parametrize("argv, grid", [
    (["price", "--solver", "fsg", "--regime", "4", "--x-nodes", "300", "--a-nodes", "400000"],
     "fsg grid (x_nodes=300, a_nodes=400000, fsg_steps=200)"),
    (["price", "--steps", "100000000"], "lattice grid (steps=100000000)"),
    (["boundary", "--solver", "fd"], "fd grid (space_nodes=900, time_steps=100)"),
    (["figure", "3", "--a-nodes", "400000"],
     "fsg grid (x_nodes=200, a_nodes=400000, fsg_steps=200)"),
])
def test_memory_error_exits_2_naming_the_grid(argv, grid, monkeypatch, capsys):
    # an allocation the grid needs and the host refuses printed a numpy traceback
    def out_of_memory(cfg, spots):
        raise MemoryError

    monkeypatch.setattr(cli, "_stream", out_of_memory)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: not enough memory for the {grid}\n"


def test_memory_error_while_reading_the_configuration_exits_2(monkeypatch, capsys):
    # no configuration is bound yet, so naming its grid raised UnboundLocalError
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_load_config", out_of_memory)
    code, out, err = run(PRICE, capsys)
    assert (code, out, err) == (2, "", "error: not enough memory to read the configuration\n")


@pytest.mark.parametrize("solver, record", [
    ("lattice", lattice1d.LatticeConfig), ("fd", fd1d.FDConfig), ("fsg", fsg2d.FSG2DConfig),
])
def test_cli_grid_defaults_are_the_backends_defaults(solver, record):
    # the CLI holds its own copy of each default, so that a cold start loads no solver module
    defaults, backend = cli.RunConfig(), record()
    for name, keyword in cli._SOLVERS[solver]["grid"].items():
        assert getattr(defaults, name) == getattr(backend, keyword), name
    # the path tree has no grid record; its step count is only bounded
    assert oracle.tree_steps(defaults.oracle_steps) == defaults.oracle_steps


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main(["price", "--frobnicate", "1"])


def test_flag_overrides_config_file(tmp_path, capsys):
    config = {"r": 0.06, "delta": 0.03, "sigma": 0.4, "principal": 0.7,
              "loan_rate": 0.1, "maturity": 1.0, "regime": 1, "spot": 0.8,
              "solver": "lattice", "steps": 400}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    _, from_config, _ = run(["price", "--config", str(path)], capsys)
    assert from_config == PRICE_OUT
    _, overridden, _ = run(["price", "--config", str(path), "--sigma", "0.2"], capsys)
    _, direct, _ = run(["price", "--regime", "1", "--spot", "0.8", "--solver",
                        "lattice", "--steps", "400", "--r", "0.06", "--delta",
                        "0.03", "--sigma", "0.2", "--principal", "0.7",
                        "--loan-rate", "0.1", "--maturity", "1.0"], capsys)
    assert overridden == direct
    assert overridden != from_config


def test_perpetual_unbounded_prints_inf(capsys):
    code, out, _ = run(["perpetual", "--regime", "2"] + BASE, capsys)
    assert code == 0
    assert "x_star_inf=inf" in out.splitlines()


def test_boundary_csv_schema(capsys):
    code, out, _ = run(["boundary", "--regime", "1", "--solver", "lattice",
                        "--steps", "80"] + BASE, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# stockloan-csv-v1"
    assert lines[1].startswith("# config: ")
    config = json.loads(lines[1][len("# config: "):])
    assert config["steps"] == 80
    assert config["sigma"] == 0.4
    assert lines[2] == "tau,x_star"
    assert len(lines) == 3 + 81
    first = lines[3].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.7, abs=0.02)


def test_sweep_csv(capsys):
    code, out, _ = run(["sweep", "--param", "spot", "--values", "0.5,0.8,1.1",
                        "--regime", "1", "--solver", "lattice",
                        "--steps", "200"] + BASE, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "spot,value"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[3:]]
    assert [r[0] for r in rows] == pytest.approx([0.5, 0.8, 1.1])
    values = [r[1] for r in rows]
    assert values == sorted(values)


def test_figure_boundary_comparison_defaults(capsys):
    argv = ["figure", "2", "--space-nodes", "80", "--time-steps", "40",
            "--r", "0.06", "--delta", "0.03", "--principal", "0.7",
            "--loan-rate", "0.1", "--maturity", "1.0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    config = json.loads(lines[1][len("# config: "):])
    assert config["sigma"] == 0.15
    assert config["solver"] == "fd"
    assert config["regime"] == 1
    assert lines[2] == "tau,x1_star,x2_star,x3_star"
    assert len(lines) == 3 + 41


def test_figure_account_boundary_defaults(capsys):
    argv = ["figure", "3", "--x-nodes", "60", "--a-nodes", "10",
            "--fsg-steps", "40", "--r", "0.06", "--delta", "0.03",
            "--sigma", "0.4", "--principal", "0.7", "--loan-rate", "0.1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    config = json.loads(lines[1][len("# config: "):])
    assert config["maturity"] == 3.0
    assert config["solver"] == "fsg"
    assert config["regime"] == 4
    assert lines[2] == "a,x_star"


def test_oracle_check_reports_diff(capsys):
    code, out, _ = run(["oracle-check", "--regime", "1", "--spot", "0.8",
                        "--solver", "lattice", "--steps", "12",
                        "--oracle-steps", "12"] + BASE, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("solver_value=")
    assert lines[1].startswith("oracle_value=")
    assert lines[2].startswith("abs_diff=")
    assert float(lines[2].split("=")[1]) == 0.0


def test_byte_determinism_across_processes():
    outputs = [subprocess.run([sys.executable, "-m", "stockloan"] + PRICE,
                              capture_output=True, check=True).stdout for _ in range(3)]
    assert outputs == [PRICE_OUT.encode()] * 3


def test_perpetual_delivered_dividend_unbounded(capsys):
    code, out, _ = run(["perpetual", "--regime", "3"] + BASE, capsys)
    assert code == 0
    assert out == "x_star_inf=inf\n"
    # without dividends regime 3 is regime 1, whose boundary can be finite
    code, out, err = run(["perpetual", "--regime", "3"] + BASE + ["--delta", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_input_exits_2(value, capsys):
    code, out, err = run(PRICE + [f"--spot={value}"], capsys)
    assert code == 2
    assert out == ""
    assert "spot must be finite" in err


NOT_ACCRUING = "error: only regimes 3 and 4 carry an accrued dividend account\n"
CAP_RULE = "error: the withdrawable variant, and only that variant, takes a cap\n"
NEGATIVE = "error: accrued account must be nonnegative, got -0.1\n"


@pytest.mark.parametrize("extra, message", [
    (["--regime", "1", "--accrued", "0.1"], NOT_ACCRUING),
    (["--regime", "2", "--accrued", "0.1"], NOT_ACCRUING),
    (["--regime", "3", "--accrued", "-0.1"], NEGATIVE),
    (["--variant", "amortized", "--accrued", "0.1"], NOT_ACCRUING),
    (["--variant", "amortized", "--cap", "0.5"], CAP_RULE),
    (["--regime", "1", "--cap", "0.5"], CAP_RULE),
    (["--variant", "withdrawable"], CAP_RULE),
])
@pytest.mark.parametrize("solver, grid", [
    ("lattice", ["--steps", "50"]),
    ("fd", ["--space-nodes", "40", "--time-steps", "20"]),
])
def test_unused_or_missing_arguments_exit_2(solver, grid, extra, message, capsys):
    # each solver gets only its own grid flags, so that the rule across fields is reached
    argv = ["price", "--spot", "0.8", "--solver", solver] + grid + BASE + extra
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", message)


def test_regime3_accrued_account_added(capsys):
    argv = ["oracle-check", "--regime", "3", "--spot", "0.85", "--accrued", "0.1",
            "--solver", "lattice", "--steps", "10", "--oracle-steps", "10"] + BASE
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert float(out.splitlines()[2].split("=")[1]) <= 1e-12
    fd = ["price", "--regime", "3", "--spot", "0.85", "--solver", "fd",
          "--space-nodes", "80", "--time-steps", "40"] + BASE
    _, empty, _ = run(fd, capsys)
    _, funded, _ = run(fd + ["--accrued", "0.1"], capsys)
    assert float(funded) == pytest.approx(float(empty) + 0.1, abs=1e-15)


def test_fd_boundary_honours_tol(capsys):
    argv = ["boundary", "--regime", "1", "--solver", "fd", "--space-nodes", "80",
            "--time-steps", "40"] + BASE
    bodies = []
    for tol in ("1e-7", "0.01"):
        code, out, _ = run(argv + ["--tol", tol], capsys)
        assert code == 0
        bodies.append(out.splitlines()[2:])
    assert bodies[0] != bodies[1]


FD_SMALL = ["--regime", "1", "--solver", "fd", "--space-nodes", "80",
            "--time-steps", "40"] + BASE


def test_fd_spot_off_grid_exits_2(capsys):
    # the grid spans K exp(+-6 sigma sqrt(T)), about [0.064, 7.7] here
    code, out, err = run(["price", "--spot", "1000"] + FD_SMALL, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "outside the surface nodes" in err
    code, out, err = run(["sweep", "--param", "spot", "--values", "0.8,1000"] + FD_SMALL,
                         capsys)
    assert code == 2
    assert out == ""
    assert "outside the surface nodes" in err


def test_fd_spot_off_grid_refused_before_the_march(monkeypatch, capsys):
    drawn = []
    original = fd1d.fd_stream

    def spied(*args, **kwargs):
        stream = original(*args, **kwargs)

        def layers():
            for layer in stream.layers:
                drawn.append(layer[1])
                yield layer

        return dataclasses.replace(stream, layers=layers())

    monkeypatch.setattr(fd1d, "fd_stream", spied)
    code, _, _ = run(["price", "--spot", "0.8"] + FD_SMALL, capsys)
    assert code == 0 and len(drawn) == 41  # the spy sees every layer of a solve
    drawn.clear()
    for argv in (["price", "--spot", "1000"], ["boundary", "--spot", "1000"],
                 ["sweep", "--param", "spot", "--values", "0.8,1000"]):
        code, out, err = run(argv + FD_SMALL, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: x=1000.0 outside the surface nodes [")
        assert err.endswith("] at tau=1.0\n")
    assert drawn == []


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


FSG_SMALL = ["--regime", "4", "--solver", "fsg", "--x-nodes", "60", "--a-nodes", "10",
             "--fsg-steps", "40", "--accrued", "0.1"] + BASE


@pytest.mark.parametrize("flags, module, name", [
    (FD_SMALL, fd1d, "fd_stream"),
    (FSG_SMALL, fsg2d, "fsg_stream"),
], ids=["fd", "fsg"])
def test_grid_spot_sweep_solves_once(flags, module, name, monkeypatch, capsys):
    spots = ["0.55", "0.8", "1.3"]
    prices = []
    for spot in spots:
        code, out, _ = run(["price", "--spot", spot] + flags, capsys)
        assert code == 0
        prices.append(out.strip())
    calls = count_calls(monkeypatch, module, name)
    code, out, _ = run(["sweep", "--param", "spot", "--values", ",".join(spots)] + flags,
                       capsys)
    assert code == 0
    assert len(calls) == 1
    assert [line.split(",")[1] for line in out.splitlines()[3:]] == prices


@pytest.mark.parametrize("steps", ["40", "41"])
@pytest.mark.parametrize("kind", [["--regime", "1"], ["--regime", "2"], ["--regime", "3"],
                                  ["--variant", "amortized"],
                                  ["--variant", "withdrawable", "--cap", "0.35"]],
                         ids=lambda kind: kind[1])
def test_lattice_spot_sweep_prints_each_price(kind, steps, monkeypatch, capsys):
    # the lattice tree is centred on its spot, so a sweep builds one tree per spot
    flags = kind + ["--solver", "lattice", "--steps", steps] + BASE
    spots = ["0.55", "0.8", "1.3"]
    prices = []
    for spot in spots:
        code, out, _ = run(["price", "--spot", spot] + flags, capsys)
        assert code == 0
        prices.append(out.strip())
    calls = count_calls(monkeypatch, lattice1d, "lattice_stream")
    code, out, _ = run(["sweep", "--param", "spot", "--values", ",".join(spots)] + flags,
                       capsys)
    assert code == 0
    assert [call[2] for call in calls] == [float(spot) for spot in spots]
    assert [line.split(",")[1] for line in out.splitlines()[3:]] == prices


def test_lattice_nan_exits_3(monkeypatch, capsys):
    original = lattice1d.problem_spec

    def spec_with_nan(problem):
        spec = original(problem)
        return dataclasses.replace(spec, terminal=lambda x: np.full_like(x, np.nan))

    monkeypatch.setattr(lattice1d, "problem_spec", spec_with_nan)
    code, out, err = run(PRICE, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("solver error:") and "NaN" in err


def test_fd_nan_exits_3(monkeypatch, capsys):
    original = fd1d.problem_spec

    def spec_with_nan(problem):
        spec = original(problem)

        def terminal(x):
            values = np.array(spec.terminal(x), dtype=float)
            values[values.size // 3] = math.nan
            return values

        return dataclasses.replace(spec, terminal=terminal)

    monkeypatch.setattr(fd1d, "problem_spec", spec_with_nan)
    code, out, err = run(["price", "--regime", "1", "--spot", "0.8", "--solver", "fd",
                          "--space-nodes", "64", "--time-steps", "8"] + BASE, capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("solver error:") and "NaN" in err


def test_figure_snapshot_refused_before_solving(monkeypatch, capsys):
    calls = count_calls(monkeypatch, fsg2d, "fsg_stream")
    code, out, err = run(["figure", "3", "--maturity", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert "needs maturity >= 1.0" in err
    assert calls == []


@pytest.mark.parametrize("solver, module, name", [
    ("lattice", lattice1d, "lattice_stream"),
    ("fd", fd1d, "fd_stream"),
    ("fsg", fsg2d, "fsg_stream"),
], ids=["lattice", "fd", "fsg"])
def test_negative_tol_refused_before_solving(solver, module, name, monkeypatch, capsys):
    calls = count_calls(monkeypatch, module, name)
    regime = "4" if solver == "fsg" else "1"
    code, out, err = run(["boundary", "--regime", regime, "--solver", solver, "--tol", "-0.01"]
                         + BASE, capsys)
    assert code == 2
    assert out == ""
    assert "tolerance must be nonnegative" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["price", "--solver", "fd", "--regime", "1", "--maturity", "0.23", "--spot", "0.8"],
    ["price", "--solver", "fsg", "--regime", "4", "--maturity", "0.99", "--spot", "0.8"],
], ids=["fd", "fsg"])
def test_price_at_maturity_where_step_multiples_fall_short(argv, capsys):
    # 400 * (0.23 / 400) and 200 * (0.99 / 200) both land one ulp below the
    # maturity, so a time grid built from step multiples ends short of it
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    assert math.isfinite(float(out))


@pytest.mark.parametrize("argv, message", [
    (["price", "--solver", "fd", "--steps", "5"], "--steps"),
    (["price", "--solver", "lattice", "--space-nodes", "50"], "--space-nodes"),
    (["oracle-check", "--solver", "fd", "--steps", "7", "--x-nodes", "30"],
     "--steps, --x-nodes"),
    (["price", "--tol", "0.5"], "--tol"),
    (["perpetual", "--steps", "5", "--tol", "0.3"], "--steps, --tol"),
    (["perpetual", "--solver", "fd"], "--solver"),
    (["perpetual", "--variant", "amortized"], "not variants"),
    (["sweep", "--param", "tol", "--values", "0.1,0.2"], "sweep parameter must be one of"),
    (["figure", "1", "--solver", "lattice"], "--solver"),
    (["figure", "3", "--regime", "2"], "--regime"),
    (["figure", "3", "--accrued", "0.1", "--regime", "4", "--solver", "fsg"],
     "--accrued, --regime, --solver"),
    (["price", "--variant", "amortized", "--regime", "3", "--steps", "200", "--spot", "0.9"],
     "--regime"),
    # refused for the flag, not for the config the other flags happen to leave
    (["figure", "3", "--regime", "4"], "error: figure on the fsg solver does not read --regime\n"),
    (["figure", "1", "--solver", "fsg"], "error: figure on the fd solver does not read --solver\n"),
    (["figure", "2", "--accrued", "0.1"],
     "error: figure on the fd solver does not read --accrued\n"),
    (["figure", "3", "--variant", "amortized"],
     "error: figures cover the dividend regimes, not variants\n"),
    # what a command does not cover is refused before a solve too
    (["boundary", "--solver", "oracle"], "error: solver 'oracle' does not produce boundary output\n"),
    (["perpetual", "--regime", "4"], "error: no perpetual closed form exists for regime 4\n"),
    (["oracle-check", "--variant", "amortized"],
     "error: the path-tree check covers the four regimes, not variants\n"),
    (["sweep", "--param", "spot", "--values", ","], "error: sweep needs at least one value\n"),
    (["sweep", "--param", "spot", "--values", "abc"], "--values"),
    # a grid refusal names its flag, and the path tree's steps are checked before the solver runs
    (["figure", "3", "--fsg-steps", "0"], "error: --fsg-steps: need at least 2 time steps, got 0\n"),
    (["figure", "1", "--time-steps", "0"],
     "error: --time-steps: need at least 2 time steps, got 0\n"),
    (["oracle-check", "--solver", "fd", "--oracle-steps", "0"],
     "error: --oracle-steps: path tree steps must lie in [1, 14], got 0: "
     "the tree doubles with every step\n"),
    (["oracle-check", "--steps", "0", "--oracle-steps", "20"],
     "error: --steps: need at least one step, got 0\n"),
], ids=["price-fd-steps", "price-lattice-space-nodes", "oracle-check-fd-grids", "price-tol",
        "perpetual-grid-tol", "perpetual-solver", "perpetual-variant", "sweep-tol",
        "figure-solver", "figure-regime", "figure-regime-accrued-solver", "price-variant-regime",
        "figure-regime-of-its-solver", "figure-solver-for-another-regime",
        "figure-accrued-of-another-regime", "figure-variant-of-another-solver",
        "boundary-oracle", "perpetual-regime4", "oracle-check-variant", "sweep-no-values",
        "sweep-value-not-a-number", "figure-fsg-steps", "figure-time-steps",
        "oracle-check-fd-oracle-steps", "oracle-check-steps-first"])
def test_ignored_flag_refused_before_solving(argv, message, monkeypatch, capsys):
    def solved(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, name in ((lattice1d, "lattice_stream"), (fd1d, "fd_stream"),
                         (fsg2d, "fsg_stream"), (oracle, "oracle_price"),
                         (closedform, "perpetual_regime1")):
        monkeypatch.setattr(module, name, solved)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("solver, name", [(solver, name) for solver, entry in cli._SOLVERS.items()
                                           for name in entry["grid"]])
def test_grid_refusal_names_its_flag(solver, name, monkeypatch, capsys):
    # the fd and fsg grids both refused "need at least 2 time steps, got 0"
    def solved(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, stream in ((lattice1d, "lattice_stream"), (fd1d, "fd_stream"),
                           (fsg2d, "fsg_stream"), (oracle, "oracle_price")):
        monkeypatch.setattr(module, stream, solved)
    flag = "--" + name.replace("_", "-")
    argv = ["price", "--solver", solver, "--regime", "4" if solver == "fsg" else "1", flag, "0"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, joined", [
    (["price", "--loan-rate", "-1e-3", "--steps", "50"],
     ["price", "--loan-rate=-1e-3", "--steps", "50"]),
    (["sweep", "--param", "loan_rate", "--values", "-0.01,0.02", "--steps", "50"],
     ["sweep", "--param", "loan_rate", "--values=-0.01,0.02", "--steps", "50"]),
], ids=["price", "sweep"])
def test_negative_value_in_exponent_form_is_a_value(argv, joined, capsys):
    # argparse reads only -1 and -1.5 as negative numbers, so these were taken for flags
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(joined, capsys)


def test_config_header_reruns_with_every_field(tmp_path, capsys):
    # the header sets every grid field and tol; from a file they are not refused
    argv = ["boundary", "--regime", "1", "--solver", "lattice", "--steps", "40"] + BASE
    code, first, _ = run(argv, capsys)
    assert code == 0
    path = tmp_path / "run.json"
    path.write_text(first.splitlines()[1][len("# config: "):])
    code, again, _ = run(["boundary", "--config", str(path)], capsys)
    assert code == 0
    assert again == first
    code, out, _ = run(["price", "--config", str(path)], capsys)
    assert code == 0
    assert math.isfinite(float(out))


def test_config_integer_float_field_prints_the_flag_header(tmp_path, capsys):
    # a JSON integer in a float field is stored as a float, so the run from
    # a config file and the same run from flags print one header
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"maturity": 1, "steps": 50}))
    code, from_file, _ = run(["boundary", "--config", str(path)], capsys)
    assert code == 0
    code, from_flags, _ = run(["boundary", "--maturity", "1", "--steps", "50"], capsys)
    assert code == 0
    assert from_file == from_flags
    assert '"maturity":1.0,' in from_file.splitlines()[1]


def test_config_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"maturity": 1' + "0" * 400 + "}")
    code, out, err = run(["price", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: maturity must be finite")


def test_figure_reads_the_header_of_an_accrued_run(tmp_path, capsys):
    # the figure runs its own regimes with an empty account, so the account
    # a regime-3 header carries is not read, and not refused
    grid = ["--space-nodes", "40", "--time-steps", "20"]
    code, out, _ = run(["boundary", "--regime", "3", "--accrued", "0.1", "--solver", "fd"]
                       + grid + BASE, capsys)
    assert code == 0
    path = tmp_path / "r3.json"
    path.write_text(out.splitlines()[1][len("# config: "):])
    code, from_header, err = run(["figure", "1", "--config", str(path)], capsys)
    assert (code, err) == (0, "")
    code, from_flags, _ = run(["figure", "1"] + grid + BASE, capsys)
    assert code == 0
    assert from_header.splitlines()[2:] == from_flags.splitlines()[2:]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # the 2000-step tree's top node 0.8 exp(3 sqrt(30 * 2000)) overflows
    ["--solver", "lattice", "--regime", "1", "--sigma", "3", "--maturity", "30"],
    ["--solver", "lattice", "--variant", "withdrawable", "--cap", "0.5", "--sigma", "3",
     "--maturity", "30"],
    # the stock grid's top node 0.7 exp(6 * 10 sqrt(150)) overflows
    ["--solver", "fsg", "--regime", "4", "--sigma", "10", "--maturity", "150",
     "--x-nodes", "30", "--a-nodes", "5", "--fsg-steps", "20"],
    ["--solver", "fd", "--regime", "1", "--sigma", "10", "--maturity", "150"],
], ids=["lattice", "lattice-withdrawable", "fsg", "fd"])
def test_overflowing_grid_refused(argv, capsys):
    code, out, err = run(["price", "--spot", "0.8"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "overflows a float" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # 400 nodes over 12 sigma sqrt(T) = 1200 in log x sit about 3 apart
    ["--solver", "fd", "--regime", "1", "--sigma", "10", "--maturity", "100"],
    ["--solver", "fsg", "--regime", "4", "--sigma", "5", "--maturity", "50"],
    ["--solver", "fsg", "--regime", "4", "--sigma", "10", "--maturity", "100"],
], ids=["fd", "fsg", "fsg-wider"])
def test_coarse_grid_refused(argv, capsys):
    code, out, err = run(["price", "--spot", "0.8"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "log spacing" in err and "use at least" in err


@pytest.mark.filterwarnings("error")
def test_fsg_account_query_above_the_grid_is_exact(capsys):
    # the account queried at the top stock node overflows an integer index
    argv = ["price", "--solver", "fsg", "--regime", "4", "--spot", "0.8", "--sigma", "2",
            "--maturity", "16", "--x-nodes", "400"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == "0.73074092371258592\n"


def test_fsg_account_grid_refusal_names_no_knob(capsys):
    argv = ["price", "--solver", "fsg", "--regime", "4", "--spot", "0.8", "--r", "0.12",
            "--sigma", "1.5", "--maturity", "10", "--x-nodes", "400"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "a_max" not in err and "a_nodes" not in err


@pytest.mark.parametrize("command, config, field", [
    (["perpetual"], None, "output"),
    (["price"], {"steps": 2.5}, "steps"),
    (["price"], {"solver": "fd", "space_nodes": "40"}, "space_nodes"),
    (["price"], {"steps": True}, "steps"),
    (["boundary"], {"spot": True, "steps": 50}, "spot"),
    # a file value is checked before it can index the solver table
    (["price"], {"solver": []}, "solver must be a string, got []"),
    (["price", "--steps", "50"], {"solver": "foo"}, "unknown solver 'foo'"),
    (["price"], {"variant": 5}, "variant must be a string, got 5"),
    # a file value is checked even where a flag overrides it
    (["price", "--sigma", "0.3"], {"sigma": "abc"}, "sigma must be a number, got 'abc'"),
], ids=["unwritable-output", "float-steps", "string-nodes", "bool-steps", "bool-spot",
        "list-solver", "unknown-solver", "integer-variant", "overridden-string-sigma"])
def test_bad_config_type_or_output_exits_2(command, config, field, tmp_path, capsys):
    if config is None:
        argv = command + ["--output", str(tmp_path / "missing" / "out.txt")]
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = command + ["--config", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


FSG_GRID = ["--x-nodes", "40", "--a-nodes", "6", "--fsg-steps", "20"]


@pytest.mark.parametrize("config, argv, flags", [
    ({"solver": "fsg"}, ["price", "--regime", "4"] + FSG_GRID, ["--solver", "fsg"]),
    ({"variant": "withdrawable"}, ["price", "--cap", "0.3", "--steps", "50"],
     ["--variant", "withdrawable"]),
    ({"accrued": 0.1}, ["price", "--regime", "3", "--steps", "50"], ["--accrued", "0.1"]),
    # the figure's own empty account replaces the file's
    ({"accrued": 0.1}, ["figure", "3"] + FSG_GRID, []),
], ids=["fsg-regime", "withdrawable-cap", "accrued-regime3", "accrued-figure"])
def test_config_file_completed_by_flags_runs(config, argv, flags, tmp_path, capsys):
    # the file alone breaks a rule across fields, and was refused before the flags applied
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    from_file = run(argv + ["--config", str(path)], capsys)
    assert from_file[0] == 0
    assert from_file == run(argv + flags, capsys)


def test_perpetual_reads_no_solver_from_the_file(tmp_path, capsys):
    # the solver rule ran for perpetual too: exit 2, "solver 'fsg' does not price regime 1"
    path = tmp_path / "fsg.json"
    path.write_text(json.dumps({"solver": "fsg"}))
    from_file = run(["perpetual", "--regime", "1", "--config", str(path)], capsys)
    assert from_file[0] == 0
    assert from_file == run(["perpetual", "--regime", "1"], capsys)


@pytest.mark.parametrize("config", [None, {"solver": "fsg"}], ids=["no-file", "fsg-file"])
def test_perpetual_regime4_refused_for_the_closed_forms(config, tmp_path, capsys):
    # without a file the refusal named the lattice: "solver 'lattice' does not price regime 4"
    argv = ["perpetual", "--regime", "4"]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: no perpetual closed form exists for regime 4\n"


@pytest.mark.parametrize("values", ["abc", "0.6,abc", "0.6,,abc,0.9"])
def test_sweep_value_not_a_number_names_the_flag(values, capsys):
    # the refusal was "could not convert string to float: 'abc'", naming neither flag nor sweep
    code, out, err = run(["sweep", "--param", "spot", "--values", values, "--steps", "20"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --values takes comma-separated numbers, got 'abc'\n"


def test_config_file_not_utf8_names_the_file(tmp_path, capsys):
    # the decode error printed alone: "error: 'utf-8' codec can't decode byte 0xff ..."
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(["price", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: configuration file is not valid JSON: 'utf-8' codec ")
    assert err.count("\n") == 1


SMOKE_GRIDS = {
    "lattice": ["--steps", "12"],
    "fd": ["--space-nodes", "40", "--time-steps", "20"],
    "fsg": FSG_GRID,
    "oracle": ["--oracle-steps", "8"],
}
SMOKE_CONTRACTS = [["--regime", regime] for regime in "1234"] + [
    ["--variant", "amortized"], ["--variant", "withdrawable", "--cap", "0.5"]]


def smoke_argvs():
    # every subcommand meets every --solver flag and every contract
    for command in (["price"], ["boundary"], ["sweep", "--param", "spot", "--values", "0.6,0.9"],
                    ["oracle-check"], ["perpetual"]):
        for solver, grid in SMOKE_GRIDS.items():
            if command == ["oracle-check"] and solver != "oracle":
                grid = grid + SMOKE_GRIDS["oracle"]
            for contract in SMOKE_CONTRACTS:
                yield command + ["--solver", solver] + contract + grid
    for contract in SMOKE_CONTRACTS:
        yield ["perpetual"] + contract
    for number, solver in (("1", "fd"), ("2", "fd"), ("3", "fsg"), ("4", "fsg")):
        for flags in [[]] + [["--solver", other] for other in SMOKE_GRIDS] + SMOKE_CONTRACTS:
            yield ["figure", number] + flags + SMOKE_GRIDS[solver]
    # inputs whose numbers leave the floats
    yield ["perpetual", "--regime", "1", "--sigma", "0.001"]
    yield ["perpetual", "--regime", "2", "--sigma", "0.001"]
    yield ["perpetual", "--regime", "1", "--principal", "2", "--sigma", "0.01"]
    yield ["price", "--r", "1e300"]
    yield ["price", "--solver", "fd", "--loan-rate", "1e300"]
    yield ["price", "--variant", "amortized", "--maturity", "1e6", "--steps", "40"]
    # a volatility too small for the floats: its square, the tree's u - d or the log spacing is 0
    yield ["perpetual", "--sigma", "1e-200"]
    yield ["perpetual", "--sigma", "1e-162"]
    yield ["price", "--sigma", "1e-150"]
    yield ["price", "--solver", "fd", "--sigma", "1e-150"]
    yield ["price", "--solver", "fsg", "--regime", "4", "--sigma", "1e-170"]
    yield ["price", "--solver", "oracle", "--sigma", "1e-200"]
    yield ["sweep", "--param", "sigma", "--values", "1e-200"]
    yield ["figure", "1", "--sigma", "1e-200"]
    # a log spacing of about one ulp of the nodes: the FD policy iteration cycles
    yield ["price", "--solver", "fd", "--sigma", "1e-15"]
    # values whose sum of squares overflows, though each value is a float
    yield ["price", "--solver", "fd", "--principal", "1e160", "--spot", "1e160"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", list(smoke_argvs()), ids=" ".join)
def test_every_command_answers_or_fails_in_one_line(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code in (0, 2, 3)
    if code != 0:
        assert out == ""
    assert err.count("\n") <= 1


@pytest.mark.parametrize("argv", [
    ["--sigma", "0.4", "--space-nodes", "800", "--time-steps", "50", "--maturity", "1"],
], ids=" ".join)
def test_fd_withdrawable_prices_where_the_joint_policy_cycled(argv, capsys):
    # exited 3: "policy iteration did not settle within 799 linear solves"
    code, out, err = run(["price", "--solver", "fd", "--variant", "withdrawable",
                          "--cap", "0.35"] + argv, capsys)
    assert (code, err) == (0, "")
    assert math.isfinite(float(out))
    assert out == f"{float(out):.17g}\n"


def assert_convection_refusal(argv, capsys):
    """argv exits 2 with one line naming the cell Peclet number; returns the count it names."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the stock grid's cell Peclet number") and err.count("\n") == 1
    match = re.search(r"; use at least (\S+) stock nodes\n$", err)
    assert match, err
    return float(match.group(1))


def test_fd_withdrawable_at_a_tiny_sigma_refused(capsys):
    # 100 nodes at sigma 1e-5 upwinded to a step whose explicit weight went negative
    count = assert_convection_refusal(
        ["price", "--solver", "fd", "--variant", "withdrawable", "--cap", "0.35",
         "--sigma", "1e-5", "--space-nodes", "100", "--time-steps", "100"], capsys)
    assert count > 100


@pytest.mark.parametrize("sigma", ["1e-15", "2e-15"])
def test_log_spacing_of_a_few_ulps_exits_2(sigma, capsys):
    # about 1.2 and 2.4 ulps of log K apart, the log nodes round unevenly and
    # the policy iteration never settled (exit 3); this refusal comes first
    code, out, err = run(["price", "--solver", "fd", "--sigma", sigma], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the stock grid's log spacing") and err.count("\n") == 1
    assert f"sigma={sigma}" in err
    # a thousand times wider, the drift outruns the diffusion across each cell
    assert_convection_refusal(["price", "--solver", "fd", "--sigma", "1e-12"], capsys)


def test_fd_convection_dominated_default_grid_refused(capsys):
    count = assert_convection_refusal(["price", "--solver", "fd", "--r", "14"], capsys)
    assert count == 927
    # that count keeps the cell Peclet number under 1, but the redeeming level
    # at maturity, (r - gamma) K / delta = 324, lies above the top node 150;
    # it priced 0.688819, 4.9e-4 below the lattice at 20000 steps
    assert_terminal_level_refusal(["--r", "14", "--space-nodes", "927"], "324.333", capsys)


def assert_terminal_level_refusal(flags, level, capsys):
    """An FD price with flags exits 2 with one line naming the level and the default top node."""
    code, out, err = run(["price", "--solver", "fd"] + flags, capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: the redeeming level at maturity {level} lies above the stock grid's "
                   "top node 149.888, so the grid cannot hold the boundary\n")


def test_fd_refuses_a_redeeming_level_above_its_grid(capsys):
    # at r 10 the level at maturity is 231 and the default top node 150: the
    # far field stood in for the boundary and the price moved away from the
    # lattice's 0.68576817791557687 (20000 steps) as the grid refined, -1.32e-4
    # at 900 nodes and -1.97e-4 at 1800; 658 nodes printed within 1e-4 of it
    for nodes in ([], ["--space-nodes", "658"], ["--space-nodes", "1800"]):
        assert_terminal_level_refusal(["--r", "10"] + nodes, "231", capsys)
    # at r 5 the level, 114, lies on the grid: the price converges on the
    # lattice's 0.67454637771802506 (20000 steps) as the grid refines
    errors = []
    for grid in ([], ["--space-nodes", "1800", "--time-steps", "200"]):
        code, out, err = run(["price", "--solver", "fd", "--r", "5"] + grid, capsys)
        assert (code, err) == (0, "")
        errors.append(abs(float(out) - 0.67454637771802506))
    assert errors[1] < errors[0] < 1e-4


# price argvs on 60 x 30 nodes that printed a value outside [max(S - K, 0), S]
# (the first five) or exited 3 (the last two); the cell Peclet number exceeds 1 in each
CONVECTION_DOMINATED = [
    ["--regime", "1", "--r", "3"],
    ["--regime", "1", "--loan-rate", "-1"],
    ["--regime", "2", "--r", "3"],
    ["--regime", "2", "--r", "1e300"],
    ["--regime", "2", "--loan-rate", "-1"],
    ["--regime", "1", "--r", "1e300"],
    ["--regime", "3", "--delta", "1e300"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", CONVECTION_DOMINATED, ids=" ".join)
def test_fd_convection_dominated_grid_names_the_smallest_passing_count(argv, capsys):
    fd = ["price", "--solver", "fd", "--time-steps", "30"] + argv
    count = assert_convection_refusal(fd + ["--space-nodes", "60"], capsys)
    if count > 10_000:
        return
    # one node fewer is refused, the count itself prices
    assert_convection_refusal(fd + ["--space-nodes", f"{count - 1:.0f}"], capsys)
    code, out, err = run(fd + ["--space-nodes", f"{count:.0f}"], capsys)
    assert (code, err) == (0, "")
    if argv[1] == "1":
        assert 0.0 <= float(out) <= 0.7
    else:
        # regime 2's value lies just below the spot here (the lattice gives 0.6999996
        # at r 3 and 0.6965 at gamma -1), and the second-order error of so coarse a
        # grid still lifts the price above it, to 0.7019 and 0.7108
        assert 0.0 <= float(out) < 0.72


def test_fsg_convection_dominated_grid_refused(capsys):
    # 200 upwinded stock nodes printed 0.0031991778730007191; 1600 central ones give
    # 0.0031934175998129216
    fsg = ["price", "--solver", "fsg", "--regime", "4", "--sigma", "0.005"]
    assert assert_convection_refusal(fsg, capsys) == 377
    assert_convection_refusal(fsg + ["--x-nodes", "376"], capsys)
    code, out, err = run(fsg + ["--x-nodes", "377"], capsys)
    assert (code, err) == (0, "")
    assert abs(float(out) - 0.0031934175998129216) < 1e-4


@pytest.mark.parametrize("flags, named", [
    # stock steps this fine against layers this long ask for about 2950 substeps per layer
    (["--x-nodes", "900", "--fsg-steps", "2"], "substeps per layer"),
    # explicit stability would ask for about 2e299 substeps per layer, but the drift
    # of -1e300 outruns the diffusion across each cell first
    (["--delta", "1e300"], "cell Peclet number"),
    (["--loan-rate", "1e300"], "cell Peclet number"),
], ids=["fine-stock-step", "delta", "loan-rate"])
def test_fsg_march_that_cannot_finish_refused(flags, named, capsys):
    argv = ["price", "--solver", "fsg", "--regime", "4", "--maturity", "1"] + flags
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


def test_fsg_immediate_redemption(capsys):
    # the account covers the principal and r < gamma: redeeming now is exact, nothing marches
    flags = ["--solver", "fsg", "--regime", "4", "--accrued", "0.75"] + BASE
    code, out, err = run(["boundary"] + flags, capsys)
    assert (code, out) == (2, "")
    assert err == ("error: immediate redemption is exactly optimal for this state; "
                   "no boundary surface is produced\n")
    code, out, err = run(["sweep", "--param", "spot", "--values", "0.55,0.6"] + flags, capsys)
    assert (code, err) == (0, "")
    assert [line.split(",")[1] for line in out.splitlines()[3:]] == [
        f"{s + 0.75 - 0.7:.17g}" for s in (0.55, 0.6)]


def peak_mb(argv, capsys):
    """Peak traced allocation of one in-process run, in MB; the run must succeed."""
    tracemalloc.start()
    try:
        code, _, err = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    return peak / 2**20


def test_lattice_boundary_keeps_two_layers(capsys):
    # the whole 2000-step tree holds about 48 MB
    argv = ["boundary", "--solver", "lattice", "--regime", "1", "--steps", "2000"] + BASE
    assert peak_mb(argv, capsys) < 5


@pytest.mark.parametrize("command", ["price", "boundary"])
@pytest.mark.parametrize("contract", [["--regime", "1"], ["--variant", "amortized"]],
                         ids=["regime1", "amortized"])
def test_fd_price_and_boundary_keep_two_layers(command, contract, capsys):
    # 101 layers of 900 nodes hold 0.7 MB, 1.5 MB with a time-dependent obstacle
    argv = [command, "--solver", "fd", "--spot", "0.8"] + contract + BASE
    # the first FD solve loads the LAPACK module; a small one keeps that out of the count
    assert run(argv + ["--space-nodes", "64", "--time-steps", "8"], capsys)[0] == 0
    assert peak_mb(argv, capsys) < 0.5


# sha256 of the stdout of small-grid boundary runs; every fold must print the
# same bytes.  The FD ones were recorded when the march took BDF2 steps.  The
# lattice and FSG runs print the FD default grid in their config header, so a
# new default moves their digests and nothing else.  The unconstrained FSG one
# was recorded when a problem with no redemption region read inf on every
# layer after maturity.
BOUNDARY_DIGESTS = {
    "lattice": (["--solver", "lattice", "--regime", "1", "--steps", "60"],
                "0caba9f2642cdb55257887eb785173d4fc1263e97fddbd9e059c5e4b2ca4c12f"),
    "fd-regime1": (["--solver", "fd", "--regime", "1", "--space-nodes", "80",
                    "--time-steps", "40"],
                   "f2857fed99496456b00c68f0b94dab482b96face115bc191c3aea9bfffda1c4f"),
    "fd-withdrawable": (["--solver", "fd", "--variant", "withdrawable", "--cap", "0.5",
                         "--space-nodes", "80", "--time-steps", "40"],
                        "9bacc686a267490f998751bd26f6a5c64a4bae7f8278ef56155c5ee8f039fa31"),
    "fsg-constrained": (["--solver", "fsg", "--regime", "4", "--accrued", "0.1",
                         "--x-nodes", "60", "--a-nodes", "10", "--fsg-steps", "40"],
                        "2aac6672fcb7918415ce8de0511bad8fc88a8d0c3c9254a5ef84e05ef3f843d6"),
    "fsg-unconstrained": (["--solver", "fsg", "--regime", "4", "--accrued", "0.1",
                           "--x-nodes", "60", "--a-nodes", "10", "--fsg-steps", "40",
                           "--r", "0.13"],
                          "040964306641e0144a635b0a82dc2f52e04ac87a75de48a8ae1f7eb3967b0f34"),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_DIGESTS))
def test_boundary_stdout_digest(name, capsys):
    flags, digest = BOUNDARY_DIGESTS[name]
    code, out, err = run(["boundary"] + BASE + flags, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of FD boundary runs on the default 900 x 100 grid, the
# benchmark's, recorded when the march took BDF2 steps
FD_DEFAULT_GRID_DIGESTS = {
    "regime1": (["--regime", "1"],
                "01132f2221633e8d98a19b13f7fc0aa36ca72ae0dd0b144e0fc43f91917bd288"),
    "regime2": (["--regime", "2"],
                "a832a688911229f91bd0ffb34ce9f5d1a2994c5d5a8c3290d1e30479212a6b25"),
    "regime3": (["--regime", "3"],
                "b00794f41ca33fc7f31901effd8af7b9562b910c7f09c7b70f36b1f7b729b7ef"),
    "amortized": (["--variant", "amortized"],
                  "2a1a14086a3931178db84f82c505e4f6c0e9c1f00e14238f0e5e004cdaa0c1ca"),
    "withdrawable": (["--variant", "withdrawable", "--cap", "0.5"],
                     "deb682f55aab3669e5e586c443368abb3b23a7838dca7514844c6f4677da5150"),
}


@pytest.mark.parametrize("name", sorted(FD_DEFAULT_GRID_DIGESTS))
def test_fd_boundary_stdout_digest_on_the_default_grid(name, capsys):
    flags, digest = FD_DEFAULT_GRID_DIGESTS[name]
    code, out, err = run(["boundary"] + BASE + ["--solver", "fd"] + flags, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def parse(parser, argv, capsys):
    """What parser prints and exits with on argv, or the namespace it parses; and its output."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


SUBCOMMANDS = ["price", "boundary", "perpetual", "oracle-check", "sweep", "figure"]
PARSER_ARGVS = (
    [[], ["--help"], ["-h"], ["nope"], ["--solver", "fd"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [[name, "--bogus"] for name in SUBCOMMANDS]
    + [["price", "--steps", "ten"], ["boundary", "--solver", "nope"], ["perpetual", "extra"],
       ["oracle-check", "--variant"], ["sweep", "--param", "spot"], ["figure"], ["figure", "9"]]
    + list(smoke_argvs())
)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_for_one_subcommand_prints_and_parses_as_the_full_one(argv, capsys):
    # build_parser(argv) adds arguments to the named subcommand only
    assert parse(cli.build_parser(argv), argv, capsys) == parse(cli.build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", [["--help"], ["figure", "--help"], ["sweep", "--bogus"]],
                         ids=" ".join)
def test_main_prints_the_full_parsers_help_and_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    printed = capsys.readouterr()
    assert parse(cli.build_parser(), argv, capsys) == (exc.value.code, printed)
    assert printed.out or printed.err


# one process's commands: subcommands switch, and a parse that exits (help, a
# usage error) comes between two that run
REUSED_PARSER_ARGVS = [
    ["perpetual", "--regime", "1"],
    ["price", "--steps", "50"],
    ["--help"],
    ["price", "--loan-rate", "-1e-3", "--steps", "50"],
    ["boundary", "--solver", "fd", "--space-nodes", "40", "--time-steps", "10"],
    ["sweep", "--bogus"],
    ["price", "--spot", "-7.5e-1", "--steps", "50"],
    ["figure", "--help"],
    ["perpetual", "--regime", "2", "--sigma", "0.001"],
    ["price", "--steps", "50"],
    ["nope"],
    ["sweep", "--param", "spot", "--values", "-0.6,0.8", "--steps", "50"],
    ["perpetual", "--regime", "1"],
]


def main_outcome(argv, capsys):
    """main's exit code on argv, or the code it exits with, and what it prints."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_each_parser_once_with_a_fresh_parsers_output(capsys):
    fresh = []
    for argv in REUSED_PARSER_ARGVS:
        cli._parser.cache_clear()
        fresh.append(main_outcome(argv, capsys))
    cli._parser.cache_clear()
    assert [main_outcome(argv, capsys) for argv in REUSED_PARSER_ARGVS] == fresh
    # one parser per subcommand named, and one for an argv that names none
    assert cli._parser.cache_info().misses == 6
    assert {code for code, _, _ in fresh} == {0, 2}
