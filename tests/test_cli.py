import csv
import io
import json
import math
import subprocess
import sys
import time

import pytest

import corpus
import nodeiso.analytic as analytic
import nodeiso.channel as channel
import nodeiso.simulator as simulator
from nodeiso import cli
from nodeiso.channel import DiversityScheme, sigma_from_db
from reference import count_link_mass_grids, params


def run_cli(*args, check=True):
    """``nodeiso <args>`` in process; test_module_entry_point_matches_the_runner
    checks that ``python -m nodeiso`` reports the same."""
    proc = corpus.run(list(args))
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, body


def parse_record(text):
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


EVAL_ARGS = [
    "eval", "--m", "2", "--alpha", "4", "--sigma", "0",
    "--k-db", "10", "--psi-db", "10", "--ptx", "1", "--w", "0.01",
    "--lambda", "1e-4",
]


# ============================================================================
#  eval
# ============================================================================


def test_eval_reference_point():
    record = parse_record(run_cli(*EVAL_ARGS).stdout)
    assert float(record["p_i_analytic"]) == pytest.approx(0.9970513041, rel=1e-9)
    assert float(record["er2_analytic"]) == pytest.approx(9.39985603, rel=1e-8)


def test_eval_empty_network():
    record = parse_record(run_cli("eval", "--m", "2", "--lambda", "0").stdout)
    assert float(record["p_i_analytic"]) == 1.0


def test_eval_mrc_one_branch_matches_none_byte_for_byte():
    a = run_cli("eval", "--m", "2", "--M", "1", "--scheme", "mrc", "--lambda", "1e-4").stdout
    b = run_cli("eval", "--m", "2", "--scheme", "none", "--lambda", "1e-4").stdout
    assert a == b


def test_eval_db_flags_match_linear_flags():
    a = run_cli("eval", "--k-db", "10", "--psi-db", "10", "--m", "2", "--lambda", "1e-4").stdout
    b = run_cli("eval", "--k", "10", "--psi", "10", "--m", "2", "--lambda", "1e-4").stdout
    assert a == b


def test_eval_sigma_db_flag():
    a = run_cli("eval", "--sigma-db", "5", "--m", "2", "--lambda", "1e-4").stdout
    b = run_cli("eval", "--sigma", str(sigma_from_db(5.0)), "--m", "2", "--lambda", "1e-4").stdout
    assert a == b


def test_eval_exclusive_db_flags_rejected():
    proc = run_cli("eval", "--k", "10", "--k-db", "10", "--lambda", "1e-4", check=False)
    assert proc.returncode == 2


def test_eval_quadrature_output_agrees():
    record = parse_record(
        run_cli(*EVAL_ARGS, "--outputs", "analytic,quadrature").stdout
    )
    assert float(record["p_i_quadrature"]) == pytest.approx(
        float(record["p_i_analytic"]), rel=1e-6
    )


def test_eval_real_m_routes_through_quadrature():
    record = parse_record(
        run_cli("eval", "--m-real", "1.5", "--lambda", "1e-4").stdout
    )
    assert "p_i_analytic" not in record
    assert 0.0 < float(record["p_i_quadrature"]) < 1.0
    assert float(record["er2_quadrature"]) > 0.0


def test_eval_real_m_rejects_diversity():
    proc = run_cli("eval", "--m-real", "1.5", "--scheme", "mrc", "--M", "2",
                   "--lambda", "1e-4", check=False)
    assert proc.returncode == 2


def test_eval_real_m_checks_outputs(capsys):
    assert cli.main(["eval", "--m-real", "1.5", "--lambda", "1e-4", "--outputs", "bogus"]) == 2
    assert "unknown output kind 'bogus'" in capsys.readouterr().err


def test_eval_missing_lambda_exit_2():
    assert run_cli("eval", "--m", "2", check=False).returncode == 2


@pytest.mark.parametrize("density", ["-1", "nan", "inf"])
def test_eval_rejects_bad_density_exit_2(density):
    proc = run_cli("eval", "--m", "2", "--lambda", density, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "node density must be finite and >= 0" in proc.stderr


@pytest.mark.parametrize("argv, code, message", [
    (["eval", "--ptx", "inf", "--lambda", "1e-4"], 2, "ptx must be positive and finite"),
    (["eval", "--alpha", "inf", "--lambda", "1e-4"], 2, "alpha must be positive and finite"),
    (["eval", "--sigma", "nan", "--lambda", "1e-4"], 2, "sigma must be finite and >= 0"),
    (["eval", "--sigma", "100", "--lambda", "1e-4"], 3, "numerical failure"),
    (["invert", "--sigma", "100", "--target-pi", "0.5"], 3, "numerical failure"),
    (["eval", "--psi-db", "4000", "--lambda", "1e-4"], 2, "--psi-db 4000 overflows as a linear value"),
    (["eval", "--k-db", "4000", "--lambda", "1e-4"], 2, "--k-db 4000 overflows as a linear value"),
    (["invert", "--psi", "1e163", "--alpha", "1", "--target-pi", "0.5"], 3,
     "numerical failure: the minimum node density overflows"),
    (["invert", "--psi", "1e300", "--alpha", "0.5", "--target-pi", "0.5"], 3,
     "numerical failure: the minimum node density overflows"),
    # The shadowed grid's start index leaves int64 (--m-real has no closed form to fail first).
    (["eval", "--m-real", "1.5", "--sigma", "1e20", "--lambda", "1e-4"], 3,
     "numerical failure: the grid would start at t = -1.49e+21, beyond the integer range"),
    (["eval", "--psi", "1e300", "--sigma", "1e200", "--m-real", "0.7", "--lambda", "0"], 3,
     "numerical failure: the grid would start at t = -1.49e+201, beyond the integer range"),
    (["simulate", "--m", "2", "--lambda", "inf"], 2, "node density must be finite and >= 0"),
    (["simulate", "--m", "2", "--lambda", "-1"], 2, "node density must be finite and >= 0"),
    (["eval", "--alpha", "0.001", "--lambda", "1e-4"], 3,
     "numerical failure: E[R^2] is outside the float range at alpha = 0.001"),
    (["invert", "--alpha", "0.001", "--target-pi", "0.5"], 3,
     "numerical failure: E[R^2] is outside the float range at alpha = 0.001"),
    (["eval", "--alpha", "0.001", "--scheme", "sc", "--M", "2", "--lambda", "1e-4"], 3,
     "numerical failure: E[R^2] is outside the float range at alpha = 0.001"),
    (["simulate", "--m", "2", "--lambda", "1e-2", "--area", "inf"], 2,
     "area side must be positive and finite, got inf"),
    (["simulate", "--m", "2", "--lambda", "1e-2", "--area", "1e200"], 2,
     "area side 1e+200 m gives a non-finite expected node count"),
    # About 1e14 nodes: numpy refuses the 1.4 PiB position array at once.
    (["simulate", "--m", "2", "--lambda", "1", "--area", "1e7", "--runs", "2"], 3,
     "out of memory: Unable to allocate"),
    # 1e20 expected nodes, above what the Poisson sampler accepts.
    (["simulate", "--m", "2", "--lambda", "1", "--area", "1e10"], 2,
     "area side 1e+10 m at node density 1 gives 1e+20 expected nodes per replication, "
     "above the Poisson sampler's limit"),
], ids=["eval-ptx-inf", "eval-alpha-inf", "eval-sigma-nan", "eval-sigma-100", "invert-sigma-100",
        "eval-psi-db-4000", "eval-k-db-4000",
        "invert-subnormal-er2", "invert-zero-er2", "eval-m-real-sigma-1e20",
        "eval-m-real-sigma-1e200", "simulate-lambda-inf", "simulate-lambda--1",
        "eval-alpha-0.001", "invert-alpha-0.001", "eval-alpha-0.001-sc2", "simulate-area-inf",
        "simulate-area-1e200", "simulate-area-1e7-out-of-memory", "simulate-area-1e10-poisson"])
def test_out_of_domain_channel_exits_with_message(capsys, argv, code, message):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("branches", ["16", "2"])
def test_sc_at_m_200_meets_the_quadrature(branches):
    proc = run_cli("eval", "--m", "200", "--scheme", "sc", "--M", branches, "--lambda", "1e-4",
                   "--outputs", "analytic,quadrature", "--format", "json")
    record = json.loads(proc.stdout)
    assert record["er2_analytic"] == pytest.approx(record["er2_quadrature"], rel=1e-8)


def test_series_beyond_the_bound_exits_2_at_once(capsys):
    # Every route sums the Erlang series term by term, so one large integer
    # used to hang them all; the closed form and the laws share one check.
    bound = channel._MAX_SERIES_TERMS
    assert cli.main(["eval", "--m", str(bound + 1), "--lambda", "1e-4"]) == 2
    assert f"m*M = {bound + 1} series terms exceed the supported maximum {bound}" in (
        capsys.readouterr().err
    )
    start = time.perf_counter()
    assert cli.main(["sweep", "--variable", "m", "--grid", "1e300", "--lambda", "1e-4"]) == 3
    assert time.perf_counter() - start < 5.0
    assert "series terms exceed" in capsys.readouterr().err
    channel.make_success_fn(params(m=bound // 4), DiversityScheme.mrc(4))
    with pytest.raises(ValueError, match="series terms exceed"):
        channel.make_success_fn(params(m=bound // 4), DiversityScheme.sc(5))


_SCHEMES = pytest.mark.parametrize("scheme", [[], ["--scheme", "mrc", "--M", "2"],
                                               ["--scheme", "sc", "--M", "2"]],
                                   ids=["none", "mrc2", "sc2"])
_COMMANDS = pytest.mark.parametrize("command", [["eval", "--lambda", "1e-4"],
                                                ["invert", "--target-pi", "0.5"]],
                                    ids=["eval", "invert"])


@pytest.mark.parametrize("alpha, cause", [
    ("0.012", "theta^(-2/alpha) = 0.01^(-166.667) overflows"),
    ("0.02", "the Gamma series times theta^(-2/alpha) overflows"),
])
@_SCHEMES
@_COMMANDS
def test_er2_beyond_float_range_names_alpha(capsys, alpha, cause, scheme, command):
    # Just above the Gamma overflow E[R^2] itself leaves the float range:
    # neither an inf nor a bare errno message may come out.
    assert cli.main([command[0], "--alpha", alpha, *scheme, *command[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"nodeiso: numerical failure: E[R^2] is outside the float range at alpha = {alpha}: "
        f"{cause}\n"
    )


@pytest.mark.parametrize("alpha, sigma", [("4", "100"), ("0.05", "2")])
@_SCHEMES
@_COMMANDS
def test_shadow_factor_beyond_float_range_names_sigma_and_alpha(
    capsys, alpha, sigma, scheme, command
):
    argv = [command[0], "--alpha", alpha, "--sigma", sigma, *scheme, *command[1:]]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"nodeiso: numerical failure: E[R^2] is outside the float range at alpha = {alpha}, "
        f"sigma = {sigma}: the shadowing factor exp(2 sigma^2/alpha^2) overflows\n"
    )


_ALPHA_0_1_CAUSE = (
    "E[R^2] is outside the float range at alpha = 0.1: "
    "the Gamma series times theta^(-2/alpha) overflows"
)


@_SCHEMES
@_COMMANDS
def test_shadowed_er2_beyond_float_range_names_alpha(capsys, scheme, command):
    # A finite shadow factor (e^612.5) times a finite unshadowed E[R^2]
    # leaves the float range: no inf, zero density or nan may come out.
    argv = [command[0], "--alpha", "0.1", "--sigma", "1.75", *scheme, *command[1:]]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: numerical failure: {_ALPHA_0_1_CAUSE}\n"


@_SCHEMES
def test_sigma_sweep_fails_points_whose_er2_leaves_float_range(capsys, scheme):
    argv = ["sweep", "--variable", "sigma", "--grid", "1,1.75", "--alpha", "0.1",
            "--lambda", "1e-4", "--format", "json", *scheme]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert 0.0 <= rows[0]["p_i_analytic"] <= 1.0 and rows[0]["er2_analytic"] > 0.0
    assert rows[1]["p_i_analytic"] is None and rows[1]["er2_analytic"] is None
    assert captured.err == f"nodeiso: sweep point sigma=1.75 failed: {_ALPHA_0_1_CAUSE}\n"


# theta = m psi w / (k ptx) as a float product: 0, subnormal and inf; and
# k ptx as a float product 0, so that the quadrature takes ln(k ptx/w) as a sum.
_THETA_PROBES = pytest.mark.parametrize("channel", [
    ["--psi", "1e-200", "--w", "1e-200"],
    ["--psi", "1e-160", "--w", "1e-160"],
    ["--psi-db", "3000", "--w", "1e10"],
    ["--k", "1e-200", "--ptx", "1e-200"],
], ids=["theta-0", "theta-subnormal", "theta-inf", "budget-0"])


@_THETA_PROBES
@_SCHEMES
def test_closed_form_meets_quadrature_where_theta_leaves_the_normal_range(channel, scheme):
    proc = run_cli("eval", *channel, *scheme, "--lambda", "1e-4",
                   "--outputs", "analytic,quadrature", "--format", "json")
    record = json.loads(proc.stdout)
    assert record["er2_analytic"] == pytest.approx(record["er2_quadrature"], rel=1e-6)


def test_invert_where_theta_overflows():
    proc = run_cli("invert", "--psi-db", "3000", "--w", "1e10", "--target-pi", "0.5",
                   "--format", "json")
    record = json.loads(proc.stdout)
    assert record["lambda_min"] == pytest.approx(math.log(2) / (math.pi * 2.8025e-155), rel=1e-4)


@pytest.mark.parametrize("channel, alpha, cause", [
    # k ptx = inf, so the float theta is 0; its value 1e-617 gives theta^(-1/2) = 3.2e308.
    (["--ptx", "1e308", "--k", "1e308"], "4", "0^(-0.5)"),
    # m psi w and k ptx both underflow to 0, so the float quotient has no value; theta is 1e-200.
    (["--psi", "1e-300", "--w", "1e-300", "--k", "1e-200", "--ptx", "1e-200"], "1",
     "1e-200^(-2)"),
], ids=["theta-0", "theta-0-over-0"])
def test_theta_power_beyond_float_range_names_alpha(capsys, channel, alpha, cause):
    assert cli.main(["eval", *channel, "--alpha", alpha, "--lambda", "1e-4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"nodeiso: numerical failure: E[R^2] is outside the float range at alpha = {alpha}: "
        f"theta^(-2/alpha) = {cause} overflows\n"
    )


_ALPHA_UNDERFLOW_CAUSE = (
    f"E[R^2] is outside the float range at alpha = {1e-320:g}: 2/alpha overflows"
)


@pytest.mark.parametrize("command", [["eval", "--lambda", "1e-4"],
                                     ["invert", "--target-pi", "0.5"],
                                     ["simulate", "--lambda", "1e-4"]],
                         ids=["eval", "invert", "simulate"])
@pytest.mark.parametrize("sigma", ["0", "1"])
@_SCHEMES
def test_alpha_whose_inverse_overflows_exits_3_naming_it(capsys, command, sigma, scheme):
    argv = [command[0], "--alpha", "1e-320", "--sigma", sigma, *scheme, *command[1:]]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: numerical failure: {_ALPHA_UNDERFLOW_CAUSE}\n"


def test_alpha_sweep_fails_the_point_whose_inverse_overflows(capsys):
    argv = ["sweep", "--variable", "alpha", "--grid", "1e-320,4", "--lambda", "1e-4",
            "--format", "json"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert rows[0]["p_i_analytic"] is None and rows[0]["er2_analytic"] is None
    assert rows[1]["er2_analytic"] == pytest.approx(8.862269255, rel=1e-9)
    assert captured.err == (
        f"nodeiso: sweep point alpha={1e-320:g} failed: {_ALPHA_UNDERFLOW_CAUSE}\n"
    )


def modules_after(code, packages=("scipy",)):
    """The modules of packages that a fresh interpreter holds after running code."""
    prefixes = tuple(package + "." for package in packages)
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({prefixes!r}))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["eval", "--m", "2"],
    ["eval", "--format", "xml"],
    ["simulate", "--m", "2", "--lambda", "1e-5", "--runs", "20", "--seed", "1"],
], ids=["usage-error", "argparse-error", "degenerate-estimate"])
def test_module_entry_point_matches_the_runner(monkeypatch, argv):
    # Exit codes 2 and 3 reach the shell, and argparse's exit is reported.
    monkeypatch.setenv("COLUMNS", "80")  # the width at which the runner has argparse wrap usage
    proc = subprocess.run([sys.executable, "-m", "nodeiso", *argv], capture_output=True,
                          text=True)
    assert proc.returncode in (2, 3)
    expected = corpus.run(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        expected.returncode, expected.stdout, expected.stderr
    )


@pytest.mark.parametrize("module", ["nodeiso", "nodeiso.cli"])
def test_import_loads_no_numpy_or_scipy(module):
    loaded = modules_after(f"import {module}", ("numpy", "scipy", "nodeiso"))
    assert [m for m in loaded if not m.startswith("nodeiso")] == []
    # The imports between nodeiso's modules stay eager: bench/layers.py finds
    # these two in sys.modules after importing the CLI.
    assert {"nodeiso.quadrature", "nodeiso.simulator"} <= set(loaded)


def test_closed_form_routes_load_no_numpy():
    code = "\n".join([
        "from nodeiso import cli",
        "assert cli.main(['eval', '--m', '2', '--lambda', '1e-4']) == 0",
        "assert cli.main(['eval', '--m', '2', '--lambda', '1e-4', '--scheme', 'sc', '--M', '4',"
        " '--sigma', '2']) == 0",
        "assert cli.main(['invert', '--target-pi', '0.5']) == 0",
        "assert cli.main(['sweep', '--variable', 'sigma', '--grid', '0,1,2', '--lambda', '1e-4'])"
        " == 0",
    ])
    assert modules_after(code, ("numpy",)) == []


def test_only_simulate_loads_numpy_random():
    code = "\n".join([
        "import sys",
        "from nodeiso import cli",
        "assert cli.main(['eval', '--m', '2', '--lambda', '1e-4', '--outputs',"
        " 'analytic,quadrature']) == 0",
        "assert cli.main(['sweep', '--figure', '4']) == 0",
        "assert 'numpy' in sys.modules and 'numpy.random' not in sys.modules",
        "assert cli.main(['simulate', '--m', '2', '--lambda', '5e-3', '--runs', '5']) == 0",
    ])
    assert "numpy.random" in modules_after(code, ("numpy",))


def test_closed_form_quadrature_and_simulation_routes_leave_out_scipy():
    code = "\n".join([
        "from nodeiso import cli",
        "assert cli.main(['eval', '--m', '2', '--lambda', '1e-4']) == 0",
        "assert cli.main(['invert', '--m', '2', '--target-pi', '0.5']) == 0",
        "assert cli.main(['sweep', '--figure', '2', '--outputs', 'analytic,quadrature']) == 0",
        "assert cli.main(['simulate', '--m', '2', '--sigma', '2', '--lambda', '5e-3',"
        " '--runs', '5']) == 0",
    ])
    assert modules_after(code) == []


def test_real_severity_eval_loads_scipy_special():
    code = "\n".join([
        "from nodeiso import cli",
        "assert cli.main(['eval', '--m-real', '1.5', '--lambda', '1e-4',"
        " '--outputs', 'analytic,quadrature']) == 0",
    ])
    assert "scipy.special" in modules_after(code)


def test_eval_json_format():
    payload = json.loads(run_cli(*EVAL_ARGS, "--format", "json").stdout)
    assert set(payload) == {"p_i_analytic", "er2_analytic"}
    assert payload["p_i_analytic"] == pytest.approx(0.9970513041039797, rel=1e-12)


def test_eval_csv_format():
    header, body = parse_csv(run_cli(*EVAL_ARGS, "--format", "csv").stdout)
    assert header == ["p_i_analytic", "er2_analytic"]
    assert len(body) == 1


def test_eval_out_file(tmp_path):
    target = tmp_path / "report.txt"
    run_cli(*EVAL_ARGS, "--out", str(target))
    assert "p_i_analytic" in target.read_text()


def test_eval_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert cli.main([*EVAL_ARGS, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: error: cannot write {target}: No such file or directory\n"


# ============================================================================
#  config file
# ============================================================================


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=2\nlambda=1e-4\npsi-db=10\n# comment\n")
    a = run_cli("eval", "--config", str(cfg)).stdout
    b = run_cli("eval", "--m", "2", "--lambda", "1e-4", "--psi-db", "10").stdout
    assert a == b


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=4\nlambda=1e-3\n")
    a = run_cli("eval", "--config", str(cfg), "--m", "2", "--lambda", "1e-4").stdout
    b = run_cli("eval", "--m", "2", "--lambda", "1e-4").stdout
    assert a == b


def test_config_file_bad_key_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    assert run_cli("eval", "--config", str(cfg), "--lambda", "1e-4", check=False).returncode == 2


def test_config_file_values_checked_when_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=xml\nm=abc\n")
    argv = ["eval", "--config", str(cfg), "--format", "csv", "--m", "2", "--lambda", "1e-4"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: error: {cfg}:1: bad value for 'format': 'xml'\n"
    # Keys that eval has no flag for are still skipped unread.
    cfg.write_text("runs=abc\ntarget-pi=x\n")
    assert cli.main(["eval", "--config", str(cfg), "--m", "2", "--lambda", "1e-4"]) == 0


def test_config_file_bad_format_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=2\nformat=xml\n")
    assert cli.main(["eval", "--config", str(cfg), "--lambda", "1e-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: error: {cfg}:2: bad value for 'format': 'xml'\n"


@pytest.mark.parametrize("command, key, value", [
    (["eval"], "scheme", "bogus"),
    (["simulate", "--boundary", "bounded"], "boundary", "weird"),
], ids=["scheme", "boundary"])
def test_config_file_choices_checked_as_the_flag_checks_them(tmp_path, capsys, command, key,
                                                             value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert cli.main([*command, "--config", str(cfg), "--lambda", "1e-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: error: {cfg}:1: bad value for {key!r}: {value!r}\n"


CONFIG_KEYS = ("ptx", "w", "k", "k-db", "psi", "psi-db", "alpha", "sigma", "sigma-db", "m",
               "m-real", "scheme", "M", "format", "lambda", "outputs", "target-pi", "area",
               "boundary", "runs", "seed", "jobs")


@pytest.mark.parametrize("key", CONFIG_KEYS + ("config", "out", "export-topology", "figure",
                                               "variable", "grid"))
def test_config_keys_are_the_long_flags_that_carry_values(tmp_path, capsys, key):
    # sweep takes every config key; the other long flags are not keys.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=@\n")
    assert cli.main(["sweep", "--config", str(cfg), "--figure", "2"]) == 2
    unknown = f"nodeiso: error: {cfg}:1: unknown key {key!r}\n"
    assert (capsys.readouterr().err == unknown) == (key not in CONFIG_KEYS)


# ============================================================================
#  sweep
# ============================================================================


@pytest.mark.parametrize("figure", [2, 3, 4, 5, 6, 7])
def test_figure_presets_run_fast(figure):
    start = time.monotonic()
    proc = run_cli("sweep", "--figure", str(figure), "--format", "csv")
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    header, body = parse_csv(proc.stdout)
    assert body, "preset produced no rows"
    assert all(len(row) == len(header) for row in body)


def test_figure5_monotone_alpha():
    header, body = parse_csv(run_cli("sweep", "--figure", "5", "--format", "csv").stdout)
    i_alpha = header.index("alpha")
    i_pi = header.index("p_i_analytic")
    alphas = [float(r[i_alpha]) for r in body]
    pis = [float(r[i_pi]) for r in body]
    assert alphas[0] == 2.0 and alphas[-1] == 6.0
    assert all(b > a for a, b in zip(pis, pis[1:]))


def test_figure4_density_ratio_forced_by_spread_factor():
    header, body = parse_csv(run_cli("sweep", "--figure", "4", "--format", "csv").stdout)
    i_sigma = header.index("sigma")
    i_lam = header.index("lambda_min")
    lam0 = float(body[0][i_lam])
    for row in body:
        sigma, lam = float(row[i_sigma]), float(row[i_lam])
        assert lam / lam0 == pytest.approx(math.exp(-2 * sigma**2 / 16.0), rel=1e-9)


@pytest.mark.parametrize("argv, flags", [
    (["--figure", "5", "--lambda", "1e-3", "--m", "1"], "--m, --lambda"),
    (["--figure", "2", "--lambda", "1e-3"], "--lambda"),
    (["--figure", "2", "--sigma-db", "3"], "--sigma-db"),
    (["--figure", "3", "--m", "2", "--scheme", "none"], "--m, --scheme"),
    (["--figure", "4", "--alpha", "3"], "--alpha"),
    (["--figure", "6", "--M", "2", "--format", "csv"], "--M"),
    (["--figure", "7", "--sigma", "1"], "--sigma"),
])
def test_figure_preset_rejects_flags_it_sets(capsys, argv, flags):
    assert cli.main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: error: figure {argv[1]} sets {flags} itself\n"


@pytest.mark.parametrize("argv, config, flags", [
    (["--variable", "sigma", "--grid", "0,1", "--sigma", "2", "--lambda", "1e-4"], "", "--sigma"),
    (["--variable", "sigma", "--grid", "0,1", "--sigma-db", "3", "--lambda", "1e-4"], "",
     "--sigma-db"),
    (["--variable", "lambda", "--grid", "1e-4,2e-4", "--lambda", "5e-3"], "", "--lambda"),
    (["--variable", "alpha", "--grid", "2,3", "--alpha", "3", "--lambda", "1e-4"], "", "--alpha"),
    (["--variable", "M", "--grid", "1,2", "--scheme", "mrc", "--M", "2", "--lambda", "1e-4"], "",
     "--M"),
    (["--variable", "m", "--grid", "1,2"], "m=2\nlambda=1e-4\n", "--m"),
], ids=["sigma", "sigma-db", "lambda", "alpha", "M", "config-m"])
def test_custom_sweep_rejects_values_of_its_variable(tmp_path, capsys, argv, config, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert cli.main(["sweep", "--config", str(cfg), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: error: --variable {argv[1]} sets {flags} itself\n"


def test_figure_preset_rejects_config_values_it_sets(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=2\npsi=10\n")
    assert cli.main(["sweep", "--config", str(cfg), "--figure", "5"]) == 2
    assert capsys.readouterr().err == "nodeiso: error: figure 5 sets --m itself\n"


def test_figure_preset_keeps_flags_it_leaves_free(capsys):
    assert cli.main(["sweep", "--figure", "5", "--psi", "10", "--outputs", "analytic,quadrature",
                     "--format", "json"]) == 0
    assert cli.main(["sweep", "--figure", "4", "--target-pi", "0.5", "--k-db", "10"]) == 0
    assert cli.main(["sweep", "--figure", "4"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, ignored", [
    (["--variable", "sigma", "--grid", "0,1", "--target-pi", "0.9",
      "--outputs", "analytic,simulation"], "simulation"),
    (["--variable", "m", "--grid", "1,2", "--target-pi", "0.5", "--outputs", "quadrature"],
     "quadrature"),
    (["--figure", "4", "--outputs", "analytic,quadrature,simulation"], "quadrature,simulation"),
])
def test_sweep_inversion_rejects_other_outputs(capsys, argv, ignored):
    assert cli.main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nodeiso: error: the density inversion uses the closed form only; "
                            f"--outputs {ignored} does not apply\n")


def test_sweep_builds_one_link_mass_grid_per_channel(monkeypatch, capsys):
    def sweep(*argv):
        assert cli.main(["sweep", *argv, "--m", "2", "--outputs", "simulation", "--runs", "30",
                         "--seed", "3", "--format", "json"]) == 0
        return capsys.readouterr().out

    builds = count_link_mass_grids(monkeypatch)
    counted = sweep("--variable", "lambda", "--grid", "5e-3,1e-2,2e-2")
    assert len(builds) == 1
    builds.clear()
    sweep("--variable", "sigma", "--grid", "0,1", "--lambda", "5e-3")
    assert len(builds) == len(set(builds)) == 2
    # Kept grids give the rows that a grid built for each point gives.
    monkeypatch.undo()
    rows = json.loads(counted)
    for row in rows:
        cfg = simulator.SimConfig(params=params(m=2), scheme=DiversityScheme.no_diversity(),
                                  node_density=row["lambda"], runs=30, master_seed=3)
        assert simulator.run_monte_carlo(cfg).p_isolated == row["p_i_sim"]


def test_sweep_sc_diminishing_returns():
    header, body = parse_csv(
        run_cli(
            "sweep", "--variable", "M", "--grid", "1,2,3,4,5",
            "--scheme", "sc", "--m", "2", "--lambda", "1e-4", "--format", "csv",
        ).stdout
    )
    i_pi = header.index("p_i_analytic")
    pis = [float(r[i_pi]) for r in body]
    assert all(b < a for a, b in zip(pis, pis[1:]))
    drops = [a - b for a, b in zip(pis, pis[1:])]
    assert all(later < earlier for earlier, later in zip(drops, drops[1:]))


def test_sweep_quadrature_column_matches_analytic():
    header, body = parse_csv(
        run_cli(
            "sweep", "--variable", "sigma", "--grid", "0,1,2", "--m", "2",
            "--lambda", "1e-4", "--outputs", "analytic,quadrature", "--format", "csv",
        ).stdout
    )
    i_a = header.index("p_i_analytic")
    i_q = header.index("p_i_quadrature")
    for row in body:
        assert float(row[i_q]) == pytest.approx(float(row[i_a]), rel=1e-6)


def test_sweep_simulation_columns():
    header, body = parse_csv(
        run_cli(
            "sweep", "--variable", "lambda", "--grid", "5e-4,2e-3", "--m", "1",
            "--outputs", "analytic,simulation", "--runs", "250", "--seed", "9",
            "--format", "csv",
        ).stdout
    )
    for name in ("p_i_sim", "sim_stderr", "sim_ci_low", "sim_ci_high"):
        assert name in header
    i_a, i_s, i_e = header.index("p_i_analytic"), header.index("p_i_sim"), header.index("sim_stderr")
    for row in body:
        assert abs(float(row[i_s]) - float(row[i_a])) <= 4 * float(row[i_e])


@pytest.mark.parametrize("channel", [["--m", "2"], ["--m", "2", "--sigma", "4", "--scheme", "sc",
                                                  "--M", "2", "--boundary", "bounded"]],
                         ids=["m2", "sigma4-sc2-bounded"])
def test_simulate_matches_a_one_point_simulation_sweep(channel):
    campaign = [*channel, "--runs", "40", "--seed", "3", "--format", "csv"]
    header, body = parse_csv(run_cli("simulate", "--lambda", "5e-3", *campaign).stdout)
    simulated = dict(zip(header, body[0]))
    header, body = parse_csv(run_cli("sweep", "--variable", "lambda", "--grid", "5e-3",
                                     "--outputs", "simulation", *campaign).stdout)
    swept = dict(zip(header, body[0]))
    for name in ("p_i_sim", "sim_stderr", "sim_ci_low", "sim_ci_high", "p_i_analytic"):
        assert swept[name] == simulated[name]


def test_sweep_grid_must_increase():
    proc = run_cli("sweep", "--variable", "sigma", "--grid", "2,1", "--lambda", "1e-4",
                   check=False)
    assert proc.returncode == 2


def test_sweep_without_density_is_a_usage_error(capsys):
    assert cli.main(["sweep", "--variable", "sigma", "--grid", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "nodeiso: error: sweep requires --lambda when the density is not swept\n"
    )


def test_sweep_rows_show_the_grid_value_asked_for(capsys):
    assert cli.main(["sweep", "--variable", "m", "--grid", "1,2.5,4", "--lambda", "1e-4",
                     "--format", "csv"]) == 0
    header, body = parse_csv(capsys.readouterr().out)
    assert [row[0] for row in body] == ["1", "2.5", "4"]
    argv = ["sweep", "--variable", "M", "--grid", "1.5,2", "--scheme", "mrc", "--lambda", "1e-4",
            "--format", "json"]
    assert cli.main(argv) == 0
    assert [row["M"] for row in json.loads(capsys.readouterr().out)] == [1.5, 2]
    assert cli.main(["sweep", "--variable", "m", "--grid", "1e300", "--lambda", "1e-4",
                     "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)[0]["m"] == 1e300
    assert captured.err == (
        "nodeiso: sweep point m=1e+300 failed: m*M = 1.000e+300 series terms exceed the "
        f"supported maximum {channel._MAX_SERIES_TERMS}\n"
    )


def test_sweep_all_points_failing_exits_3():
    # Selection combining beyond the supported order fails at every point;
    # the rows are emitted with empty fields and the exit code is nonzero.
    proc = run_cli(
        "sweep", "--variable", "M", "--grid", "17,18", "--scheme", "sc",
        "--m", "2", "--lambda", "1e-4", "--format", "csv", check=False,
    )
    assert proc.returncode == 3
    assert "failed" in proc.stderr
    header, body = parse_csv(proc.stdout)
    assert len(body) == 2
    i_pi = header.index("p_i_analytic")
    assert all(row[i_pi] == "" for row in body)


def test_sweep_bad_density_fails_every_point():
    proc = run_cli("sweep", "--variable", "sigma", "--grid", "0,1", "--m", "2",
                   "--lambda", "-1", "--format", "json", check=False)
    assert proc.returncode == 3
    assert [row["p_i_analytic"] for row in json.loads(proc.stdout)] == [None, None]
    assert proc.stderr.count("node density must be finite and >= 0") == 2


def test_sweep_infinite_ptx_fails_every_point(capsys):
    assert cli.main(["sweep", "--figure", "2", "--ptx", "inf", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert all(row["p_i_analytic"] is None for row in json.loads(captured.out))
    assert captured.err.count("ptx must be positive and finite") == 63


def test_sweep_overflowing_point_fails_alone(capsys):
    assert cli.main(["sweep", "--variable", "sigma", "--grid", "1,100", "--m", "2",
                     "--lambda", "1e-4", "--format", "json"]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert rows[0]["p_i_analytic"] > 0 and rows[1]["p_i_analytic"] is None
    assert captured.err == (
        "nodeiso: sweep point sigma=100 failed: E[R^2] is outside the float range at "
        "alpha = 4, sigma = 100: the shadowing factor exp(2 sigma^2/alpha^2) overflows\n"
    )


def test_sweep_computes_each_channel_once_per_invocation(monkeypatch, capsys):
    calls = []

    def counting(params, scheme, m_real):
        calls.append((params, scheme))
        return cli.expected_r2(params, scheme)

    monkeypatch.setattr(cli, "_numeric_er2", counting)
    argv = ["sweep", "--figure", "2", "--outputs", "analytic,quadrature", "--format", "csv"]
    assert cli.main(argv) == 0
    assert [p.sigma for p, _ in calls] == [0.0, 2.0, 4.0]  # one per curve, not per point
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert len(calls) == 6  # a second sweep in the same process pays again
    assert capsys.readouterr().out == first


def test_sweep_evaluates_a_failing_channel_once(monkeypatch, capsys):
    calls = []

    def failing(params, scheme, m_real):
        calls.append((params, scheme))
        raise cli.QuadratureError("the grid would start at t = -inf")

    monkeypatch.setattr(cli, "_numeric_er2", failing)
    grid = ("0.001", "0.002", "0.003")
    assert cli.main(["sweep", "--variable", "lambda", "--grid", ",".join(grid), "--m", "2",
                     "--outputs", "analytic,quadrature", "--format", "csv"]) == 3
    assert len(calls) == 1
    assert capsys.readouterr().err == "".join(
        f"nodeiso: sweep point lambda={lam} failed: the grid would start at t = -inf\n"
        for lam in grid
    )


def test_sweep_m_variable_with_diversity_fixed():
    header, body = parse_csv(
        run_cli(
            "sweep", "--variable", "m", "--grid", "1,2,4", "--scheme", "mrc", "--M", "2",
            "--lambda", "1e-4", "--format", "csv",
        ).stdout
    )
    i_pi = header.index("p_i_analytic")
    pis = [float(r[i_pi]) for r in body]
    assert all(b < a for a, b in zip(pis, pis[1:]))


def test_sweep_json_lists_rows():
    payload = json.loads(
        run_cli("sweep", "--variable", "sigma", "--grid", "0,2", "--m", "2",
                "--lambda", "1e-4", "--format", "json").stdout
    )
    assert isinstance(payload, list) and len(payload) == 2
    assert set(payload[0]) == {"sigma", "p_i_analytic", "er2_analytic"}


# ============================================================================
#  invert
# ============================================================================


def test_invert_round_trip():
    record = parse_record(run_cli("invert", "--m", "2", "--target-pi", "0.01").stdout)
    assert float(record["lambda_min"]) == pytest.approx(0.15594613290898593, rel=1e-9)
    assert float(record["p_i_roundtrip"]) == pytest.approx(0.01, rel=1e-10)


@pytest.mark.parametrize("argv, target, points", [
    (["invert", "--m", "2", "--target-pi", "0.01"], 0.01, 1),
    (["sweep", "--figure", "4"], 0.99, 17),
], ids=["invert", "sweep-figure4"])
def test_invert_evaluates_the_closed_form_once(monkeypatch, capsys, argv, target, points):
    # Once per point: the inversion reuses the E[R^2] that the point prints.
    calls = []
    closed_form = analytic.expected_r2

    def counting(params, scheme):
        calls.append((params, scheme))
        return closed_form(params, scheme)

    monkeypatch.setattr(analytic, "expected_r2", counting)
    monkeypatch.setattr(cli, "expected_r2", counting)
    assert cli.main([*argv, "--format", "json"]) == 0
    assert len(calls) == points
    records = json.loads(capsys.readouterr().out)
    records = records if isinstance(records, list) else [records]
    assert [r["er2_analytic"] for r in records] == [closed_form(*call) for call in calls]
    for record in records:
        assert record["lambda_min"] == analytic._density_from_er2(target, record["er2_analytic"])
        assert record.get("p_i_roundtrip", target) == pytest.approx(target, rel=1e-12)


def test_invert_bad_target_exit_2():
    assert run_cli("invert", "--target-pi", "1.5", check=False).returncode == 2
    assert run_cli("invert", check=False).returncode == 2


# ============================================================================
#  simulate
# ============================================================================

SIM_ARGS = ["simulate", "--m", "2", "--lambda", "1e-3", "--runs", "150", "--seed", "42"]


def test_simulate_fixed_seed_reproducible():
    a = run_cli(*SIM_ARGS)
    b = run_cli(*SIM_ARGS)
    assert a.stdout == b.stdout


def test_simulate_parallel_matches_serial():
    a = run_cli(*SIM_ARGS, "--jobs", "1").stdout
    b = run_cli(*SIM_ARGS, "--jobs", "3").stdout
    assert a == b


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_rejected(capsys, jobs):
    message = f"jobs must be a positive integer, got {jobs}"
    cfg = simulator.SimConfig(params=params(m=2), scheme=DiversityScheme.no_diversity(),
                              node_density=1e-3, runs=5)
    with pytest.raises(ValueError, match=message):
        simulator.run_monte_carlo(cfg, n_jobs=jobs)
    assert cli.main([*SIM_ARGS, "--jobs", str(jobs)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"nodeiso: error: {message}\n")
    # A sweep fails each simulated point, as it does for --runs 0.
    assert cli.main(["sweep", "--variable", "lambda", "--grid", "1e-3,2e-3", "--m", "2",
                     "--outputs", "simulation", "--runs", "10", "--jobs", str(jobs)]) == 3
    assert capsys.readouterr().err == "".join(
        f"nodeiso: sweep point lambda={lam} failed: {message}\n" for lam in ("0.001", "0.002")
    )


def test_simulate_reports_both_estimators_and_reference():
    record = parse_record(run_cli(*SIM_ARGS).stdout)
    for key in (
        "p_i_sim", "sim_stderr", "sim_ci_low", "sim_ci_high", "p_i_any_isolated",
        "p_i_analytic", "z_score", "total_nodes", "total_isolated",
        "runs_executed", "runs_empty",
    ):
        assert key in record
    assert abs(float(record["z_score"])) <= 4.0


def test_simulate_sc_with_a_long_series_meets_its_closed_form():
    # The simulation takes no coefficient; the closed form sums rows of up
    # to 793 terms, many of whose beta_{h,l} underflow as floats.
    proc = run_cli("simulate", "--alpha", "2", "--m", "100", "--scheme", "sc", "--M", "8",
                   "--lambda", "5e-3", "--runs", "300", "--seed", "1", "--format", "json")
    assert abs(json.loads(proc.stdout)["z_score"]) <= 3.0


def test_simulate_degenerate_exit_3():
    proc = run_cli("simulate", "--m", "2", "--lambda", "1e-5", "--runs", "20",
                   "--seed", "1", check=False)
    assert proc.returncode == 3
    # One line per warning, without Python's location and source echo.
    assert "cli.py" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "nodeiso: warning: only 2 node samples across 20 runs; the standard error is unreliable",
        "nodeiso: degenerate estimate (fewer than 100 node samples)",
    ]


def test_simulate_warns_when_the_torus_cell_truncates_the_link_mass(capsys):
    # sigma = 4: the 100 m cell holds 89% of the link mass, so the simulation
    # estimates the cell's P_I, 0.3788, not the plane's 0.3359.
    args = ["--m", "2", "--sigma", "4", "--lambda", "5e-3", "--runs", "200", "--seed", "3"]
    assert cli.main(["simulate", *args]) == 0
    assert capsys.readouterr().err == (
        "nodeiso: warning: the 100 m torus cell holds 89.0% of the link mass; the simulation "
        "estimates its P_I = 0.3788, not the plane's 0.3359\n"
    )
    sweep = ["sweep", "--variable", "lambda", "--grid", "5e-3", "--outputs", "simulation"]
    assert cli.main([*sweep, *args[:4], "--runs", "200", "--seed", "3"]) == 0
    assert capsys.readouterr().err.startswith(
        "nodeiso: warning: sweep point lambda=0.005: the 100 m torus cell holds 89.0%"
    )
    assert cli.main(["simulate", *args, "--boundary", "bounded"]) == 0
    assert capsys.readouterr().err == ""


def test_simulate_builds_one_link_mass_grid(monkeypatch, capsys):
    builds = count_link_mass_grids(monkeypatch)
    args = ["--m", "2", "--sigma", "4", "--lambda", "5e-3", "--runs", "20", "--seed", "3"]
    assert cli.main(["simulate", *args]) == 0
    assert "torus cell" in capsys.readouterr().err
    assert len(builds) == 1


def test_simulate_unwritable_topology_export_exit_2(tmp_path):
    target = tmp_path / "missing" / "t.csv"
    proc = run_cli("simulate", "--m", "2", "--lambda", "5e-3", "--runs", "5",
                   "--export-topology", str(target), check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"nodeiso: error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "2", "--lambda", "5e-3", "--runs", "5", "--out", "BAD"],
    ["simulate", "--m", "2", "--lambda", "5e-3", "--runs", "5", "--export-topology", "BAD"],
    ["sweep", "--variable", "lambda", "--grid", "5e-3", "--outputs", "simulation", "--out", "BAD"],
], ids=["simulate-out", "simulate-export", "sweep-out"])
def test_unwritable_path_fails_before_any_replication(tmp_path, monkeypatch, capsys, argv):
    target = tmp_path / "missing" / "x.txt"

    def no_run(*args, **kwargs):
        raise AssertionError("replications ran before the path was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_run)
    assert cli.main([str(target) if a == "BAD" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nodeiso: error: cannot write {target}: No such file or directory\n"


def test_path_check_leaves_files_as_they_were(tmp_path, capsys):
    # The export path passes the check, then the --out path fails it.
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("old\n")
    bad = tmp_path / "missing" / "x.txt"
    for export in (kept, fresh):
        argv = [*SIM_ARGS, "--export-topology", str(export), "--out", str(bad)]
        assert cli.main(argv) == 2
    assert kept.read_text() == "old\n"
    assert not fresh.exists()


def test_simulate_topology_export(tmp_path):
    target = tmp_path / "topo.csv"
    run_cli(*SIM_ARGS, "--export-topology", str(target))
    lines = target.read_text().strip().split("\n")
    assert lines[0].startswith("# area_side=100 boundary=toroidal seed=42 run=0")
    for line in lines[1:]:
        x, y = map(float, line.split(","))
        assert 0.0 <= x < 100.0 and 0.0 <= y < 100.0


def test_simulate_bounded_flag():
    record = parse_record(run_cli(*SIM_ARGS, "--boundary", "bounded").stdout)
    assert int(record["total_nodes"]) > 0
