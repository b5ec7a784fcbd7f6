"""Command-line interface: outputs, exit codes, file round-trips."""

import argparse
import math

import pytest

from tailrisk import risk_core
from tailrisk.asymptotics import ExpansionCurveRow, expansion_curve
from tailrisk.cli import main
from tailrisk.distributions import Pareto, Sample
from tailrisk.montecarlo import render_csv
from tailrisk.risk_core import distortion_curves


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ exit codes

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_distribution_exits_2(capsys):
    code, out, err = run(capsys, ["risk", "--dist", "beta:a=2", "--alpha", "0.9"])
    assert code == 2
    assert err.startswith("error: --dist:")


def test_out_of_range_level_exits_2(capsys):
    code, _, err = run(capsys, ["risk", "--dist", "exp", "--alpha", "1.5"])
    assert code == 2 and "--alpha" in err
    code, _, err = run(capsys, ["risk", "--dist", "exp", "--alpha", "0.3"])
    assert code == 2 and "expectile level" in err
    # es levels only need (0, 1)
    code, _, _ = run(capsys, ["risk", "--dist", "exp", "--alpha", "0.3",
                              "--measure", "es"])
    assert code == 0


def test_expectile_level_error_shows_value_and_cap(capsys):
    # the value is printed in full and the bound is the real cap 1 - 1e-12
    code, out, err = run(capsys, ["risk", "--dist", "pareto:a=2.1",
                                  "--alpha", "0.999999999999"])
    assert (code, out) == (2, "")
    assert err == ("error: --alpha: expectile level must lie in [0.5, 1 - 1e-12),"
                   " got 0.999999999999\n")


def test_computation_failure_exits_1(capsys):
    # valid input, but beta* has no answer: every ES level of a constant
    # loss reproduces its expectile
    code, out, err = run(capsys, ["beta-star", "--dist", "twopoint:x1=1,x2=1,p=0.5",
                                  "--alpha", "0.9"])
    assert code == 1 and out == ""
    assert "beta_star is undefined for a constant loss" in err


# ------------------------------------------------------------------ risk

def test_expectile_at_half_is_the_mean(capsys):
    code, out, _ = run(capsys, ["risk", "--dist", "exp", "--alpha", "0.5"])
    assert code == 0
    assert "expectile[exp] alpha=0.5 = 1.0000" in out
    assert "beta*" in out


@pytest.fixture
def newton_calls(monkeypatch):
    """The level of every ``risk_core._newton_root`` call the test makes."""
    calls = []
    solve = risk_core._newton_root

    def counting_solve(*args):
        calls.append(args[1])
        return solve(*args)

    monkeypatch.setattr(risk_core, "_newton_root", counting_solve)
    return calls


def test_risk_expectile_solves_its_root_once(newton_calls, capsys):
    code, out, _ = run(capsys, ["risk", "--dist", "student:nu=2.3", "--alpha", "0.99"])
    assert code == 0 and out.startswith("expectile[student:nu=2.3] alpha=0.99 = ")
    assert newton_calls == [0.99]


def test_beta_star_solves_its_root_once(newton_calls, capsys):
    for spec in ("pareto:a=2.1", "student:nu=2.3"):
        code, out, _ = run(capsys, ["beta-star", "--dist", spec, "--alpha", "0.99"])
        assert code == 0 and "reconstruction at point = " in out
    assert newton_calls == [0.99, 0.99]


def test_es_and_var_closed_forms(capsys):
    code, out, _ = run(capsys, ["risk", "--dist", "exp", "--alpha", "0.9",
                                "--measure", "es", "--check"])
    assert code == 0
    assert f"= {1.0 - math.log(0.1):.4f}" in out
    code, out, _ = run(capsys, ["risk", "--dist", "exp", "--alpha", "0.9",
                                "--measure", "var"])
    assert code == 0
    assert f"= {-math.log(0.1):.4f}" in out


def test_bounds_bracket_the_expectile(capsys):
    code, out, _ = run(capsys, ["bounds", "--dist", "pareto:a=2", "--alpha", "0.9"])
    assert code == 0
    # sqrt(alpha(1-alpha))/(1-alpha) = 3 for a=2 at alpha=0.9
    assert "expectile          = 3.0000" in out
    assert "es_cap             = 5.0000" in out


def test_beta_star_reconstruction_agrees(capsys):
    code, out, _ = run(capsys, ["beta-star", "--dist", "exp", "--alpha", "0.9"])
    assert code == 0
    lines = out.splitlines()
    e = float(lines[0].rsplit("=", 1)[1])
    recon = float(lines[2].rsplit("=", 1)[1])
    assert abs(e - recon) < 5e-4


# ------------------------------------------------------------ allocation

PORTFOLIO = "0,0\n0,1\n1,0\n3,3\n"


def test_allocate_text_output(tmp_path, capsys):
    path = tmp_path / "scen.csv"
    path.write_text(PORTFOLIO)
    code, out, _ = run(capsys, ["allocate", "--csv", str(path), "--alpha", "0.7"])
    assert code == 0
    assert "component 1: 1.5000" in out
    assert "component 2: 1.5000" in out
    assert "sum = 3.0000" in out


def test_allocate_csv_output(tmp_path, capsys):
    path = tmp_path / "scen.csv"
    path.write_text(PORTFOLIO)
    dest = tmp_path / "contrib.csv"
    code, out, _ = run(capsys, ["allocate", "--csv", str(path), "--alpha", "0.7",
                                "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert dest.read_text() == "component,contribution\n1,1.5\n2,1.5\n"


@pytest.mark.parametrize("out", [False, True])
def test_allocate_solves_the_portfolio_expectile_once(tmp_path, capsys, monkeypatch, out):
    # the summary line reuses the root the contributions allocate
    path = tmp_path / "scen.csv"
    path.write_text(PORTFOLIO)
    calls = []
    segment_root = risk_core._segment_root

    def counted(x, suffix, n, total, alpha):
        calls.append(alpha)
        return segment_root(x, suffix, n, total, alpha)

    # the portfolio solve and a Sample solve both reach it through risk_core
    monkeypatch.setattr(risk_core, "_segment_root", counted)
    argv = ["allocate", "--csv", str(path), "--alpha", "0.95"]
    if out:
        argv += ["--out", str(tmp_path / "contrib.csv")]
    code, stdout, _ = run(capsys, argv)
    assert (code, calls) == (0, [0.95])
    assert stdout == ("" if out else
                      "expectile contributions at alpha=0.95 over 4 scenarios:\n"
                      "  component 1: 2.6364\n"
                      "  component 2: 2.6364\n"
                      "  sum = 5.2727 (portfolio expectile = 5.2727)\n")


def test_allocate_es_allocates_the_portfolio_es_on_ties(tmp_path, capsys):
    # the 0.9-quantile ties the largest total: the atom carries the tail
    path = tmp_path / "scen.csv"
    path.write_text("1,1\n1,1\n2,2\n")
    code, out, err = run(capsys, ["allocate", "--csv", str(path), "--alpha", "0.9",
                                  "--measure", "es"])
    assert (code, err) == (0, "")
    assert out == ("es contributions at alpha=0.9 over 3 scenarios:\n"
                   "  component 1: 2.0000\n"
                   "  component 2: 2.0000\n"
                   "  sum = 4.0000 (portfolio es = 4.0000)\n")


CONTINUOUS = ("c1,c2,c3\n"
              "7.7537,-0.0759,-0.0736\n0.1396,-0.1631,0.7211\n0.2667,-0.0359,0.7978\n"
              "0.8432,-0.1647,-0.1208\n0.5838,1.8774,0.3929\n-0.1782,-0.0013,-0.1391\n"
              "-0.0696,0.0308,0.9922\n-0.1177,-0.089,-0.1813\n3.0898,0.0367,-0.1261\n"
              "-0.0285,1.1179,-0.1793\n")


@pytest.mark.parametrize("alpha, want", [
    ("0.6", "component,contribution\n1,2.9235\n2,0.450575\n3,0.24775\n"),
    ("0.8", "component,contribution\n1,5.42175\n2,-0.0196\n3,-0.09985\n"),
    ("0.9", "component,contribution\n1,7.7537\n2,-0.0759\n3,-0.0736\n"),
])
def test_allocate_es_out_is_pinned_when_n_alpha_is_an_integer(tmp_path, capsys, alpha, want):
    # no total ties q and the tail holds whole scenarios: the mean over
    # {L > q}, byte for byte as before the atom got its fractional weight
    path = tmp_path / "scen.csv"
    path.write_text(CONTINUOUS)
    dest = tmp_path / "contrib.csv"
    code, out, _ = run(capsys, ["allocate", "--csv", str(path), "--alpha", alpha,
                                "--measure", "es", "--out", str(dest)])
    assert (code, out) == (0, "")
    assert dest.read_text() == want


def test_allocate_es_summary_builds_no_sample(tmp_path, capsys, monkeypatch):
    # the portfolio ES comes from the selection es_euler already made
    def refuse(self, x):
        raise AssertionError("allocate built a Sample")

    monkeypatch.setattr(Sample, "_set_sorted", refuse)
    path = tmp_path / "scen.csv"
    path.write_text(PORTFOLIO)
    code, out, err = run(capsys, ["allocate", "--csv", str(path), "--alpha", "0.7",
                                  "--measure", "es"])
    assert (code, err) == (0, "")
    assert out == ("es contributions at alpha=0.7 over 4 scenarios:\n"
                   "  component 1: 2.5833\n"
                   "  component 2: 2.5833\n"
                   "  sum = 5.1667 (portfolio es = 5.1667)\n")


def test_allocate_rejects_bad_csv(tmp_path, capsys):
    path = tmp_path / "scen.csv"
    path.write_text("0,0\n1\n")
    code, _, err = run(capsys, ["allocate", "--csv", str(path), "--alpha", "0.7"])
    assert code == 2 and "ragged" in err
    path.write_text("0,0\n1,,2\n")
    code, _, err = run(capsys, ["allocate", "--csv", str(path), "--alpha", "0.7"])
    assert code == 2 and "--csv:" in err and "empty cell at line 2" in err
    code, _, err = run(capsys, ["allocate", "--csv", str(tmp_path / "nope.csv"),
                                "--alpha", "0.7"])
    assert code == 2 and "--csv:" in err


# ------------------------------------------------------------ sample-size

def test_sample_size_default_density_label(capsys):
    code, out, _ = run(capsys, ["sample-size", "--tail", "poly:q=3,s=2.5",
                                "--gamma", "0.05", "--eps", "0.1", "--alpha", "0.99"])
    assert code == 0
    assert "delta_alpha=1, default" in out
    assert "n_es        = 7368063" in out


def test_sample_size_density_from_model(capsys):
    code, out, _ = run(capsys, ["sample-size", "--tail", "poly:q=2.05,s=2.01",
                                "--gamma", "0.05", "--eps", "0.1", "--alpha", "0.99",
                                "--dist", "pareto:a=2.1"])
    assert code == 0
    assert "pareto:a=2.1 density at q+1" in out


def test_sample_size_grid_needs_model(capsys):
    code, _, err = run(capsys, ["sample-size", "--tail", "poly:q=3,s=2.5",
                                "--gamma", "0.05", "--eps", "0.1",
                                "--alphas", "0.9,0.99"])
    assert code == 2 and "needs --dist" in err


def test_sample_size_grid_csv(capsys):
    code, out, _ = run(capsys, ["sample-size", "--tail", "poly:q=2.05,s=2.01",
                                "--gamma", "0.05", "--eps", "0.1",
                                "--alphas", "0.9,0.99", "--dist", "pareto:a=2.1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("alpha,n_var,n_es,n_expectile,ratio_es_var")
    assert len(lines) == 3


def test_sample_size_eps_validity(capsys):
    code, _, err = run(capsys, ["sample-size", "--tail", "poly:q=3,s=2.5",
                                "--gamma", "0.05", "--eps", "-1", "--alpha", "0.9"])
    assert code == 2 and "--eps" in err
    # eps beyond alpha/(1-alpha) fails the threshold validity window
    code, _, err = run(capsys, ["sample-size", "--tail", "poly:q=3,s=2.5",
                                "--gamma", "0.05", "--eps", "10", "--alpha", "0.9"])
    assert code == 2 and "alpha/(1-alpha)" in err


# ----------------------------------------------------------------- table

TABLE_ARGS = ["table", "--dist", "pareto:a=2.1",
              "--alphas", "0.983,0.987,0.991,0.995,0.999",
              "--ns", "100", "--seed", "1"]


def test_table_theoretical_column(capsys):
    code, out, _ = run(capsys, TABLE_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,theo_ratio,emp_ratio_1e2,err_pct_1e2"
    theo = [float(line.split(",")[1]) for line in lines[1:]]
    for got, cell in zip(theo, (0.5307, 0.5273, 0.5231, 0.5177, 0.5086)):
        assert abs(got - cell) <= 5e-5


def test_table_out_file_roundtrip(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    code, out, _ = run(capsys, TABLE_ARGS + ["--out", str(dest)])
    assert code == 0 and out == ""
    code, direct, _ = run(capsys, TABLE_ARGS)
    assert dest.read_text() == direct


@pytest.mark.parametrize("argv, fragment", [
    (["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05", "--eps", "0.1",
      "--alpha", "0.9", "--dist", "twopoint:x1=0,x2=1,p=0.5"], "has no density"),
    (["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05", "--eps", "0.1",
      "--alpha", "0.9", "--dist", "uniform"], "density vanishes"),
    (["table", "--dist", "exp", "--alphas", "0.9", "--ns", "10",
      "--replications", "0"], "replications"),
    (["asympt", "--dist", "uniform", "--alpha", "0.99"], "--order: "),
    (["figure", "--kind", "expansion", "--dist", "pareto:a=0.9"], "--dist: "),
    (["figure", "--kind", "expansion", "--dist", "student:nu=0.9"], "--dist: "),
    (["figure", "--kind", "expansion", "--dist", "power:a=-1"], "--dist: "),
    (["figure", "--kind", "expansion", "--dist", "power:a=1"], "--dist: "),
    (["wasserstein", "--dist", "exp", "--n", "200", "--seed", "-3"],
     "--seed: must be >= 0, got -3"),
], ids=["no-density", "density-vanishes", "zero-replications", "second-order-missing",
        "pareto-infinite-mean", "student-infinite-mean", "power-negative-shape",
        "power-uniform-shape", "wasserstein-negative-seed"])
def test_invalid_model_inputs_exit_2(capsys, argv, fragment):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and fragment in err


def test_table_validation(capsys):
    code, _, err = run(capsys, ["table", "--dist", "exp", "--alphas", "0.9,x",
                                "--ns", "100"])
    assert code == 2 and "non-numeric" in err
    code, _, err = run(capsys, ["table", "--dist", "exp", "--alphas", "0.9",
                                "--ns", "100.5"])
    assert code == 2 and "positive integers" in err


# ---------------------------------------------------------------- asympt

def test_asympt_gumbel_class_states_its_relation(capsys):
    code, out, _ = run(capsys, ["asympt", "--dist", "exp", "--alpha", "0.99"])
    assert code == 0
    assert "Gumbel-type" in out and "equivalent" in out


def test_asympt_frechet_ratio(capsys):
    code, out, _ = run(capsys, ["asympt", "--dist", "pareto:a=2.3",
                                "--alpha", "0.995"])
    assert code == 0
    assert "frechet-type tail" in out
    assert "centered expectile/ES ratio" in out
    assert "|error|" in out


def test_asympt_weibull_first_order(capsys):
    code, out, _ = run(capsys, ["asympt", "--dist", "uniform", "--alpha", "0.99",
                                "--order", "1"])
    assert code == 0
    assert "weibull-type tail" in out
    assert "endpoint gap ratio" in out


def test_asympt_beta_star_target(capsys):
    code, out, _ = run(capsys, ["asympt", "--dist", "pareto:a=2", "--alpha", "0.999",
                                "--target", "beta-star"])
    assert code == 0
    assert "level ratio (1-beta*)/(1-alpha)" in out


@pytest.mark.parametrize("argv, want", [
    (["--dist", "pareto:a=2.3", "--alpha", "0.995"],
     "pareto:a=2.3: frechet-type tail\n"
     "target: centered expectile/ES ratio at alpha=0.995\n"
     "order 2: leading 0.5021, correction -0.0147, value 0.4947\n"
     "exact 0.4978, |error| 3.11e-03\n"),
    (["--dist", "student:nu=2.3", "--alpha", "0.999", "--target", "beta-star"],
     "student:nu=2.3: frechet-type tail\n"
     "target: level ratio (1-beta*)/(1-alpha) at alpha=0.999\n"
     "order 2: leading 1.3026, correction -0.0058, value 1.2950\n"
     "exact 1.2951, |error| 7.59e-05\n"),
    (["--dist", "uniform", "--alpha", "0.99", "--target", "beta-star"],
     "uniform: weibull-type tail\n"
     "target: level ratio (1-beta*)/(1-alpha) at alpha=0.99\n"
     "leading-order value 10.0000\n"
     "exact 9.1325, |error| 8.67e-01\n"),
    (["--dist", "power:a=1.1", "--alpha", "0.99"],
     "power:a=1.1: weibull-type tail\n"
     "target: endpoint gap ratio (xhat-ES)/(xhat-e) at alpha=0.99\n"
     "order 2: leading 0.0484, correction 0.0962, value 0.0530\n"
     "exact 0.0533, |error| 2.91e-04\n"),
], ids=["pareto-ratio", "student-beta-star", "uniform-beta-star", "power-ratio"])
def test_asympt_full_stdout(capsys, argv, want):
    code, out, err = run(capsys, ["asympt"] + argv)
    assert (code, out, err) == (0, want, "")


# ---------------------------------------------------------------- figure

def test_figure_distortion_grid(capsys):
    code, out, _ = run(capsys, ["figure", "--kind", "distortion", "--points", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,phi,phi_mix"
    assert len(lines) == 6
    # the distortion has no law: --dist, even an invalid one, is not read
    assert run(capsys, ["figure", "--kind", "distortion", "--points", "5",
                        "--dist", "pareto:a=0.5"]) == (0, out, "")


def test_figure_distortion_level_is_the_expectile_level(capsys):
    # 0.5 is an expectile level; past the cap is an input error, not a
    # computation failure
    code, out, err = run(capsys, ["figure", "--kind", "distortion", "--alpha", "0.5",
                                  "--points", "3"])
    assert (code, err) == (0, "")
    t, phi, mix = distortion_curves(0.5, 3)
    assert out == render_csv(["t", "phi", "phi_mix"], list(zip(t, phi, mix)))
    code, out, err = run(capsys, ["figure", "--kind", "distortion",
                                  "--alpha", "0.9999999999999"])
    assert (code, out) == (2, "")
    assert err.startswith("error: --alpha: expectile level must lie in [0.5, 1 - 1e-12)")


def test_figure_expansion_requires_a_law(capsys):
    code, out, err = run(capsys, ["figure", "--kind", "expansion"])
    assert (code, out, err) == (2, "", "error: --dist: required for kind expansion\n")


def test_figure_level_window_must_be_ordered(capsys):
    code, _, err = run(capsys, ["figure", "--kind", "expansion", "--dist", "pareto:a=2.1",
                                "--alpha-min", "0.99", "--alpha-max", "0.95"])
    assert code == 2 and "below" in err


def test_figure_level_window_takes_the_expectile_levels(capsys):
    # 0.5 is an expectile level, as for expansion_curve; past the cap is an
    # input error, not a computation failure
    code, out, err = run(capsys, ["figure", "--kind", "expansion", "--dist", "pareto:a=2.1",
                                  "--alpha-min", "0.5", "--alpha-max", "0.9", "--points", "3"])
    assert (code, err) == (0, "")
    rows = expansion_curve(Pareto(2.1), [0.5, 0.7, 0.9])
    assert out == render_csv(ExpansionCurveRow._fields, rows)
    code, out, err = run(capsys, ["figure", "--kind", "expansion", "--dist", "pareto:a=2.1",
                                  "--alpha-max", "0.9999999999999"])
    assert (code, out) == (2, "")
    assert err.startswith("error: --alpha-max: expectile level must lie in [0.5, 1 - 1e-12)")


def test_figure_pareto_curves(capsys):
    code, out, _ = run(capsys, ["figure", "--kind", "expansion", "--dist", "pareto:a=2.1",
                                "--points", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,exact,first_order,second_order"
    assert len(lines) == 4


# ----------------------------------------------------------- wasserstein

def test_wasserstein_report(capsys):
    code, out, _ = run(capsys, ["wasserstein", "--dist", "exp", "--n", "200"])
    assert code == 0
    assert out == (
        "w(sample n=200, exp) exact = 0.0519974\n"
        "es deviation at alpha=0.99: 0.640517 <= bound 5.19974\n"
        "expectile deviation at alpha=0.99: 0.178644 <= bound 5.14774\n"
    )
    # the quadrature estimate and its --grid option are gone
    code, out, _ = run(capsys, ["wasserstein", "--dist", "exp", "--n", "200", "--grid", "2000"])
    assert code == 2 and out == ""


def test_wasserstein_report_heavy_tailed_large_sample(capsys):
    code, out, _ = run(capsys, ["wasserstein", "--dist", "student:nu=2.3",
                                "--n", "100000", "--seed", "1"])
    assert code == 0
    assert out == (
        "w(sample n=100000, student:nu=2.3) exact = 0.0167633\n"
        "es deviation at alpha=0.99: 0.479234 <= bound 1.67633\n"
        "expectile deviation at alpha=0.99: 0.214499 <= bound 1.65957\n"
    )


# ---------------------------------------------------------- parser reuse

def test_main_builds_no_parser_after_the_first_call(monkeypatch, capsys):
    assert main(["risk", "--dist", "exp", "--alpha", "0.9"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["bounds", "--dist", "pareto:a=2", "--alpha", "0.9"],
                 ["beta-star", "--dist", "exp", "--alpha", "0.9"],
                 ["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05",
                  "--eps", "0.1", "--alpha", "0.99"]):
        assert main(argv) == 0
    assert built == []


OUT = "<out>"
SAMPLE_SIZE_ARGS = ["sample-size", "--tail", "poly:q=2.05,s=2.01", "--gamma", "0.05",
                    "--eps", "0.1"]


@pytest.mark.parametrize("earlier, earlier_code, later", [
    (["bounds", "--dist", "pareto:a=2", "--alpha", "0.9", "--beta", "0.8"], 0,
     ["bounds", "--dist", "pareto:a=2", "--alpha", "0.9"]),
    (TABLE_ARGS + ["--out", OUT], 0, TABLE_ARGS),
    (SAMPLE_SIZE_ARGS + ["--alphas", "0.9,0.99", "--dist", "pareto:a=2.1"], 0,
     SAMPLE_SIZE_ARGS + ["--alpha", "0.99"]),
    (["risk", "--dist", "exp"], 2, ["risk", "--dist", "exp", "--alpha", "0.9"]),
], ids=["beta-then-default", "out-then-stdout", "grid-then-single-level",
        "usage-error-then-valid"])
def test_repeated_main_calls_share_no_state(tmp_path, capsys, earlier, earlier_code, later):
    # an option set by one call must not leak into a later call that omits it:
    # the later call prints what it printed when made first
    dest = tmp_path / "out.csv"
    earlier = [str(dest) if a == OUT else a for a in earlier]
    want = run(capsys, later)
    assert want[0] == 0 and want[1] and want[2] == ""
    code, out, err = run(capsys, earlier)
    assert code == earlier_code
    assert (out == "") == ("--out" in earlier or earlier_code != 0)
    assert run(capsys, later) == want
    if dest.exists():
        assert dest.read_text() == want[1]


# ---------------------------------------------------------------- golden

# Exact (exit code, stdout, stderr) of representative command lines: every
# subcommand in its text and CSV forms, and the exit-2 (bad input) and
# exit-1 (computation failure) paths.  "<csv>", "<ragged>" and "<out>"
# stand for files in a temporary directory, and "<missing>" for a file in a
# directory that does not exist; for a command with --out the pinned stdout
# is the file it writes, and nothing reaches stdout.
GOLDEN = [
    pytest.param(
        ["risk", "--dist", "pareto:a=2.1", "--alpha", "0.99"], 0,
        "expectile[pareto:a=2.1] alpha=0.99 = 8.4448\n"
        "beta* interval [0.9910, 0.9910], point 0.9910\n",
        "", id="risk-expectile"),
    pytest.param(
        ["risk", "--dist", "exp", "--alpha", "0.9", "--measure", "es", "--check"], 0,
        "es[exp] alpha=0.9 = 3.3026\n",
        "", id="risk-es-check"),
    pytest.param(
        ["risk", "--dist", "twopoint:x1=0,x2=1,p=0.999", "--alpha", "0.25", "--measure", "es",
         "--check"], 0,
        "es[twopoint:x1=0,x2=1,p=0.999] alpha=0.25 = 0.0013\n",
        "", id="risk-es-check-two-point"),
    pytest.param(
        ["risk", "--dist", "student:nu=2.3", "--alpha", "0.9999", "--measure", "es", "--check"], 1,
        "",
        "error: expected-shortfall cross-check at alpha=0.9999: the quadrature cannot resolve"
        " 1e-09 x terms 78.6267: its error estimate 3.22e-07 covers the miss between"
        " 78.62668528428003 and its reference 78.62668510316324\n",
        id="risk-es-check-unresolved-exit1"),
    pytest.param(
        ["risk", "--dist", "student:nu=2.3", "--alpha", "0.99", "--measure", "var"], 0,
        "var[student:nu=2.3] alpha=0.99 = 5.8539\n",
        "", id="risk-var"),
    pytest.param(
        ["risk", "--dist", "exp", "--alpha", "1.5"], 2,
        "",
        "error: --alpha: expectile level must lie in [0.5, 1 - 1e-12), got 1.5\n",
        id="risk-level-exit2"),
    pytest.param(
        ["risk", "--dist", "exp", "--alpha", "1.5", "--measure", "es"], 2,
        "",
        "error: --alpha: must lie in (0, 1), got 1.5\n", id="risk-es-level-exit2"),
    pytest.param(
        ["risk", "--dist", "exp", "--alpha", "0.9", "--out", "<missing>"], 1,
        "",
        "error: --out: [Errno 2] No such file or directory: '<missing>'\n",
        id="out-missing-directory-exit1"),
    pytest.param(
        ["risk", "--dist", "pareto:a=2,A=3", "--alpha", "0.99"], 2,
        "",
        "error: --dist: duplicate distribution parameter 'a'\n", id="risk-repeated-key-exit2"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=3", "--gamma", "0.05", "--eps", "0.1"], 2,
        "",
        "error: --tail: tail class 'poly' needs parameters, e.g. 'poly:q=3,s=2.5'"
        " (missing parameter(s) s)\n", id="sample-size-missing-key-exit2"),
    pytest.param(
        ["beta-star", "--dist", "exp", "--alpha", "0.9"], 0,
        "expectile[exp] alpha=0.9 = 2.0401\n"
        "beta* interval [0.8700, 0.8700], point 0.8700\n"
        "reconstruction at point = 2.0401\n",
        "", id="beta-star"),
    pytest.param(
        ["beta-star", "--dist", "twopoint:x1=1,x2=1,p=0.5", "--alpha", "0.9"], 1,
        "",
        "error: beta_star is undefined for a constant loss: the expectile equals the constant "
        "and every ES level reproduces it\n", id="beta-star-constant-exit1"),
    pytest.param(
        ["bounds", "--dist", "pareto:a=2", "--alpha", "0.9", "--beta", "0.8"], 0,
        "lower(beta=0.8)  = 2.5213\n"
        "expectile          = 3.0000\n"
        "upper              = 4.8440\n"
        "es_cap             = 5.0000\n",
        "", id="bounds"),
    pytest.param(
        ["allocate", "--csv", "<csv>", "--alpha", "0.95"], 0,
        "expectile contributions at alpha=0.95 over 4 scenarios:\n"
        "  component 1: 2.6364\n"
        "  component 2: 2.6364\n"
        "  sum = 5.2727 (portfolio expectile = 5.2727)\n",
        "", id="allocate-text"),
    pytest.param(
        ["allocate", "--csv", "<csv>", "--alpha", "0.7", "--measure", "es", "--out", "<out>"],
        0,
        "component,contribution\n"
        "1,2.58333333333\n"
        "2,2.58333333333\n",
        "", id="allocate-csv"),
    pytest.param(
        ["allocate", "--csv", "<ragged>", "--alpha", "0.7"], 2,
        "",
        "error: --csv: ragged rows in <ragged>: expected 2 columns\n",
        id="allocate-ragged-exit2"),
    pytest.param(
        ["asympt", "--dist", "pareto:a=2.3", "--alpha", "0.995"], 0,
        "pareto:a=2.3: frechet-type tail\n"
        "target: centered expectile/ES ratio at alpha=0.995\n"
        "order 2: leading 0.5021, correction -0.0147, value 0.4947\n"
        "exact 0.4978, |error| 3.11e-03\n",
        "", id="asympt-ratio-order2"),
    pytest.param(
        ["asympt", "--dist", "student:nu=2.3", "--alpha", "0.999", "--order", "1"], 0,
        "student:nu=2.3: frechet-type tail\n"
        "target: centered expectile/ES ratio at alpha=0.999\n"
        "order 1: leading 0.5043, correction 0.0000, value 0.5043\n"
        "exact 0.5037, |error| 6.07e-04\n",
        "", id="asympt-ratio-order1"),
    pytest.param(
        ["asympt", "--dist", "power:a=1.1", "--alpha", "0.99"], 0,
        "power:a=1.1: weibull-type tail\n"
        "target: endpoint gap ratio (xhat-ES)/(xhat-e) at alpha=0.99\n"
        "order 2: leading 0.0484, correction 0.0962, value 0.0530\n"
        "exact 0.0533, |error| 2.91e-04\n",
        "", id="asympt-weibull-ratio"),
    pytest.param(
        ["asympt", "--dist", "pareto:a=2", "--alpha", "0.999", "--target", "beta-star",
         "--order", "1"], 0,
        "pareto:a=2: frechet-type tail\n"
        "target: level ratio (1-beta*)/(1-alpha) at alpha=0.999\n"
        "order 1: leading 1.0000, correction 0.0000, value 1.0000\n"
        "exact 0.9405, |error| 5.95e-02\n",
        "", id="asympt-beta-star-order1"),
    pytest.param(
        ["asympt", "--dist", "student:nu=2.3", "--alpha", "0.999", "--target", "beta-star"], 0,
        "student:nu=2.3: frechet-type tail\n"
        "target: level ratio (1-beta*)/(1-alpha) at alpha=0.999\n"
        "order 2: leading 1.3026, correction -0.0058, value 1.2950\n"
        "exact 1.2951, |error| 7.59e-05\n",
        "", id="asympt-beta-star-order2"),
    pytest.param(
        ["asympt", "--dist", "uniform", "--alpha", "0.99", "--target", "beta-star"], 0,
        "uniform: weibull-type tail\n"
        "target: level ratio (1-beta*)/(1-alpha) at alpha=0.99\n"
        "leading-order value 10.0000\n"
        "exact 9.1325, |error| 8.67e-01\n",
        "", id="asympt-weibull-beta-star"),
    pytest.param(
        ["asympt", "--dist", "uniform", "--alpha", "0.99", "--target", "beta-star",
         "--order", "1"], 0,
        "uniform: weibull-type tail\n"
        "target: level ratio (1-beta*)/(1-alpha) at alpha=0.99\n"
        "leading-order value 10.0000\n"
        "exact 9.1325, |error| 8.67e-01\n",
        "", id="asympt-weibull-beta-star-order1"),
    pytest.param(
        ["asympt", "--dist", "exp", "--alpha", "0.99"], 0,
        "exp: light (Gumbel-type) tail; expectile and ES are equivalent as alpha -> 1 (no "
        "polynomial expansion)\n",
        "", id="asympt-gumbel"),
    pytest.param(
        ["asympt", "--dist", "exp", "--alpha", "0.99", "--target", "beta-star", "--order", "1"],
        0,
        "exp: light (Gumbel-type) tail; expectile and ES are equivalent as alpha -> 1 (no "
        "polynomial expansion)\n",
        "", id="asympt-gumbel-beta-star-order1"),
    pytest.param(
        ["asympt", "--dist", "uniform", "--alpha", "0.99"], 2,
        "",
        "error: --order: uniform has no second-order tail parametrization; use --order 1\n",
        id="asympt-no-rho-exit2"),
    pytest.param(
        ["asympt", "--dist", "twopoint:x1=0,x2=1,p=0.5", "--alpha", "0.99"], 2,
        "",
        "error: --dist: twopoint:x1=0,x2=1,p=0.5 has no tail classification\n",
        id="asympt-no-class-exit2"),
    pytest.param(
        ["asympt", "--dist", "power:a=1e300", "--alpha", "0.99"], 2,
        "",
        "error: --dist: the 0.99-quantile of power:a=1e+300 rounds to its right endpoint 1"
        " in double precision\n", id="asympt-quantile-at-endpoint-exit2"),
    pytest.param(
        ["asympt", "--dist", "pareto:a=1e300", "--alpha", "0.99"], 2,
        "",
        "error: --dist: the order-2 expansion at alpha=0.99 is not finite in double"
        " precision (leading 1, correction nan)\n", id="asympt-nan-expansion-exit2"),
    pytest.param(
        ["asympt", "--dist", "pareto:a=1e300", "--alpha", "0.99", "--order", "1"], 2,
        "",
        "error: --dist: pareto:a=1e+300 is degenerate in double precision at alpha=0.99:"
        " the ES of the centered law is -1e-300, not positive\n",
        id="asympt-collapsed-centered-law-exit2"),
    pytest.param(
        ["asympt", "--dist", "student:nu=2.3", "--alpha", "0.5"], 2,
        "",
        "error: --dist: the order-2 expansion at alpha=0.5 is not finite in double"
        " precision (leading 0, correction -inf)\n", id="asympt-student-median-exit2"),
    pytest.param(
        ["asympt", "--dist", "pareto:a=2.1", "--alpha", "0.5", "--target", "beta-star"], 2,
        "",
        "error: --dist: the order-2 expansion at alpha=0.5 is not finite in double"
        " precision (leading inf, correction 3.85644)\n",
        id="asympt-beta-star-median-exit2"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05", "--eps", "0.1",
         "--alpha", "0.99"], 0,
        "alpha=0.99 eps=0.1 gamma=0.05 (constants C=1, c=1)\n"
        "n_var       = 220   (delta_alpha=1, default)\n"
        "n_es        = 7368063\n"
        "n_expectile = 7221439\n"
        "n_es/n_var  = 33491.1955\n"
        "n_expectile/n_var = 32824.7227\n",
        "", id="sample-size-default"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=2.05,s=2.01", "--gamma", "0.05", "--eps", "0.1",
         "--alpha", "0.99", "--dist", "pareto:a=2.1"], 0,
        "alpha=0.99 eps=0.1 gamma=0.05 (constants C=1, c=1)\n"
        "n_var       = 76881380   (delta_alpha=0.00168815, pareto:a=2.1 density at q+1)\n"
        "n_es        = 19415497\n"
        "n_expectile = 19029129\n"
        "n_es/n_var  = 0.2525\n"
        "n_expectile/n_var = 0.2475\n",
        "", id="sample-size-model"),
    pytest.param(
        ["sample-size", "--tail", "exp:k=2,r=1", "--gamma", "0.05", "--eps", "0.1", "--alpha",
         "0.9", "--delta-alpha", "0.5"], 0,
        "alpha=0.9 eps=0.1 gamma=0.05 (constants C=1, c=1)\n"
        "n_var       = 877   (delta_alpha=0.5, given)\n"
        "n_es        = 29958\n"
        "n_expectile = 24266\n"
        "n_es/n_var  = 34.1596\n"
        "n_expectile/n_var = 27.6693\n",
        "", id="sample-size-given"),
    pytest.param(
        ["sample-size", "--tail", "subexp:k=0.5,r=1,s=0.3", "--gamma", "0.05", "--eps", "0.1",
         "--alpha", "0.99"], 0,
        "alpha=0.99 eps=0.1 gamma=0.05 (constants C=1, c=1)\n"
        "n_var       = 220   (delta_alpha=1, default)\n"
        "n_es        = 7756185935547299004416\n"
        "n_expectile = 7253531626754822635520\n"
        "n_es/n_var  = 35255390616124088320.0000\n"
        "n_expectile/n_var = 32970598303431012352.0000\n",
        "", id="sample-size-subexp"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=2.05,s=2.01", "--gamma", "0.05", "--eps", "0.1",
         "--alphas", "0.9,0.99", "--dist", "pareto:a=2.1"], 0,
        "alpha,n_var,n_es,n_expectile,ratio_es_var,ratio_expectile_var,eps,gamma,delta_alpha,C,"
        "c\n"
        "0.9,265860,194155,157266,0.730290378395,0.59153689912,0.1,0.05,0.0287075944091,1,1\n"
        "0.99,76881380,19415497,19029129,0.252538351939,0.247512843812,0.1,0.05,"
        "0.00168815346512,1,1\n",
        "", id="sample-size-grid"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05", "--eps", "10", "--alpha",
         "0.9"], 2,
        "",
        "error: absolute deviation eps must lie in (0, alpha/(1-alpha)] = (0, 9], got 10.0\n",
        id="sample-size-eps-exit2"),
    pytest.param(
        ["sample-size", "--tail", "exp:k=2,r=1,c=1e-310", "--gamma", "0.05", "--eps", "0.1",
         "--alpha", "0.99"], 1,
        "",
        "error: ExpMoment(k=2, r=1, C=1, c=1e-310) gives no finite sample size at gamma=0.05,"
        " h=0.001\n", id="sample-size-exit1"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05", "--eps", "0.1",
         "--alpha", "0.99", "--dist", "exp", "--delta-offset", "-1"], 2,
        "",
        "error: delta_offset must be positive and finite, got -1\n",
        id="sample-size-negative-offset"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05", "--eps", "0.1",
         "--alpha", "0.99", "--delta-alpha", "inf"], 2,
        "",
        "error: density lower bound delta_alpha must be positive and finite, got inf\n",
        id="sample-size-infinite-delta"),
    pytest.param(
        ["sample-size", "--tail", "poly:q=3,s=2.5", "--gamma", "0.05", "--eps", "0.1",
         "--alpha", "0.99", "--delta-alpha", "0"], 2,
        "",
        "error: --delta-alpha: must be positive, got 0\n", id="sample-size-zero-delta-exit2"),
    pytest.param(
        ["table", "--dist", "pareto:a=2.1", "--alphas", "0.999,0.983", "--ns", "100,1000"], 0,
        "alpha,theo_ratio,emp_ratio_1e2,err_pct_1e2,emp_ratio_1e3,err_pct_1e3\n"
        "0.983,0.53073696459,0.591114599292,11.3761879671,0.539113909313,1.57836089851\n"
        "0.999,0.508593160011,0.91382525856,79.6770641861,0.693360381141,36.3290810136\n",
        "", id="table"),
    pytest.param(
        ["table", "--dist", "exp", "--alphas", "0.5,0.9", "--ns", "50", "--seed", "4", "--vs",
         "var", "--replications", "3"], 0,
        "alpha,theo_ratio,emp_ratio_5e1,err_pct_5e1\n"
        "0.5,1.44269504089,1.35534892702,15.7594146703\n"
        "0.9,0.886009636926,0.905670290701,4.37227685509\n",
        "", id="table-var-replications"),
    pytest.param(
        ["table", "--dist", "exp", "--alphas", "0.9", "--ns", "100.5"], 2,
        "",
        "error: --ns: entries must be positive integers, got 100.5\n", id="table-ns-exit2"),
    pytest.param(
        ["table", "--dist", "twopoint:x1=0,x2=0,p=0.5", "--alphas", "0.9", "--ns", "10"], 1,
        "",
        "error: twopoint:x1=0,x2=0,p=0.5: zero es of the model at alpha=0.9\n", id="table-exit1"),
    pytest.param(
        ["table", "--dist", "exp", "--alphas", ",", "--ns", "10"], 2,
        "",
        "error: --alphas: empty list\n", id="table-empty-alphas-exit2"),
    pytest.param(
        ["table", "--dist", "exp", "--alphas", "0.3", "--ns", "10"], 2,
        "",
        "error: --alphas: expectile level must lie in [0.5, 1 - 1e-12), got 0.3\n",
        id="table-level-exit2"),
    pytest.param(
        ["table", "--dist", "twopoint:x1=-1,x2=1,p=0.5", "--alphas", "0.5,0.6", "--ns", "10"], 1,
        "",
        "error: twopoint:x1=-1,x2=1,p=0.5: zero theoretical ratio at alpha=0.5: its error"
        " percentages are undefined\n", id="table-zero-ratio-exit1"),
    pytest.param(
        ["figure", "--kind", "distortion", "--points", "5"], 0,
        "t,phi,phi_mix\n"
        "0,0,0\n"
        "0.25,0.839285714286,0.952127659574\n"
        "0.5,0.94,0.968085106383\n"
        "0.75,0.979166666667,0.984042553191\n"
        "1,1,1\n",
        "", id="figure-distortion"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "power:a=2", "--points", "3"], 0,
        "alpha,exact,first_order,second_order\n"
        "0.95,8.94989871354,10.8174877195,9.22024076277\n"
        "0.97495,13.1146549573,14.9239475917,13.298551692\n"
        "0.9999,229.184720137,230.960318021,229.19594476\n",
        "", id="figure-weibull-beta"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "pareto:a=2.1", "--points", "3"], 0,
        "alpha,exact,first_order,second_order\n"
        "0.95,0.480870102429,0.500567429597,0.466270919038\n"
        "0.97495,0.490328559233,0.500567429597,0.482616339531\n"
        "0.9999,0.500265245221,0.500567429597,0.500223325002\n",
        "", id="figure-frechet-pareto"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "student:nu=2.3", "--points", "3"], 0,
        "alpha,exact,first_order,second_order\n"
        "0.95,0.47616663355,0.504283697303,0.475711341126\n"
        "0.97495,0.490276835306,0.504283697303,0.490102159656\n"
        "0.9999,0.504217115224,0.504283697303,0.504217084549\n",
        "", id="figure-frechet-student"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "power:a=1"], 2,
        "",
        "error: --dist: power:a=1 has no second-order tail parametrization\n",
        id="figure-uniform-exit2"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "student:nu=2.3", "--points", "1"], 2,
        "",
        "error: --points: need at least 2, got 1\n", id="figure-points-exit2"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "pareto:a=1e300", "--points", "3"], 2,
        "",
        "error: --dist: pareto:a=1e+300 is degenerate in double precision at alpha=0.95:"
        " the ES of the centered law is -1e-300, not positive\n",
        id="figure-collapsed-centered-law-exit2"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "student:nu=1e300", "--points", "3"], 2,
        "",
        "error: --dist: the order-2 expansion at alpha=0.95 is not finite in double"
        " precision (leading 1, correction nan)\n", id="figure-nan-expansion-exit2"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "pareto:a=inf"], 2,
        "",
        "error: --dist: pareto family needs a > 1 for a finite mean, got a=inf\n",
        id="figure-infinite-a"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "pareto:a=0.5"], 2,
        "",
        "error: --dist: pareto family needs a > 1 for a finite mean, got a=0.5\n",
        id="figure-infinite-mean-pareto"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "student:nu=1"], 2,
        "",
        "error: --dist: student family needs nu > 1 for a finite mean, got nu=1.0\n",
        id="figure-infinite-mean-student"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "student:nu=2.3,shift=1", "--points", "3"], 0,
        "alpha,exact,first_order,second_order\n"
        "0.95,0.47616663355,0.504283697303,0.475711341126\n"
        "0.97495,0.490276835306,0.504283697303,0.490102159656\n"
        "0.9999,0.504217115224,0.504283697303,0.504217084549\n",
        "", id="figure-shifted-student"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "exp"], 2,
        "",
        "error: --dist: exp has a light (Gumbel-type) tail: no polynomial ratio expansion"
        " exists; see mda().relation for the qualitative statement\n",
        id="figure-gumbel-exit2"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "twopoint:x1=0,x2=1,p=0.5"], 2,
        "",
        "error: --dist: two-point laws have no extreme-value classification here\n",
        id="figure-unclassified-exit2"),
    pytest.param(
        ["figure", "--kind", "expansion", "--dist", "uniform"], 2,
        "",
        "error: --dist: uniform has no second-order tail parametrization\n",
        id="figure-uniform-family-exit2"),
    pytest.param(
        ["wasserstein", "--dist", "exp", "--n", "200"], 0,
        "w(sample n=200, exp) exact = 0.0519974\n"
        "es deviation at alpha=0.99: 0.640517 <= bound 5.19974\n"
        "expectile deviation at alpha=0.99: 0.178644 <= bound 5.14774\n",
        "", id="wasserstein"),
    pytest.param(
        ["wasserstein", "--dist", "exp", "--n", "200", "--seed", "-3"], 2,
        "",
        "error: --seed: must be >= 0, got -3\n", id="wasserstein-seed-exit2"),
    pytest.param(
        ["wasserstein", "--dist", "exp", "--n", "0"], 2,
        "",
        "error: --n: must be >= 1, got 0\n", id="wasserstein-n-exit2"),
    pytest.param(
        ["wasserstein", "--dist", "exp", "--n", "100000000000000000000"], 1,
        "",
        "error: Maximum allowed dimension exceeded\n", id="wasserstein-exit1"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", GOLDEN)
def test_golden_command_lines(tmp_path, capsys, argv, code, stdout, stderr):
    paths = {key: tmp_path / name for key, name in
             (("<csv>", "scen.csv"), ("<ragged>", "ragged.csv"), ("<out>", "out.csv"),
              ("<missing>", "missing/out.csv"))}
    paths["<csv>"].write_text(PORTFOLIO)
    paths["<ragged>"].write_text("0,0\n1\n")
    got, out, err = run(capsys, [str(paths.get(a, a)) for a in argv])
    if "<out>" in argv:
        assert out == ""
        out = paths["<out>"].read_text()
    for key, path in paths.items():
        err = err.replace(str(path), key)
    assert (got, out, err) == (code, stdout, stderr)
