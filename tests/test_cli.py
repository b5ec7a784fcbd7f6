"""Command-line interface: outputs, exit codes, file round-trips."""

import argparse
import math

import pytest

from tailrisk import risk_core
from tailrisk.cli import main


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


def test_computation_failure_exits_1(tmp_path, capsys):
    # valid input, but the strict tail event the ES contributions average
    # is empty: the 0.9-quantile ties the largest total loss
    path = tmp_path / "scen.csv"
    path.write_text("1,1\n1,1\n2,2\n")
    code, out, err = run(capsys, ["allocate", "--csv", str(path), "--alpha", "0.9",
                                  "--measure", "es"])
    assert code == 1 and out == ""
    assert "ties the sample maximum" in err


# ------------------------------------------------------------------ risk

def test_expectile_at_half_is_the_mean(capsys):
    code, out, _ = run(capsys, ["risk", "--dist", "exp", "--alpha", "0.5"])
    assert code == 0
    assert "expectile[exp] alpha=0.5 = 1.0000" in out
    assert "beta*" in out


def test_risk_expectile_solves_its_root_once(monkeypatch, capsys):
    calls = []
    solve = risk_core._newton_root

    def counting_solve(*args):
        calls.append(args[1])
        return solve(*args)

    monkeypatch.setattr(risk_core, "_newton_root", counting_solve)
    code, out, _ = run(capsys, ["risk", "--dist", "student:nu=2.3", "--alpha", "0.99"])
    assert code == 0 and out.startswith("expectile[student:nu=2.3] alpha=0.99 = ")
    assert calls == [0.99]


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
    monkeypatch.setattr(risk_core, "_segment_root",
                        lambda src, alpha: calls.append(alpha) or segment_root(src, alpha))
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
    (["figure", "--kind", "frechet-pareto", "--a", "0.9"], "--a: "),
    (["figure", "--kind", "frechet-student", "--nu", "0.9"], "--nu: "),
    (["figure", "--kind", "weibull-beta", "--a", "-1"], "--a: "),
    (["figure", "--kind", "weibull-beta", "--a", "1"], "--a: "),
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

def test_asympt_gumbel_relation(capsys):
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


def test_figure_requires_family_parameter(capsys):
    code, _, err = run(capsys, ["figure", "--kind", "frechet-pareto"])
    assert code == 2 and "--a: required" in err
    code, _, err = run(capsys, ["figure", "--kind", "frechet-student"])
    assert code == 2 and "--nu: required" in err


def test_figure_level_window_must_be_ordered(capsys):
    code, _, err = run(capsys, ["figure", "--kind", "frechet-pareto", "--a", "2.1",
                                "--alpha-min", "0.99", "--alpha-max", "0.95"])
    assert code == 2 and "below" in err


def test_figure_pareto_curves(capsys):
    code, out, _ = run(capsys, ["figure", "--kind", "frechet-pareto", "--a", "2.1",
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
