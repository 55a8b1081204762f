import argparse
import csv
import re
import warnings

import numpy as np
import pytest

from burnlab.audit import (audit_mechanism, check_dsic, check_payment_identity,
                           extract_interim_rule)
from burnlab.cli import build_parser, main
from burnlab.common import VERSION, substream
from burnlab.distributions import distribution_from_spec, sample_profile
from burnlab.mechanisms import MECHANISMS, evaluate, expected_rsol


def write_profile(tmp_path, values, name="profile.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_stdout(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


# ---------------------------------------------------------------------------
# iron


def test_iron_table(tmp_path):
    out = tmp_path / "iron.csv"
    rc = main(["iron", "--dist", "uniform(0,1)", "--grid", "128",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["q", "v", "theta", "H", "G", "phibar", "ironed_flag"]
    assert len(rows) == 129
    phibar = np.array([float(r[5]) for r in rows[1:]])
    assert np.all(np.abs(phibar - 0.5) <= 1e-3)
    flags = {r[6] for r in rows[1:]}
    assert flags <= {"0", "1"} and "1" in flags


def test_iron_stdout(capsys):
    rc, out = run_stdout(capsys, ["iron", "--dist", "exp(1)", "--grid", "64"])
    assert rc == 0
    assert out.splitlines()[0] == "q,v,theta,H,G,phibar,ironed_flag"


# ---------------------------------------------------------------------------
# eval


def test_eval_vickrey(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc, out = run_stdout(capsys, ["eval", "--mech", "vickrey",
                                  "--profile", prof, "--k", "1"])
    assert rc == 0
    header, row = [line.split(",") for line in out.splitlines()]
    assert header == ["mech", "n", "k", "params", "expected_residual",
                      "ci_lo", "ci_hi", "seed"]
    assert row[:4] == ["vickrey", "2", "1", "-"]
    assert float(row[4]) == 2.0
    assert float(row[5]) == float(row[6]) == 2.0
    # an exact row draws nothing, so its seed cell is empty
    assert row[7] == ""


def test_eval_plottery_params(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc, out = run_stdout(capsys, ["eval", "--mech", "plottery",
                                  "--profile", prof, "--k", "1",
                                  "--p", "1.5"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "p=1.5" and float(row[4]) == 1.5


def test_eval_pq_params(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc, out = run_stdout(capsys, ["eval", "--mech", "pqlottery",
                                  "--profile", prof, "--k", "1",
                                  "--p", "1.0", "--q", "0.0"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "p=1.0;q=0.0" and float(row[4]) == 2.5


def test_eval_bayes(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc = main(["eval", "--mech", "bayes", "--profile", prof, "--k", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "burnlab: error: --dist: eval --mech bayes requires it\n"
    rc, out = run_stdout(capsys, ["eval", "--mech", "bayes",
                                  "--profile", prof, "--k", "1",
                                  "--dist", "exp(1)", "--grid", "256"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "dist=exp(1);grid=256"
    assert float(row[4]) == pytest.approx(2.0)


def test_eval_mix(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc = main(["eval", "--mech", "mix", "--profile", prof, "--k", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("burnlab: error: the mixture mechanism is defined "
                            "for n=2, k=1\n")
    rc, out = run_stdout(capsys, ["eval", "--mech", "mix", "--profile", prof,
                                  "--k", "1"])
    assert rc == 0
    assert float(out.splitlines()[1].split(",")[4]) == pytest.approx(2.0)


# more agents than RSOL's exact cap of 20: the profile picks Monte Carlo mode
MC_VALUES = [0.1 + 0.05 * i for i in range(21)]


def test_eval_rsol_modes(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc, out = run_stdout(capsys, ["eval", "--mech", "rsol", "--profile", prof,
                                  "--k", "1"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "mode=exact"
    assert float(row[4]) == 1.5 and float(row[5]) == float(row[6]) == 1.5
    assert row[7] == ""
    prof = write_profile(tmp_path, MC_VALUES, "mc.txt")
    rc, out = run_stdout(capsys, ["eval", "--mech", "rsol", "--profile", prof,
                                  "--k", "1", "--reps", "500", "--seed", "2"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "mode=mc;reps=500"
    assert float(row[5]) < float(row[6])
    assert row[7] == "2"
    # Monte Carlo mode without --seed draws from seed 0
    rc, default = run_stdout(capsys, ["eval", "--mech", "rsol", "--profile",
                                      prof, "--k", "1", "--reps", "500"])
    rc0, zero = run_stdout(capsys, ["eval", "--mech", "rsol", "--profile", prof,
                                    "--k", "1", "--reps", "500", "--seed", "0"])
    assert rc == rc0 == 0 and default == zero
    assert default.splitlines()[1].split(",")[7] == "0"


@pytest.mark.parametrize("reps", ["0", "-5"])
def test_eval_rsol_bad_reps_exit_two(tmp_path, capsys, reps):
    # --reps 0 once ran the default 10,000 replicates, and -5 failed inside
    # numpy with a message naming no flag
    prof = write_profile(tmp_path, MC_VALUES)
    rc = main(["eval", "--mech", "rsol", "--profile", prof, "--k", "1",
               "--reps", reps])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("burnlab: error: reps: need at least 30 "
                            f"replicates, got {reps}\n")


def test_eval_rsol_mode_boundary(tmp_path, capsys):
    # the profile size alone picks RSOL's mode: exact up to 20 agents, where
    # --reps and --seed are refused, and Monte Carlo above, where they
    # default to 10,000 and 0
    exact = write_profile(tmp_path, MC_VALUES[:20], "exact.txt")
    argv = ["eval", "--mech", "rsol", "--profile", exact, "--k", "1"]
    rc, out = run_stdout(capsys, argv)
    row = out.splitlines()[1].split(",")
    assert rc == 0 and row[:4] == ["rsol", "20", "1", "mode=exact"]
    assert [float(x) for x in row[4:7]] == [evaluate("rsol", MC_VALUES[:20], 1)] * 3
    assert row[7] == ""
    for flag in ("--reps", "--seed"):
        rc = main([*argv, flag, "100"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (f"burnlab: error: {flag}: eval --mech rsol, exact "
                                "on profiles of at most 20 agents, does not read it\n")
    argv[4] = write_profile(tmp_path, MC_VALUES, "mc.txt")
    rc, out = run_stdout(capsys, argv)
    row = out.splitlines()[1].split(",")
    assert rc == 0 and row[:4] == ["rsol", "21", "1", "mode=mc;reps=10000"]
    ev = expected_rsol(MC_VALUES, 1, "mc", 10_000, 0)
    assert [float(x) for x in row[4:7]] == [ev.mean, *ev.ci]
    assert row[7] == "0"


@pytest.mark.parametrize("mech, flags, flag", [
    ("vickrey", ["--p", "2.5", "--q", "9"], "p"),
    ("plottery", ["--p", "1", "--q", "0"], "q"),
    ("bayes", ["--dist", "exp(1)", "--p", "0"], "p"),
    ("logprice", ["--dist", "exp(1)"], "dist"),
    ("mix", ["--grid", "256"], "grid"),
    ("pqlottery", ["--reps", "100"], "reps"),
    # --exact is gone: the profile size alone picks RSOL's mode
    ("vickrey", ["--exact"], "exact"),
    ("rsol", ["--exact", "--reps", "100"], "exact"),
    # --seed was once written into the seed column with nothing reading it:
    # no Monte Carlo path, and RSOL's exact mode (n <= 20), which reads no
    # --reps either
    ("vickrey", ["--seed", "7"], "seed"),
    ("rsol", ["--exact", "--seed", "9"], "exact"),
    ("rsol", ["--seed", "9"], "seed"),
    ("rsol", ["--reps", "100"], "reps"),
], ids=["vickrey-p", "plottery-q", "bayes-p", "logprice-dist", "mix-grid",
        "pqlottery-reps", "vickrey-exact", "rsol-exact-reps", "vickrey-seed",
        "rsol-exact-seed", "rsol-exact-mode-seed", "rsol-exact-mode-reps"])
def test_eval_unread_flag_exit_two(tmp_path, capsys, mech, flags, flag):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc = main(["eval", "--mech", mech, "--profile", prof, "--k", "1", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"burnlab: error: --{flag}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("mech, flags, flag", [
    ("vickrey", ["--p", "2.5", "--q", "9"], "p"),
    ("plottery", ["--p", "1", "--q", "0.5"], "q"),
    ("bayes", ["--p", "0.5"], "p"),
    ("rsol", ["--q", "0.3"], "q"),
    ("mix", ["--p", "0"], "p"),
    ("logprice", ["--q", "0"], "q"),
    ("firstprice", ["--p", "1"], "p"),
], ids=["vickrey-p", "plottery-q", "bayes-p", "rsol-q", "mix-p", "logprice-q",
        "firstprice-p"])
def test_audit_unread_flag_exit_two(capsys, mech, flags, flag):
    # such flags once only stretched the bid grid, and the audit exited 0
    rc = main(["audit", "--mech", mech, "--dist", "uniform(0,1)", "--n", "2",
               "--profiles", "1", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"burnlab: error: --{flag}: audit --mech {mech} "
                            "does not read it\n")


def test_audit_prices_default_to_zero(capsys):
    argv = ["audit", "--mech", "pqlottery", "--dist", "uniform(0,1)", "--n", "3",
            "--profiles", "2"]
    rc, out = run_stdout(capsys, argv)
    assert rc == 0 and out.count("\n") == 5
    assert run_stdout(capsys, [*argv, "--p", "0", "--q", "0"]) == (rc, out)


def mech_choices(command):
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return next(action.choices for action in sub.choices[command]._actions
                if action.dest == "mech")


def test_mech_choices_are_the_table():
    assert list(mech_choices("eval")) == list(MECHANISMS)
    assert list(mech_choices("audit")) == [*MECHANISMS, "firstprice"]


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_row(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc, out = run_stdout(capsys, ["benchmark", "--profile", prof, "--k", "1"])
    assert rc == 0
    header, row = [line.split(",") for line in out.splitlines()]
    assert header == ["G", "p", "q", "best_single_value", "best_single_p",
                      "full_surplus"]
    assert [float(x) for x in row] == [2.5, 1.0, 0.0, 2.0, 0.0, 3.0]


# ---------------------------------------------------------------------------
# bad input


@pytest.mark.parametrize("argv, lines, message", [
    ("benchmark --profile {prof} --k 1", None, "No such file"),
    ("benchmark --profile {prof} --k 1", ["3.0", "three"],
     "line 2: expected a number, got 'three'"),
    ("benchmark --profile {prof} --k 0", ["3.0", "1.0"],
     "need at least one unit"),
    # NaN and infinite prices once slipped past the price checks and printed
    # a value; an infinite one also made the audit's bid grid NaN
    ("eval --mech plottery --profile {prof} --k 1 --p nan", ["3.0", "1.0"],
     "price must be a finite nonnegative number"),
    ("eval --mech pqlottery --profile {prof} --k 1 --p nan --q 0",
     ["3.0", "1.0"], "0 <= q <= p"),
    ("eval --mech pqlottery --profile {prof} --k 1 --q nan", ["3.0", "1.0"],
     "0 <= q <= p"),
    ("audit --mech plottery --dist uniform(0,1) --n 3 --p nan", None,
     "price must be a finite nonnegative number"),
    ("eval --mech plottery --profile {prof} --k 1 --p inf", ["3.0", "1.0"],
     "price must be a finite nonnegative number"),
    ("audit --mech plottery --dist uniform(0,1) --n 3 --p inf", None,
     "price must be a finite nonnegative number"),
    ("audit --mech pqlottery --dist uniform(0,1) --n 3 --p inf", None,
     "prices must be finite"),
    # --profiles below 1 once wrote a bare header and exited 0
    ("audit --mech vickrey --dist uniform(0,1) --n 3 --profiles 0", None,
     "--profiles: "),
    ("audit --mech vickrey --dist uniform(0,1) --n 3 --profiles -1", None,
     "--profiles: "),
    # priors with an infinite or overflowing parameter once printed
    # numpy warnings, all-zero audits or a value
    ("iron --dist exp(inf)", None, "rate must be positive and finite"),
    ("iron --dist exp(1e-320)", None, "need a finite mean, got inf"),
    ("audit --mech vickrey --dist exp(inf) --n 3", None,
     "rate must be positive and finite"),
    ("eval --mech bayes --profile {prof} --k 1 --dist pareto(1,inf)",
     ["3.0", "1.0"], "pareto(1,inf): need a finite mean, got nan"),
    ("iron --dist uniform(0,inf)", None, "need a finite mean, got inf"),
    # a negative seed once exited 0 for lb43 and surplus-gap, which draw
    # nothing, and elsewhere failed inside numpy with a message naming no seed
    ("experiment --name lb43 --config {prof}", ["seed = -3"],
     "seed: need at least 0, got -3"),
    ("experiment --name surplus-gap --config {prof}", ["seed = -3"],
     "seed: need at least 0, got -3"),
    ("experiment --name thmub --config {prof}", ["seed = -3"],
     "seed: need at least 0, got -3"),
    ("audit --mech vickrey --dist uniform(0,1) --n 3 --seed -1", None,
     "seed: need at least 0, got -1"),
    ("eval --mech rsol --profile {prof} --k 1 --seed -2",
     [str(v) for v in MC_VALUES], "seed: need at least 0, got -2"),
], ids=["benchmark-missing-file", "benchmark-non-numeric", "benchmark-k0",
        "eval-plottery-p-nan", "eval-pqlottery-p-nan", "eval-pqlottery-q-nan",
        "audit-plottery-p-nan", "eval-plottery-p-inf", "audit-plottery-p-inf",
        "audit-pqlottery-p-inf", "audit-profiles-0", "audit-profiles-negative",
        "iron-exp-inf", "iron-exp-tiny-rate", "audit-exp-inf",
        "eval-bayes-pareto-shape-inf", "iron-uniform-hi-inf",
        "experiment-lb43-seed-negative", "experiment-surplus-gap-seed-negative",
        "experiment-thmub-seed-negative", "audit-seed-negative",
        "eval-rsol-mc-seed-negative"])
def test_bad_input_exit_two(tmp_path, capsys, argv, lines, message):
    prof = (write_profile(tmp_path, lines) if lines
            else str(tmp_path / "missing.txt"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way out
        rc = main([arg.format(prof=prof) for arg in argv.split()])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = captured.err
    assert err.startswith("burnlab: error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# audit


def test_audit_truthful_exit_zero(tmp_path):
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--mech", "vickrey", "--dist", "uniform(0,1)",
               "--n", "3", "--profiles", "5", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["mech", "profile", "check", "passed", "max_violation",
                       "agent", "bid"]
    assert len(rows) == 11
    assert all(r[3] == "True" for r in rows[1:])
    assert {r[2] for r in rows[1:]} == {"dsic", "payment"}
    # the payment row names its worst agent and that agent's witness bid
    assert all(r[5] in {"0", "1", "2"} and float(r[6]) >= 0.0 for r in rows[2::2])


def test_audit_firstprice_exit_one(tmp_path):
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--mech", "firstprice", "--dist", "uniform(0,1)",
               "--n", "3", "--profiles", "3", "--out", str(out)])
    assert rc == 1
    rows = read_csv(out)
    assert any(r[3] == "False" for r in rows[1:])
    # each DSIC row names the deviation the scan found
    d = distribution_from_spec("uniform(0,1)")
    for idx, row in enumerate(rows[1::2]):
        prof = sample_profile(d, 3, substream(0, "audit", idx))
        hi = 1.25 * max(float(prof.values.max()), 1e-9)
        report = check_dsic(audit_mechanism("firstprice", 1), prof,
                            np.linspace(0.0, hi, 64))
        assert row[2:] == ["dsic", "False", repr(report.max_gain),
                           str(report.agent), repr(report.bid)]
        assert 0.0 <= report.bid < prof.values[report.agent]


def test_audit_payment_row_names_witness_bid(tmp_path):
    # firstprice breaks the identity: each payment row names the agent with
    # the largest error and the bid where it is largest
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--mech", "firstprice", "--dist", "uniform(0,1)",
               "--n", "3", "--profiles", "3", "--out", str(out)])
    assert rc == 1
    d = distribution_from_spec("uniform(0,1)")
    mech = audit_mechanism("firstprice", 1)
    for idx, row in enumerate(read_csv(out)[2::2]):
        prof = sample_profile(d, 3, substream(0, "audit", idx))
        grid = np.linspace(0.0, 1.25 * max(float(prof.values.max()), 1e-9), 256)
        reports = [check_payment_identity(extract_interim_rule(mech, prof, i, grid))
                   for i in range(3)]
        worst = max(reports, key=lambda rep: rep.max_error)
        assert row[2:] == ["payment", "False", repr(worst.max_error),
                           str(worst.agent), repr(worst.bid)]
        assert worst.bid in grid


def test_audit_bayes_smoke(tmp_path):
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--mech", "bayes", "--dist", "exp(1)", "--n", "2",
               "--profiles", "3", "--out", str(out)])
    assert rc == 0


def test_audit_rsol_above_exact_cap_exit_two(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--mech", "rsol", "--dist", "uniform(0,1)", "--n", "24",
               "--profiles", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "burnlab: error: rsol audits take at most 20 agents\n"


# ---------------------------------------------------------------------------
# experiment


def test_experiment_with_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2,4\nk = 1\nseed = 3\n")
    out = tmp_path / "rows.csv"
    rc = main(["experiment", "--name", "surplus-gap", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,n,k,")
    assert len(lines) == 4
    assert lines[-1] == f"# burnlab {VERSION} seed=3"


def test_experiment_lb43_without_n_k(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 2\n")
    rc, out = run_stdout(capsys, ["experiment", "--name", "lb43",
                                  "--config", str(cfg)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "experiment,n,k,g_mean,opt_mean,opt_grid,ratio"
    assert lines[1].startswith(f"lb43,2,1,{4 / 3!r},")
    assert lines[2] == f"# burnlab {VERSION} seed=2"


def test_experiment_out_from_config(tmp_path):
    target = tmp_path / "fromcfg.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 4\nk = 1\nout = {target}\n")
    rc = main(["experiment", "--name", "thmub", "--config", str(cfg)])
    assert rc == 0
    assert target.exists()
    assert "thmub" in target.read_text()


@pytest.mark.parametrize("name, text, key", [
    ("surplus-gap", "k = 1, 2\n", "k"),
    # every experiment fixes its prior: dist is no key
    ("surplus-gap", "dist = uniform(0,1)\n", "line 1: unknown key 'dist'"),
    ("lb43", "n = 5\nk = 3\nreps = 1000\n", "n"),
    ("lb43", "k = 1\n", "k"),
    ("lb43", "experiment = thmub\nn = 4\n", "n"),
    ("lb43", "seed = 2\nreps = 1000\n", "reps"),
    ("surplus-gap", "n = 32\nreps = 1000\n", "reps"),
    ("rsol-ratio", "n = 4\nreps = 1000\n", "reps"),
    ("thmub", "reps = 1\n", "reps"),
    ("surplus-gap", "n = 0\n", "n"),
    ("surplus-gap", "k = 0\n", "k"),
    ("rsol-ratio", "n = 0\n", "n"),
    ("thmub", "n = 0\n", "n"),
    ("thmub", "n = -3\n", "n"),
], ids=["k", "dist", "lb43-n", "lb43-k", "lb43-overrides-text", "lb43-reps",
        "surplus-gap-reps", "rsol-ratio-reps", "thmub-reps", "surplus-gap-n0",
        "surplus-gap-k0", "rsol-ratio-n0", "thmub-n0", "thmub-n-negative"])
def test_experiment_rejected_key_exit_two(tmp_path, capsys, name, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = main(["experiment", "--name", name, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    # the key as a whole word: "n" must not match "negative dimensions ..."
    assert re.match(rf"burnlab: error: {re.escape(key)}(?!\w)", captured.err)


# ---------------------------------------------------------------------------
# top level


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"burnlab {VERSION}" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--mech", "rsol", "--k", "x"], "argument --k: invalid int value: 'x'"),
    (["--mech", "rsol"], "the following arguments are required: --k"),
    (["--mech", "nosuch", "--k", "1"], "argument --mech: invalid choice: 'nosuch'"),
], ids=["bad-int", "missing-k", "bad-choice"])
def test_eval_parse_errors_take_one_line(tmp_path, capsys, flags, message):
    prof = write_profile(tmp_path, [1.0])
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--profile", prof, *flags])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"burnlab: error: {message}")
    assert captured.err.count("\n") == 1


HUGE_K = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["benchmark", "--k", HUGE_K],
    ["eval", "--mech", "plottery", "--k", HUGE_K],
    ["eval", "--mech", "rsol", "--k", HUGE_K],
    ["eval", "--mech", "vickrey", "--k", HUGE_K],
    ["experiment", "--name", "rsol-ratio"],
], ids=["benchmark", "eval-plottery", "eval-rsol", "eval-vickrey", "rsol-ratio"])
def test_k_beyond_numpy_exits_two(tmp_path, capsys, argv):
    # numpy cannot hold such a k: one line instead of an OverflowError
    # traceback, and vickrey refuses where it used to print a value
    if argv[0] == "experiment":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 4\nk = {HUGE_K}\n")
        argv = [*argv, "--config", str(cfg)]
    else:
        argv = [*argv, "--profile", write_profile(tmp_path, [3.0, 1.0, 2.0])]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"burnlab: error: at most {np.iinfo(np.intp).max} "
                            f"units supported, got {HUGE_K}\n")


def test_unknown_mech_rejected(tmp_path, capsys):
    prof = write_profile(tmp_path, [1.0])
    with pytest.raises(SystemExit):
        main(["eval", "--mech", "nosuch", "--profile", prof, "--k", "1"])
    capsys.readouterr()
