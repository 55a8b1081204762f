import csv
import re

import numpy as np
import pytest

from burnlab.cli import main
from burnlab.common import VERSION


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


def test_eval_rsol_modes(tmp_path, capsys):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc, out = run_stdout(capsys, ["eval", "--mech", "rsol", "--profile", prof,
                                  "--k", "1"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "mode=exact"
    assert float(row[4]) == 1.5 and float(row[5]) == float(row[6]) == 1.5
    rc, out = run_stdout(capsys, ["eval", "--mech", "rsol", "--profile", prof,
                                  "--k", "1", "--reps", "500", "--seed", "2"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "mode=mc;reps=500"
    assert float(row[5]) < float(row[6])


@pytest.mark.parametrize("mech, flags, flag", [
    ("vickrey", ["--p", "2.5", "--q", "9"], "p"),
    ("plottery", ["--p", "1", "--q", "0"], "q"),
    ("bayes", ["--dist", "exp(1)", "--p", "0"], "p"),
    ("logprice", ["--dist", "exp(1)"], "dist"),
    ("mix", ["--grid", "256"], "grid"),
    ("pqlottery", ["--reps", "100"], "reps"),
    ("vickrey", ["--exact"], "exact"),
    ("rsol", ["--exact", "--reps", "100"], "exact"),
], ids=["vickrey-p", "plottery-q", "bayes-p", "logprice-dist", "mix-grid",
        "pqlottery-reps", "vickrey-exact", "rsol-exact-reps"])
def test_eval_unread_flag_exit_two(tmp_path, capsys, mech, flags, flag):
    prof = write_profile(tmp_path, [3.0, 1.0])
    rc = main(["eval", "--mech", mech, "--profile", prof, "--k", "1", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"burnlab: error: --{flag}: ")
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize("lines, k, message", [
    (None, "1", "No such file"),
    (["3.0", "three"], "1", "could not convert"),
    (["3.0", "1.0"], "0", "need at least one unit"),
], ids=["missing-file", "non-numeric", "k0"])
def test_benchmark_bad_input_exit_two(tmp_path, capsys, lines, k, message):
    prof = (write_profile(tmp_path, lines) if lines
            else str(tmp_path / "missing.txt"))
    rc = main(["benchmark", "--profile", prof, "--k", k])
    err = capsys.readouterr().err
    assert rc == 2
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
    assert rows[0] == ["mech", "profile", "check", "passed", "max_violation"]
    assert len(rows) == 11
    assert all(r[3] == "True" for r in rows[1:])
    assert {r[2] for r in rows[1:]} == {"dsic", "payment"}


def test_audit_firstprice_exit_one(tmp_path):
    out = tmp_path / "audit.csv"
    rc = main(["audit", "--mech", "firstprice", "--dist", "uniform(0,1)",
               "--n", "3", "--profiles", "3", "--out", str(out)])
    assert rc == 1
    rows = read_csv(out)
    assert any(r[3] == "False" for r in rows[1:])


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
    cfg.write_text("reps = 1000\nseed = 2\n")
    rc, out = run_stdout(capsys, ["experiment", "--name", "lb43",
                                  "--config", str(cfg)])
    assert rc == 0
    assert out.splitlines()[1].startswith("lb43,2,1,1000,2,")


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
    ("surplus-gap", "dist = uniform(0,1)\n", "dist"),
    ("lb43", "n = 5\nk = 3\nreps = 1000\n", "n"),
    ("lb43", "k = 1\n", "k"),
    ("lb43", "experiment = thmub\nn = 4\n", "n"),
    ("surplus-gap", "n = 32\nreps = 1000\n", "reps"),
    ("rsol-ratio", "n = 4\nreps = 1000\n", "reps"),
    ("thmub", "reps = 1\n", "reps"),
    ("surplus-gap", "n = 0\n", "n"),
    ("surplus-gap", "k = 0\n", "k"),
    ("rsol-ratio", "n = 0\n", "n"),
    ("thmub", "n = 0\n", "n"),
    ("thmub", "n = -3\n", "n"),
], ids=["k", "dist", "lb43-n", "lb43-k", "lb43-overrides-text",
        "surplus-gap-reps", "rsol-ratio-reps", "thmub-reps", "surplus-gap-n0",
        "surplus-gap-k0", "rsol-ratio-n0", "thmub-n0", "thmub-n-negative"])
def test_experiment_rejected_key_exit_two(tmp_path, capsys, name, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = main(["experiment", "--name", name, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    # the key as a whole word: "n" must not match "negative dimensions ..."
    assert re.match(rf"burnlab: error: {key}\b", captured.err)


# ---------------------------------------------------------------------------
# top level


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"burnlab {VERSION}" in capsys.readouterr().out


def test_unknown_mech_rejected(tmp_path, capsys):
    prof = write_profile(tmp_path, [1.0])
    with pytest.raises(SystemExit):
        main(["eval", "--mech", "nosuch", "--profile", prof, "--k", "1"])
    capsys.readouterr()
