import json
import subprocess
import sys

import pytest

from stabcert import cli, sdp, simulate
from stabcert.cli import EXIT_CANTCREAT, EXIT_NEGATIVE, EXIT_NOINPUT, EXIT_OK, EXIT_USAGE, main
from stabcert.iqc import certificate_from_json
from stabcert.sdp import RateResult, SolverOptions

TINY_SIM = [
    "--n-base", "60", "--dim", "5", "--horizon", "60", "--trials", "2",
    "--seed", "123",
]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_usage_errors_exit_64():
    for argv in (
        [],
        ["certify"],  # missing required flags
        ["certify", "--optimizer", "adam", "--gamma", "0.1", "--beta", "1"],
        ["simulate", "sideways"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


def test_certify_feasible_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main([
        "certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0",
        "--out", str(out),
    ])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "status         Feasible" in text
    assert "sampled slack" in text
    assert "newton steps" in text and "margin t*" in text
    assert "dual bound" not in text
    cert = certificate_from_json(out.read_text())
    assert cert.newton_steps > 0
    assert cert.optimizer == "sgd"
    assert cert.status == "Feasible"
    assert cert.lmi_max_eig < 0.0
    assert cert.p.shape == (1, 1)


def test_certify_unwritable_out_exit_73(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for out in (tmp_path / "missing" / "x.json", blocker / "x.json"):
        rc = main([
            "certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0",
            "--out", str(out),
        ])
        assert rc == EXIT_CANTCREAT
        captured = capsys.readouterr()
        assert "status         Feasible" in captured.out
        assert "cannot write output" in captured.err
        assert "cannot read" not in captured.err


def test_certify_negative_exit_2(capsys):
    rc = main([
        "certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0",
        "--eta", "3.0",
    ])
    assert rc == EXIT_NEGATIVE
    text = capsys.readouterr().out
    assert "status         Infeasible" in text
    line = next(l for l in text.splitlines() if l.startswith("margin t*"))
    assert float(line.split()[-1]) < 0.0
    assert "dual bound" in text
    assert "witness        verified" in text


def test_certify_heavyball_and_nag(capsys):
    rc = main([
        "certify", "--optimizer", "heavyball", "--gamma", "0.5", "--beta", "1.0",
        "--mu", "0.3",
    ])
    assert rc == EXIT_OK
    rc = main([
        "certify", "--optimizer", "nag-sq", "--gamma", "0.25", "--beta", "1.0",
    ])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.count("Feasible") == 2


def test_certify_rate_mode(capsys):
    rc = main([
        "certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0", "--rate",
    ])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "Certified" in text
    line = next(l for l in text.splitlines() if l.startswith("rho_star"))
    # sgd at eta = 1/beta contracts V by (1 - gamma/beta)^2 at the slow edge
    rho_star = float(line.split()[1])
    assert rho_star == pytest.approx(1 - (1 - 0.1) ** 2, abs=5e-3)
    # the search opens at the exact one-step rate and closes in two probes
    assert "reference      0.19  (one-step, exact)" in text
    probes = next(l for l in text.splitlines() if l.startswith("probes"))
    assert int(probes.split()[1]) == 2
    bracket = next(l for l in text.splitlines() if l.startswith("bracket"))
    low, high = (float(v) for v in bracket.split(None, 1)[1].strip("[]").split(","))
    assert low == rho_star
    assert rho_star < 0.19 < high <= rho_star + 1e-4


def test_certify_rate_infeasible_at_range_prints_no_rate(capsys):
    # kappa 12 lies past nag-sq's kappa*, so its one-step rate is 0 and
    # the lowest probe already fails: no rate is certified or bracketed.
    rc = main([
        "certify", "--optimizer", "nag-sq", "--gamma", "1", "--beta", "12", "--rate",
    ])
    assert rc == EXIT_NEGATIVE
    lines = capsys.readouterr().out.splitlines()
    assert "status         Infeasible-at-range" in lines
    assert "rho_star       none" in lines
    assert "probes         1" in lines
    assert not any(line.startswith("bracket") for line in lines)


def test_certify_rate_honours_seed(tmp_path, capsys):
    out = tmp_path / "f.json"
    rc = main([
        "certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0", "--rate",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert "Certified" in capsys.readouterr().out
    assert json.loads(out.read_text())["solver_seed"] == 5


def test_certify_rate_options(monkeypatch, capsys):
    # --rate starts from the solver's own defaults, as the plain mode does;
    # --seed overrides them, and the old --restarts flag is a usage error.
    seen = []

    def spy(system, bounds, name, options=None):
        seen.append(options)
        return RateResult("Infeasible-at-range", None, None, [])

    monkeypatch.setattr(cli, "certify_rate", spy)
    base = ["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0", "--rate"]
    assert main(base + ["--seed", "9"]) == EXIT_NEGATIVE
    assert main(base) == EXIT_NEGATIVE
    assert seen == [SolverOptions(seed=9), SolverOptions()]
    assert capsys.readouterr().out.count("reference      none\n") == 2
    with pytest.raises(SystemExit) as exc:
        main(base + ["--restarts", "3"])
    assert exc.value.code == EXIT_USAGE
    assert len(seen) == 2


def test_certify_invalid_sector_exit_64(capsys):
    rc = main(["certify", "--optimizer", "sgd", "--gamma", "2.0", "--beta", "1.0"])
    assert rc == EXIT_USAGE
    assert "gamma" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_calls_independent(capsys):
    assert cli._build_parser() is cli._build_parser()
    sgd = ["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0"]
    heavyball = ["certify", "--optimizer", "heavyball", "--gamma", "0.1", "--beta", "1.0",
                 "--eta", "1", "--mu", "0.3"]
    outs = []
    # heavyball's --mu 0.3 must not carry over into the next sgd call,
    # which would then be rejected for a non-zero --mu
    for argv in (sgd, heavyball, sgd):
        assert main(argv) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert "optimizer      sgd" in outs[0] and "optimizer      heavyball" in outs[1]
    assert outs[2] == outs[0]
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--optimizer", "sgd"])
    assert exc.value.code == EXIT_USAGE
    assert "--gamma" in capsys.readouterr().err
    assert main(sgd) == EXIT_OK
    assert capsys.readouterr().out == outs[0]


_CERTIFY = ["certify", "--gamma", "0.1", "--beta", "1.0"]


@pytest.mark.parametrize("argv, message", [
    ([*_CERTIFY, "--optimizer", "nag-sq", "--eta", "5"], "--eta does not apply to nag-sq"),
    ([*_CERTIFY, "--optimizer", "sgd", "--mu", "0.9"], "--mu does not apply to sgd"),
    ([*_CERTIFY, "--optimizer", "sgd", "--mu", "0"], "--mu does not apply to sgd"),
    ([*_CERTIFY, "--optimizer", "nag-sq", "--mu", "0.9"], "--mu does not apply to nag-sq"),
    ([*_CERTIFY, "--optimizer", "sgd", "--seed", "-1"], "seed"),
    ([*_CERTIFY, "--optimizer", "sgd", "--eta", "3", "--seed", "-1"], "seed"),
    (["simulate", "vs-n", "--optimizer", "sgd", "--eta", "0.05", "--mu", "0.5"],
     "--mu does not apply to sgd"),
], ids=["nag-sq-eta", "sgd-mu", "sgd-mu-zero", "nag-sq-mu", "feasible-seed-negative",
        "infeasible-seed-negative", "simulate-sgd-mu"])
def test_certify_rejects_flags_it_would_ignore_or_misuse(argv, message, capsys):
    # Rejected before any solve or run: nothing on stdout, the flag and
    # the optimizer named on stderr, even for a --mu equal to heavyball's
    # default.  simulate rejects a flag by the same rule as certify.
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, same_as", [
    ([*_CERTIFY, "--optimizer", "heavyball", "--mu", "0.1"],
     [*_CERTIFY, "--optimizer", "heavyball", "--eta", "1", "--mu", "0.1"]),
    ([*_CERTIFY, "--optimizer", "heavyball", "--eta", "1"],
     [*_CERTIFY, "--optimizer", "heavyball", "--eta", "1", "--mu", "0"]),
    (["simulate", "vs-n", *TINY_SIM, "--sizes", "10,20,30", "--mu", "0.5"],
     ["simulate", "vs-n", *TINY_SIM, "--sizes", "10,20,30", "--optimizer", "nag",
      "--eta", "0.01", "--mu", "0.5"]),
    (["simulate", "vs-n", *TINY_SIM, "--sizes", "10,20,30", "--optimizer", "sgd"],
     ["simulate", "vs-n", *TINY_SIM, "--sizes", "10,20,30", "--optimizer", "sgd",
      "--eta", "0.01"]),
], ids=["certify-heavyball-eta-default", "certify-heavyball-mu-default", "simulate-nag-mu",
        "simulate-sgd-eta-default"])
def test_flags_an_optimizer_reads_are_accepted_and_default(argv, same_as, capsys):
    # A flag left out takes its command's default: eta 1/beta and mu 0 for
    # certify, eta 0.01 and mu 0.9 for simulate.
    outs = []
    for args in (argv, same_as):
        assert main(args) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out.split("run time")[0])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("grid", [["--rho-points", "0"], ["--eps-points", "0"]])
def test_lyapunov_rejected_sweep_prints_nothing(grid, capsys):
    assert main(["lyapunov", "--kappa", "2", *grid]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grids must be non-empty" in captured.err


@pytest.mark.parametrize("flag", ["--eps-points", "--rho-points"])
def test_lyapunov_negative_grid_count_names_its_flag(flag, capsys):
    assert main(["lyapunov", "--kappa", "2", flag, "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be >= 1, got -1" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["bound", "-G", "nan", "--gamma", "0.1", "--beta", "1", "-n", "10", "-T", "10"],
     "Lipschitz constant must be finite, got nan"),
    (["bound", "-G", "inf", "--gamma", "0.1", "--beta", "1", "-n", "10", "-T", "10"],
     "Lipschitz constant must be finite, got inf"),
    (["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1", "--eta", "nan"],
     "step size must be positive and finite, got nan"),
    (["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "inf"],
     "need finite 0 < gamma <= beta, got gamma=0.1, beta=inf"),
    (["lyapunov", "--kappa", "inf"], "condition number must be finite and >= 1, got inf"),
    (["lyapunov", "--kappa", "0.5"], "condition number must be finite and >= 1, got 0.5"),
    (["lyapunov", "--kappa", "2", "--eps", "nan", "--rho", "0.05"],
     "eps must be positive and finite, got nan"),
    (["lyapunov", "--kappa", "2", "--eps", "inf", "--rho", "0.05"],
     "eps must be positive and finite, got inf"),
    (["simulate", "vs-t", "--lambda-reg", "nan"],
     "regularization lambda_reg must be positive and finite, got nan"),
    (["simulate", "vs-t", "--separation", "nan"], "separation must be finite, got nan"),
    (["simulate", "vs-n", "--probes", "-3", "--trials", "2", "--horizon", "200",
      "--sizes", "50,100,200", "--checkpoints", "100"], "probes must be >= 0, got -3"),
    (["simulate", "vs-t", "--optimizer", "sgd", "--eta", "100"],
     "optimizer does not contract over the data sector"),
    # Out of range as given, not as rescaled or rounded downstream.
    (["certify", "--optimizer", "nag-sq", "--gamma", "1", "--beta", "1e40"],
     "condition number 1e+40 is too large: the tuned momentum rounds to 1"),
    (["bound", "-G", "1", "--gamma", "1", "--beta", "1e40", "-n", "10", "-T", "10"],
     "condition number 1e+40 is too large: the tuned momentum rounds to 1"),
    (["lyapunov", "--kappa", "1e300"],
     "condition number 1e+300 is too large: the tuned momentum rounds to 1"),
    (["certify", "--optimizer", "sgd", "--gamma", "1e-200", "--beta", "1e200"],
     "need a finite kappa = beta/gamma, got gamma=1e-200, beta=1e+200"),
    (["simulate", "vs-n", "--seed", "-1"], "master_seed must be >= 0, got -1"),
], ids=["bound-G-nan", "bound-G-inf", "certify-eta-nan", "certify-beta-inf", "lyapunov-kappa-inf",
        "lyapunov-kappa-below-1", "lyapunov-eps-nan", "lyapunov-eps-inf", "simulate-lambda-reg-nan", "simulate-separation-nan",
        "simulate-probes-negative", "simulate-sgd-eta-no-contraction", "certify-nag-sq-kappa-1e40",
        "bound-kappa-1e40", "lyapunov-kappa-1e300", "certify-kappa-overflows",
        "simulate-negative-seed"])
def test_non_finite_inputs_exit_64(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_lyapunov_region_found(capsys):
    rc = main(["lyapunov", "--kappa", "2"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "feasible pairs" in text
    assert "best" in text
    assert "P_eps" in text
    assert "ideal rate" in text


def test_lyapunov_region_empty_exit_2(capsys):
    rc = main(["lyapunov", "--kappa", "10"])
    assert rc == EXIT_NEGATIVE
    assert "region empty" in capsys.readouterr().out


def test_lyapunov_single_pair_modes(capsys):
    rc = main(["lyapunov", "--kappa", "2", "--eps", "1.0", "--rho", "0.05"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "certified" in text and "P_eps" in text

    rc = main(["lyapunov", "--kappa", "10", "--eps", "1.0", "--rho", "0.05"])
    assert rc == EXIT_NEGATIVE
    text = capsys.readouterr().out
    assert "not certified" in text
    # the failing direction is named: the slow edge alpha = 0.9
    assert "alpha=0.9" in text

    rc = main(["lyapunov", "--kappa", "2", "--eps", "1.0"])
    assert rc == EXIT_USAGE
    assert "both --eps and --rho" in capsys.readouterr().err


def test_lyapunov_bad_kappa(capsys):
    rc = main(["lyapunov", "--kappa", "0.5"])
    assert rc == EXIT_USAGE


def test_bound_table(capsys):
    rc = main([
        "bound", "-G", "2", "--gamma", "0.1", "--beta", "1.0",
        "-n", "100", "-T", "1000",
    ])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    for name in ("nag-param", "nag-loss", "sgd-loss", "cjy-comparison"):
        assert name in text
    # sgd closed form: 2*4/(0.1*100) = 0.8
    sgd_line = next(l for l in text.splitlines() if l.startswith("sgd-loss"))
    assert float(sgd_line.split()[1]) == pytest.approx(0.8)
    # loss row is G times the parameter row
    param_line = next(l for l in text.splitlines() if l.startswith("nag-param"))
    loss_line = next(l for l in text.splitlines() if l.startswith("nag-loss"))
    assert float(loss_line.split()[1]) == pytest.approx(
        2.0 * float(param_line.split()[1]), rel=1e-4
    )


def test_bound_zero_gradient_bound_gives_zero_rows(capsys):
    # G = 0 is a valid gradient bound: the G-scaled rows read 0, and the
    # cjy comparison, which reads no G, does not.
    rc = main(["bound", "-G", "0", "--gamma", "0.1", "--beta", "1", "-n", "1000", "-T", "2000"])
    assert rc == EXIT_OK
    rows = {l.split()[0]: l.split()[1:] for l in capsys.readouterr().out.splitlines()}
    for name in ("nag-param", "nag-loss", "sgd-loss"):
        assert rows[name] == ["0", "0"]
    assert float(rows["cjy-comparison"][0]) > 0.0


def test_bound_names_rho_source(capsys):
    base = ["bound", "-G", "2", "--gamma", "0.1", "--beta", "1.0", "-n", "100", "-T", "1000"]
    assert main(base) == EXIT_OK
    text = capsys.readouterr().out
    assert "rho source     fixed_curvature_rate (single curvature, not certified)" in text
    assert main(base + ["--rho", "0.2"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "rho source     --rho (given)" in text
    assert "rho=0.2" in text


def test_bound_bad_rho_exit_64(capsys):
    rc = main([
        "bound", "-G", "2", "--gamma", "0.1", "--beta", "1.0",
        "-n", "100", "-T", "1000", "--rho", "2.0",
    ])
    assert rc == EXIT_USAGE


def test_simulate_vs_n_csv_and_json(tmp_path, capsys):
    out_csv = tmp_path / "vsn.csv"
    out_json = tmp_path / "vsn.json"
    rc = main([
        "simulate", "vs-n", *TINY_SIM,
        "--optimizer", "sgd", "--eta", "0.05",
        "--sizes", "10,15,20", "--checkpoints", "30,60", "--probes", "4",
        "--out", str(out_csv), "--json", str(out_json),
    ])
    assert rc == EXIT_OK
    assert "log-log slope" in capsys.readouterr().out

    raw = out_csv.read_bytes()
    assert b"\r" not in raw  # plain LF rows
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "n,mean_param_diff,max_param_diff,mean_loss_gap"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[0]) in (10, 15, 20)
        assert all(float(c) >= 0.0 for c in cells[1:])

    report = json.loads(out_json.read_text())
    assert report["experiment"] == "vs_n"
    assert report["sizes"] == [10, 15, 20]
    assert report["master_seed"] == 123
    assert len(report["mean_param_diff"]) == 3
    assert isinstance(report["slope"], float) and isinstance(report["r2"], float)
    assert report["sector"]["grad_bound"] > 0.0
    assert report["sector"]["gamma"] < report["sector"]["beta"]


def test_simulate_vs_n_two_sizes_reports_no_fit(tmp_path, capsys):
    out_json = tmp_path / "vsn2.json"
    rc = main([
        "simulate", "vs-n", *TINY_SIM,
        "--optimizer", "sgd", "--eta", "0.05",
        "--sizes", "10,20", "--checkpoints", "60", "--probes", "0",
        "--json", str(out_json),
    ])
    assert rc == EXIT_OK
    assert "n/a" in capsys.readouterr().out
    report = json.loads(out_json.read_text())
    assert report["slope"] is None and report["r2"] is None


def test_simulate_vs_n_zero_mean_gap_reports_no_fit(capsys):
    # At 50 steps two of the four default sizes have a mean gap of 0.
    rc = main(["simulate", "vs-n", "--trials", "2", "--horizon", "50", "--checkpoints", "10"])
    assert rc == EXIT_OK
    assert "log-log slope  n/a (a mean gap is 0)" in capsys.readouterr().out


def test_simulate_vs_n_diverged_run_reports_no_fit(capsys):
    # eta = 5000 overflows every run to a NaN gap; that is not a zero gap.
    rc = main(["simulate", "vs-n", *TINY_SIM, "--optimizer", "sgd", "--eta", "5000",
               "--horizon", "600", "--sizes", "10,20,30", "--probes", "0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "mean ParamDiff nan  nan  nan" in out
    assert "log-log slope  n/a (a mean gap is not finite: the run diverged)" in out


def test_simulate_vs_n_infinite_gap_reports_no_fit_and_writes_null(tmp_path, capsys):
    # eta = 1e4 overflows every gap to +inf by step 240 (to NaN later):
    # +inf is positive but has no finite logarithm, and JSON has no inf.
    out_csv, out_json = tmp_path / "div.csv", tmp_path / "div.json"
    rc = main(["simulate", "vs-n", *TINY_SIM, "--optimizer", "sgd", "--eta", "1e4",
               "--horizon", "240", "--sizes", "10,20,30", "--probes", "0",
               "--out", str(out_csv), "--json", str(out_json)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "mean ParamDiff inf  inf  inf" in out
    assert "log-log slope  n/a (a mean gap is not finite: the run diverged)" in out

    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    report = json.loads(out_json.read_text(), parse_constant=reject)
    assert report["mean_param_diff"] == [None, None, None]
    assert report["slope"] is None and report["r2"] is None
    assert out_csv.read_text().splitlines()[1].split(",")[1] == "inf"


def test_simulate_vs_n_counts_a_repeated_size_once(capsys):
    assert main(["simulate", "vs-n", *TINY_SIM, "--sizes", "10,10,20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sizes          (10, 20)" in out
    assert "log-log slope  n/a (need at least 3 subset sizes)" in out
    assert f"({2 * 60 * 2} coupled steps" in out


def test_simulate_vs_n_ignores_default_checkpoints(capsys):
    # The default checkpoints run past a 500-step horizon; vs-n reads none.
    assert main(["simulate", "vs-n", "--horizon", "500", "--trials", "2"]) == EXIT_OK
    assert "log-log slope" in capsys.readouterr().out


def test_simulate_vs_n_ignores_checkpoint_below_one(capsys):
    # A checkpoint below 1 is a vs-t error only; vs-n reads no checkpoint.
    rc = main(["simulate", "vs-n", *TINY_SIM, "--sizes", "10,20,30", "--checkpoints", "0"])
    assert rc == EXIT_OK
    assert "log-log slope" in capsys.readouterr().out


def test_simulate_vs_t_csv_and_json(tmp_path, capsys):
    out_csv = tmp_path / "vst.csv"
    out_json = tmp_path / "vst.json"
    rc = main([
        "simulate", "vs-t", *TINY_SIM,
        "--sizes", "10", "--checkpoints", "20,40,60", "--probes", "0",
        "--out", str(out_csv), "--json", str(out_json),
    ])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "envelope rho" in text
    assert "saturating fit" in text

    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "T,mean_param_diff"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [20, 40, 60]

    report = json.loads(out_json.read_text())
    assert report["experiment"] == "vs_t"
    assert report["checkpoints"] == [20, 40, 60]
    assert 0.0 < report["rho"] < 1.0
    assert report["t_half"] > 0.0
    assert report["sector"]["grad_bound"] > 0.0


def test_simulate_json_reports_timing(tmp_path, capsys):
    # The coupled steps run: trials * horizon * sizes for vs-n, and
    # trials * the last checkpoint for vs-t, which stops there.
    for mode, sizes, checkpoints, steps in (
        ("vs-n", "10,15,20", "20,40,60", 2 * 60 * 3),
        ("vs-t", "10", "20,40,60", 2 * 60),
        ("vs-t", "10", "30,20,40", 2 * 40),
    ):
        out_json = tmp_path / f"{mode}.json"
        rc = main([
            "simulate", mode, *TINY_SIM,
            "--sizes", sizes, "--checkpoints", checkpoints, "--probes", "0",
            "--json", str(out_json),
        ])
        assert rc == EXIT_OK
        assert f"({steps} coupled steps" in capsys.readouterr().out
        report = json.loads(out_json.read_text())
        assert report["coupled_steps"] == steps
        assert report["seconds"] > 0.0
        assert report["steps_per_s"] == pytest.approx(
            report["coupled_steps"] / report["seconds"])


_SHARED_SIM_KEYS = {"experiment", "dataset", "sector", "master_seed", "seconds",
                    "coupled_steps", "steps_per_s"}
_CERT_KEYS = {"optimizer", "gamma", "beta", "P", "lambda", "tau", "rho", "lmi_max_eig",
              "p_min_eig", "status", "solver_seed", "newton_steps"}


@pytest.mark.parametrize("argv, keys", [
    (["simulate", "vs-n", *TINY_SIM, "--sizes", "10,20,30", "--json", "OUT"],
     _SHARED_SIM_KEYS | {"sizes", "mean_param_diff", "slope", "intercept", "r2", "trials",
                         "horizon"}),
    (["simulate", "vs-t", *TINY_SIM, "--sizes", "10", "--checkpoints", "20,40,60",
      "--json", "OUT"],
     _SHARED_SIM_KEYS | {"size", "checkpoints", "mean_param_diff", "rho", "t_half",
                         "fit_region", "loglog_slope", "sat_coeff", "sat_r2"}),
    (["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1", "--out", "OUT"],
     _CERT_KEYS),
    (["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1", "--rate",
      "--out", "OUT"], _CERT_KEYS),
], ids=["vs-n", "vs-t", "certify", "certify-rate"])
def test_json_outputs_have_fixed_key_sets(tmp_path, capsys, argv, keys):
    out = tmp_path / "out.json"
    assert main([str(out) if a == "OUT" else a for a in argv]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert set(doc) == keys
    if "sector" in doc:
        assert set(doc["sector"]) == {"gamma", "beta", "grad_bound"}


def test_simulate_reads_csv_dataset(tmp_path):
    rows = ["f1,f2,label"]
    for i in range(40):
        rows.append(f"{0.1 * i},{(-1) ** i * 0.5},{i % 2}")
    data = tmp_path / "set.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main([
        "simulate", "vs-n", "--data", str(data),
        "--optimizer", "sgd", "--eta", "0.05", "--horizon", "40", "--trials", "2",
        "--sizes", "10,20", "--checkpoints", "40", "--probes", "2", "--seed", "5",
    ])
    assert rc == EXIT_OK


def test_simulate_missing_file_exit_66(tmp_path, capsys):
    rc = main([
        "simulate", "vs-n", "--data", str(tmp_path / "nope.csv"),
        "--sizes", "10,20", "--checkpoints", "40", "--horizon", "40",
    ])
    assert rc == EXIT_NOINPUT
    assert "cannot read" in capsys.readouterr().err


def test_simulate_unreadable_data_exit_66(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for data in (tmp_path, blocker / "x.csv"):
        rc = main([
            "simulate", "vs-n", "--data", str(data),
            "--sizes", "10,20", "--checkpoints", "40", "--horizon", "40",
        ])
        assert rc == EXIT_NOINPUT
        assert "cannot read input" in capsys.readouterr().err


def test_simulate_unwritable_out_exit_73(tmp_path, capsys):
    for flag in ("--out", "--json"):
        rc = main([
            "simulate", "vs-t", *TINY_SIM,
            "--sizes", "10", "--checkpoints", "20,40,60", "--probes", "0",
            flag, str(tmp_path),
        ])
        assert rc == EXIT_CANTCREAT
        captured = capsys.readouterr()
        assert "saturating fit" in captured.out
        assert "cannot write output" in captured.err


def test_simulate_malformed_csv_exit_66(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,label\nfoo,1\n", encoding="utf-8")
    rc = main([
        "simulate", "vs-n", "--data", str(bad),
        "--sizes", "2,4", "--checkpoints", "10", "--horizon", "10",
    ])
    assert rc == EXIT_NOINPUT
    assert "bad input data" in capsys.readouterr().err

    # float() parses nan and inf, but no cell may be non-finite.
    for cell in ("nan", "inf"):
        bad = tmp_path / f"{cell}.csv"
        bad.write_text(f"a,label\n1.0,1\n{cell},0\n2.0,0\n", encoding="utf-8")
        rc = main([
            "simulate", "vs-n", "--data", str(bad),
            "--sizes", "2,3", "--checkpoints", "10", "--horizon", "10",
        ])
        assert rc == EXIT_NOINPUT
        assert f"{bad}:3: non-finite cell" in capsys.readouterr().err

    single = tmp_path / "single.csv"
    single.write_text("a,label\n1.0,1\n2.0,1\n", encoding="utf-8")
    rc = main([
        "simulate", "vs-n", "--data", str(single),
        "--sizes", "1,2", "--checkpoints", "10", "--horizon", "10",
    ])
    assert rc == EXIT_NOINPUT


@pytest.mark.parametrize("mode, driver", [("vs-n", "stability_vs_n"), ("vs-t", "stability_vs_t")])
def test_simulate_defaults_are_the_experiment_config(monkeypatch, mode, driver):
    # With no protocol flag, the driver gets the library's own defaults.
    seen = []

    class Captured(Exception):
        pass

    def capture(base, config):
        seen.append(config)
        raise Captured

    monkeypatch.setattr(cli, driver, capture)
    with pytest.raises(Captured):
        main(["simulate", mode])
    assert seen == [simulate.ExperimentConfig()]


def test_simulate_bad_sizes_exit_64(capsys):
    rc = main([
        "simulate", "vs-n", *TINY_SIM, "--sizes", "a,b", "--checkpoints", "30",
    ])
    assert rc == EXIT_USAGE
    assert "comma-separated integers" in capsys.readouterr().err
    assert main(["simulate", "vs-n", *TINY_SIM, "--sizes", ","]) == EXIT_USAGE
    assert "expected at least one integer" in capsys.readouterr().err


def test_simulate_checkpoint_past_horizon_exit_64(capsys):
    rc = main([
        "simulate", "vs-t", *TINY_SIM,
        "--sizes", "10,20", "--checkpoints", "500",
    ])
    assert rc == EXIT_USAGE
    assert "horizon" in capsys.readouterr().err


def test_simulate_repeated_checkpoints_exit_64(capsys):
    # 20,20,60 is two distinct checkpoints, too few for the growth fits.
    rc = main([
        "simulate", "vs-t", *TINY_SIM,
        "--sizes", "10", "--checkpoints", "20,20,60", "--probes", "0",
    ])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "three checkpoints" in captured.err and "2 distinct" in captured.err
    assert "fit region" not in captured.out


def test_simulate_checkpoint_below_one_exit_64(monkeypatch, capsys):
    # Rejected with the config, before any coupled step is taken.
    def no_stepping(*args):
        raise AssertionError("stepped despite a checkpoint below 1")

    monkeypatch.setattr(simulate, "_lockstep", no_stepping)
    rc = main([
        "simulate", "vs-t", *TINY_SIM,
        "--sizes", "10", "--checkpoints", "0,10,50,60",
    ])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "checkpoints must be >= 1, got 0" in err
    assert "log-log" not in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stabcert", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("stabcert ")


def _map_rows(text: str) -> list:
    return [line[2:] for line in text.splitlines()
            if line.startswith("  ") and line[2:] and set(line[2:]) <= {"#", "."}]


def test_lyapunov_feasibility_map(capsys):
    for kappa, code in (("2", EXIT_OK), ("3", EXIT_NEGATIVE)):
        rc = main(["lyapunov", "--kappa", kappa, "--eps-points", "8", "--rho-points", "4"])
        assert rc == code
        text = capsys.readouterr().out
        rows = _map_rows(text)
        assert len(rows) == 4 and all(len(row) == 8 for row in rows)
        feasible = next(l for l in text.splitlines() if l.startswith("feasible pairs"))
        assert sum(row.count("#") for row in rows) == int(feasible.split()[-1])
        # rows are rho, growing downward, and a pair valid at rho stays
        # valid at any smaller rho
        counts = [row.count("#") for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert ("#" in text) == (kappa == "2")


def test_certify_runs_each_check_once(monkeypatch, capsys):
    calls = {}
    for owner in (sdp, cli):
        for name in ("verify_certificate", "s_lemma_cross_check", "verify_infeasibility"):
            if not hasattr(owner, name):
                continue

            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
    base = ["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0"]
    assert main(base) == EXIT_OK
    assert calls == {"verify_certificate": 1, "s_lemma_cross_check": 1}
    assert "sampled slack" in capsys.readouterr().out
    calls.clear()
    assert main(base + ["--eta", "3.0"]) == EXIT_NEGATIVE
    assert calls == {"verify_infeasibility": 1}
    assert "witness        verified" in capsys.readouterr().out


def test_certify_prints_the_stop_reason_only_when_not_centered(monkeypatch, capsys):
    base = ["certify", "--optimizer", "sgd", "--gamma", "0.1", "--beta", "1.0"]
    assert main(base) == EXIT_OK
    assert "stopped" not in capsys.readouterr().out
    monkeypatch.setattr(cli, "SolverOptions", lambda seed: SolverOptions(max_iters=5, seed=seed))
    main(base)
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("newton steps   5") + 1] == "stopped        step cap"
