import argparse
import csv
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import jacobi_mimo
from _oracles import render_table
from jacobi_mimo import cli
from jacobi_mimo.cli import main

HEADER = ["r", "pout_mc", "ci_lo", "ci_hi", "pout_exact", "pout_ld", "pout_gauss"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, raw = line[2:].partition(": ")
            meta[key] = json.loads(raw)
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:]


BASE = ["outage", "--N", "2", "--Nt", "1", "--Nr", "1", "--rho", "3"]
K_CHANNEL = ["density", "--N", "4", "--Nt", "2", "--Nr", "2", "--rho", "3", "--kind", "constrained"]
# the README's outage example at 20000 trials
README_OUTAGE = ["outage", "--N", "18", "--Nt", "6", "--Nr", "6", "--rho", "20", "--r-min", "1.2", "--r-max", "1.7",
                 "--points", "11", "--methods", "mc,exact,ld,gauss", "--trials", "20000", "--seed", "1",
                 "--reproducible"]
# one request per layer: the argvs of perfbench.workloads.warmup_argvs()
WARMUP_ARGVS = [
    ["outage", "--N", "4", "--Nt", "2", "--Nr", "2", "--rho", "10", "--points", "3",
     "--methods", "mc,exact,ld,gauss", "--trials", "2048", "--seed", "1"],
    ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--kind", "constrained",
     "--r", "0.5", "--format", "json"],
    ["ergodic", "--N", "24", "--Nt", "8", "--Nr", "8", "--rho", "10"],
]


def test_outage_flat_law_exact_column_and_mc_ci():
    code, out, err = run_cli(
        BASE
        + ["--points", "5", "--methods", "mc,exact", "--trials", "100000", "--seed", "4", "--reproducible"]
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == HEADER
    assert len(rows) == 5
    covered = 0
    for row in rows:
        r = float(row[0])
        exact = float(row[4])
        assert abs(exact - (math.exp(r) - 1.0) / 3.0) < 1e-9
        lo, hi = float(row[2]), float(row[3])
        covered += lo <= exact <= hi
        assert row[5] == "" and row[6] == ""  # ld/gauss disabled -> empty
    assert covered >= 4  # 95% intervals may individually miss


def test_outage_deterministic_bytes():
    args = BASE + ["--points", "4", "--methods", "mc,gauss", "--trials", "20000", "--seed", "9", "--reproducible"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    # without --reproducible a wall-time field appears
    code3, out3, _ = run_cli(args[:-1])
    assert "wall_time_s" in out3 and "wall_time_s" not in out1


def test_outage_json_roundtrip_and_meta_echo():
    code, out, _ = run_cli(
        BASE + ["--points", "3", "--methods", "ld,gauss", "--format", "json", "--reproducible"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["config"] == {"N": 2, "Nt": 1, "Nr": 1, "rho": 3.0, "bits": False}
    assert doc["meta"]["methods"] == ["ld", "gauss"]
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        assert row["pout_mc"] is None
        assert 0.0 <= row["pout_ld"] <= 1.0
        assert 0.0 <= row["pout_gauss"] <= 1.0


def test_outage_bits_conversion():
    nats_code, nats_out, _ = run_cli(
        BASE + ["--points", "3", "--methods", "gauss", "--format", "json", "--reproducible"]
    )
    bits_code, bits_out, _ = run_cli(
        BASE + ["--points", "3", "--methods", "gauss", "--format", "json", "--bits", "--reproducible"]
    )
    nats = json.loads(nats_out)["rows"]
    bits = json.loads(bits_out)["rows"]
    # default grid spans the same achievable window, reported in each unit
    for na, bi in zip(nats, bits):
        assert abs(bi["r"] - na["r"] / math.log(2.0)) < 1e-12
        assert abs(bi["pout_gauss"] - na["pout_gauss"]) < 1e-12


LN2 = math.log(2.0)
# the power of ln 2 that a field's bits value is multiplied by to give its
# nats value: rates 1, the rate variance v_erg 2, the multiplier k = dDeltaE/dr
# -1; the other fields carry no rate unit and must not move at all
BITS_POWER = {"r": 1, "r_erg": 1, "v_erg": 2, "k": -1}


def assert_bits_record_matches_nats(bits: dict, nats: dict):
    assert bits.keys() == nats.keys()
    for key, value in nats.items():
        power = BITS_POWER.get(key, 0)
        if power:
            assert abs(bits[key] * LN2**power - value) <= 4 * math.ulp(value), (key, bits[key], value)
        else:
            assert bits[key] == value, key


@pytest.mark.parametrize(
    "nats_argv, bits_argv",
    [
        (["ergodic", "--N", "24", "--Nt", "8", "--Nr", "8", "--rho", "10"], None),
        (["density", "--N", "24", "--Nt", "8", "--Nr", "8", "--rho", "10", "--kind", "ergodic"], None),
        # (5,3,3) reduces with a rate offset, which r_erg carries in the request's unit
        (["ergodic", "--N", "5", "--Nt", "3", "--Nr", "3", "--rho", "3"], None),
        # each --k and --r below converts to exactly the nats value, so the solve is the same
        (["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--kind", "constrained", "--k", "1.5"],
         ["--k", repr(1.5 * LN2)]),
        (["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--kind", "constrained", "--r", "0.3"],
         ["--r", repr(0.3 / LN2)]),
    ],
    ids=["ergodic", "density-ergodic", "ergodic-reduced", "density-k", "density-r"],
)
def test_bits_run_is_the_nats_run_field_by_field(nats_argv, bits_argv):
    argv = nats_argv[:-2] + bits_argv if bits_argv else nats_argv
    if bits_argv:  # the CLI reads --r as bits * ln 2 and --k as bits / ln 2
        value = float(bits_argv[1])
        assert (value * LN2 if bits_argv[0] == "--r" else value / LN2) == float(nats_argv[-1])
    docs = []
    for run in (nats_argv, argv + ["--bits"]):
        code, out, err = run_cli(run + ["--format", "json", "--reproducible"])
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    nats, bits = docs
    assert (nats["meta"].pop("rate_unit"), bits["meta"].pop("rate_unit")) == ("nats", "bits")
    assert (nats["meta"]["config"].pop("bits"), bits["meta"]["config"].pop("bits")) == (False, True)
    assert_bits_record_matches_nats(bits["meta"], nats["meta"])
    assert len(bits["rows"]) == len(nats["rows"])
    for b, n in zip(bits["rows"], nats["rows"]):
        assert_bits_record_matches_nats(b, n)


def test_failed_rate_warning_names_the_rate_in_the_requests_unit(monkeypatch):
    def fail(*args):
        raise ArithmeticError("injected")

    monkeypatch.setattr(cli, "gaussian_outage", fail)
    # 0.5 and 1.0 bits convert to nats and back exactly; the nats run's rates are the same numbers
    for unit in ([], ["--bits"]):
        code, _, err = run_cli(BASE + ["--methods", "gauss", "--rates", "0.5,1.0", "--reproducible", *unit])
        assert code == 1  # no usable row
        assert err.splitlines() == [f"warning: gauss: r={r} failed: injected" for r in ("0.5", "1.0")]


def test_outage_usage_errors():
    assert run_cli(BASE + ["--methods", ""])[0] == 2
    assert run_cli(BASE + ["--methods", "mc,bogus"])[0] == 2
    assert run_cli(BASE + ["--r-min", "0.0", "--r-max", "2.0"])[0] == 2  # outside open window
    assert run_cli(["outage", "--N", "2", "--Nt", "3", "--Nr", "1", "--rho", "3"])[0] == 2
    assert run_cli(BASE + ["--trials", "0"])[0] == 2
    assert run_cli(BASE + ["--seed", "-1"])[0] == 2
    assert run_cli(BASE + ["--seed", str(2**128)])[0] == 2
    assert run_cli(BASE + ["--workers", "0"]) == (2, "", "error: workers must be >= 1\n")
    assert run_cli(BASE + ["--points", "0"]) == (2, "", "error: --points must be >= 1\n")
    for rho in ("0", "-1"):
        argv = ["outage", "--N", "2", "--Nt", "1", "--Nr", "1", f"--rho={rho}"]
        assert run_cli(argv) == (2, "", f"error: rho must be positive and finite, with 1/rho finite, got {float(rho)!r}\n")


def test_outage_exact_auto_disabled_over_caps(tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, err = run_cli(
        [
            "outage", "--N", "12", "--Nt", "6", "--Nr", "6", "--rho", "2",
            "--points", "3", "--methods", "exact,gauss", "--trials", "10",
            "--output", str(out_path), "--reproducible",
        ]
    )
    assert code == 0
    assert "exact: disabled" in err
    meta, header, rows = parse_csv(out_path.read_text())
    assert all(row[4] == "" for row in rows)  # exact column empty
    assert all(row[6] != "" for row in rows)  # gauss column filled


@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "under-a-file", "below-a-file"])
def test_unwritable_output_is_a_usage_error(spy, tmp_path, where):
    # refused before the request runs: one error line, exit 2, no solve, no file
    calls = spy(cli, "ergodic_summary")
    path, reason = {  # the reason as the write reports it
        "missing-dir": (tmp_path / "no" / "such" / "x.csv", errno.ENOENT),
        "a-dir": (tmp_path, errno.EISDIR),
        "under-a-file": (tmp_path / "afile" / "x.csv", errno.ENOTDIR),
        "below-a-file": (tmp_path / "afile" / "sub" / "x.csv", errno.ENOTDIR),
    }[where]
    made = ["afile"] if where.endswith("-a-file") else []
    for name in made:
        (tmp_path / name).write_text("")
    argv = ["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3", "--output", str(path)]
    code, out, err = run_cli(argv)
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: cannot write --output {path}: {os.strerror(reason)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == made
    with pytest.raises(OSError) as write:
        open(path, "w")
    assert write.value.errno == reason


def test_worker_count_is_invisible():
    # --workers is accepted and echoed but changes nothing else; neither trial
    # count is a multiple of the block size, so the last block is partial
    for shape, trials in (((4, 2, 2), 30_000), ((7, 2, 3), 2 * 1024 + 452)):
        n, nt, nr = map(str, shape)
        argv = ["outage", "--N", n, "--Nt", nt, "--Nr", nr, "--rho", "10", "--points", "5",
                "--methods", "mc", "--trials", str(trials), "--seed", "3", "--reproducible"]
        csv_out, json_out = {}, {}
        for workers in (1, 2, 4):
            code, out, _ = run_cli(argv + ["--workers", str(workers)])
            assert code == 0
            assert f"# workers: {workers}\n" in out
            csv_out[workers] = out.replace(f"# workers: {workers}\n", "", 1)
            code, out, _ = run_cli(argv + ["--workers", str(workers), "--format", "json"])
            assert code == 0
            doc = json.loads(out)
            assert doc["meta"].pop("workers") == workers
            json_out[workers] = doc
        assert csv_out[1] == csv_out[2] == csv_out[4]
        assert json_out[1] == json_out[2] == json_out[4]


def test_output_write_failure_is_a_usage_error():
    # /dev/full opens for writing and then refuses the write itself
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    argv = ["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3", "--output", "/dev/full"]
    assert run_cli(argv) == (2, "", "error: cannot write --output /dev/full: No space left on device\n")


def _open_as_on_windows(file, mode="r", *args, newline=None, **kwargs):
    """``open`` with the text-mode default of Windows: unless newline="", each \\n is written as \\r\\n."""
    return open(file, mode, *args, newline="\r\n" if newline is None else newline, **kwargs)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_file_holds_the_bytes_stdout_gets(monkeypatch, tmp_path, fmt):
    # compared as bytes, since a file whose CSV rows end in \r\r\n or \n reads back
    # as the same text; the second opener writes as Windows would without newline=""
    argv = README_OUTAGE + ["--format", fmt]
    code, out, err = run_cli(argv)
    assert code == 0
    assert out.count("\r\n") == (12 if fmt == "csv" else 0)  # the header and 11 rows
    for opener in (open, _open_as_on_windows):
        monkeypatch.setattr(cli, "open", opener, raising=False)
        path = tmp_path / f"{opener.__name__}.{fmt}"
        assert run_cli(argv + ["--output", str(path)]) == (0, "", err)
        assert path.read_bytes() == out.encode()


def test_routes_look_their_solvers_up_when_they_run(spy):
    # a wrapper patched onto the solver names of the cli module, as a tracer
    # patches them, must see every call: the one Monte Carlo curve once per
    # request, each per-rate route once per rate
    log = spy(cli, ("outage_curve", "outage_exact", "outage_asymptotic", "gaussian_outage"))
    code, _, err = run_cli(
        BASE + ["--points", "4", "--methods", "mc,exact,ld,gauss", "--trials", "2048", "--reproducible"]
    )
    assert code == 0, err
    assert Counter(call.name for call in log) == {"outage_curve": 1, "outage_exact": 4, "outage_asymptotic": 4, "gaussian_outage": 4}


def test_outage_exit_one_when_no_usable_rows():
    # exact disabled over caps and no other method requested: every data
    # cell is empty, so the run reports solver failure
    code, out, err = run_cli(
        ["outage", "--N", "12", "--Nt", "6", "--Nr", "6", "--rho", "2",
         "--points", "2", "--methods", "exact", "--reproducible"]
    )
    assert code == 1
    assert "exact: disabled" in err


def test_outage_explicit_rate_list():
    code, out, _ = run_cli(
        BASE + ["--rates", "0.25,0.75,0.5", "--methods", "gauss", "--format", "json", "--reproducible"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["r"] for row in rows] == [0.25, 0.5, 0.75]  # sorted
    bad = run_cli(BASE + ["--rates", "0.25,oops"])
    assert bad[0] == 2


def test_rates_with_r_min_or_r_max_is_a_usage_error():
    # --r-min and --r-max shape only the default grid; given with --rates they used to be ignored
    for extra in (["--r-min", "0.1"], ["--r-max", "1.0"], ["--r-min", "0.1", "--r-max", "1.0"]):
        code, out, err = run_cli(BASE + ["--rates", "0.5", *extra])
        assert (code, out, err) == (2, "", "error: --r-min and --r-max do not apply with --rates\n")


def test_rate_refusal_names_the_smallest_rate_outside_the_window():
    # the rates are sorted before they are tested, so the refusal names the smallest
    code, out, err = run_cli(BASE + ["--rates", "2.0,0.5,-1.0,1.5"])
    assert (code, out, err) == (2, "", f"error: rate -1.0 outside the achievable open interval (0.0, {math.log(4.0)!r})\n")


def test_grid_ends_are_refused_as_stated():
    # the ends are tested before np.linspace builds the grid: an infinite end used to
    # reach it, warn twice and be refused as "rate nan", and --r-max 5 as the grid point 1.4
    window = f"outside the achievable open interval (0.0, {math.log(4.0)!r})\n"
    for extra, named in (
        (["--r-min", "inf", "--points", "3"], "inf"),
        (["--r-min", "0.5", "--r-max", "5", "--points", "11", "--methods", "gauss"], "5.0"),
        (["--r-min", "5", "--r-max", "0.5", "--methods", "gauss"], "5.0"),
        (["--r-min=-inf", "--r-max", "inf"], "-inf"),  # the smaller end is named
        (["--r-min", "-inf", "--r-max", "inf"], "-inf"),  # argparse alone takes "-inf" for an option
        (["--r-max", "nan"], "nan"),
    ):
        assert run_cli(BASE + extra) == (2, "", f"error: rate {named} {window}")


# (9,5,5) reduces with offset log(1+rho)/4.  As stated, this rate lies below
# offset + log(1+rho), but less the offset it rounds to log(1+rho) itself
EDGE_CHANNEL = ["--N", "9", "--Nt", "5", "--Nr", "5", "--rho", "0.00448667014015137"]
EDGE_RATE = "0.005595793800753973"


def test_window_edge_rate_is_refused_as_density_refuses_it():
    # it used to pass the CLI's window test and fail in the ld route: exit 1 with ld
    # alone, and an empty ld cell beside 1.0 in every other column with exit 0
    code, out, err = run_cli(["density", *EDGE_CHANNEL, "--kind", "constrained", "--r", EDGE_RATE])
    assert (code, out) == (2, "")
    assert err == (f"error: rate {EDGE_RATE} outside the achievable open interval "
                   "(0.0011191587601507946, 0.0055957938007539735); less the pinned offset it is "
                   "0.0044766350406031784 nats, not in (0, 0.0044766350406031784)\n")
    for methods in ("ld", "ld,gauss,exact,mc"):
        assert run_cli(["outage", *EDGE_CHANNEL, "--rates", EDGE_RATE, "--methods", methods]) == (2, "", err)


def test_every_accepted_rate_reaches_the_routes_inside_the_window(monkeypatch):
    # on reduced dims, the largest double below offset + log(1+rho) and the smallest
    # above the offset: the CLI refuses each or hands it to the routes strictly inside
    # (0, log(1+rho)); some 2% of the top-edge draws used to slip through at or past it
    seen = []

    def gauss(dims, snr, r):
        seen.append(r)
        return SimpleNamespace(p=0.5)

    monkeypatch.setattr(cli, "gaussian_outage", gauss)
    rng = np.random.default_rng(20240607)
    refused = 0
    for shape in ((9, 5, 5), (5, 3, 3), (7, 4, 5), (4, 3, 3)):
        for rho in (10.0 ** rng.uniform(-4.0, 4.0, 250)).tolist():
            top, offset = math.log1p(rho), jacobi_mimo.normalize_dims(*shape).pinned_rate(rho)
            for rate in (math.nextafter(offset + top, 0.0), math.nextafter(offset, math.inf)):
                channel = ["--N", str(shape[0]), "--Nt", str(shape[1]), "--Nr", str(shape[2]), "--rho", repr(rho)]
                code, out, err = run_cli(["outage", *channel, "--rates", repr(rate), "--methods", "gauss"])
                if code == 2:
                    assert out == "" and "outside the achievable open interval" in err
                    refused += 1
                else:
                    assert code == 0, err
                    assert 0.0 < seen.pop() < top
    assert not seen and 0 < refused < 1000  # the bottom edge always passes


def test_bits_rates_are_echoed_as_stated(monkeypatch):
    # r used to be the bits value times ln 2 over ln 2: 0.029999999999999995,
    # 0.09999999999999999 and 0.19999999999999998
    argv = ["outage", "--N", "4", "--Nt", "2", "--Nr", "2", "--rho", "3", "--bits",
            "--rates", "0.03,0.1,0.2", "--methods", "gauss", "--reproducible"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert [row[0] for row in parse_csv(out)[2]] == ["0.03", "0.1", "0.2"]
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    assert [row["r"] for row in json.loads(out)["rows"]] == [0.03, 0.1, 0.2]

    def fail(*args):
        raise ArithmeticError("injected")

    monkeypatch.setattr(cli, "gaussian_outage", fail)
    code, _, err = run_cli(argv)
    assert code == 1
    assert err.splitlines() == [f"warning: gauss: r={r} failed: injected" for r in ("0.03", "0.1", "0.2")]


@pytest.mark.parametrize(
    "argv, ref",
    [
        # references: the residue sum per sorted s at 1024 bits
        (["--N", "12", "--Nt", "4", "--Nr", "6", "--rho", "1e4", "--rates", "0.921"], 6.540826634514447e-79),
        (["--N", "11", "--Nt", "4", "--Nr", "5", "--rho", "0.01", "--rates", "0.000995033"], 1.4060010179017963e-11),
    ],
)
def test_outage_exact_deep_cancellation(argv, ref):
    code, out, _ = run_cli(["outage", *argv, "--methods", "exact", "--format", "json", "--reproducible"])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert abs(row["pout_exact"] - ref) <= 1e-9 * ref


@pytest.mark.parametrize(
    "channel, methods",
    [
        # the exact route at an integer and a non-integer 1 + rho
        (["--N", "12", "--Nt", "5", "--Nr", "5", "--rho", "10"], "exact,ld"),
        (["--N", "12", "--Nt", "5", "--Nr", "5", "--rho", "1.9952623149688795"], "exact,ld"),
        # the ld route in all four regimes: S01/S0b/Sa1, S0b/Sab and Sa1/Sab
        (["--N", "12", "--Nt", "6", "--Nr", "6", "--rho", "1"], "ld,gauss"),
        (["--N", "18", "--Nt", "6", "--Nr", "6", "--rho", "10"], "ld,gauss"),
        (["--N", "12", "--Nt", "4", "--Nr", "8", "--rho", "100"], "ld,gauss"),
    ],
    ids=["exact-12-5-5-rho10", "exact-12-5-5-rho10^0.3", "ld-12-6-6", "ld-18-6-6", "ld-12-4-8"],
)
def test_default_grid_solves_every_point_without_a_warning(channel, methods):
    # no route is disabled and no rate fails, and a repeat in the same process gives the same bytes
    argv = ["outage", *channel, "--methods", methods, "--points", "11", "--reproducible"]
    first = run_cli(argv)
    assert first[::2] == (0, "")
    assert run_cli(argv) == first


def test_density_ergodic_trapezoid_mass():
    code, out, _ = run_cli(
        ["density", "--N", "2", "--Nt", "1", "--Nr", "1", "--rho", "3", "--format", "json", "--reproducible"]
    )
    assert code == 0
    doc = json.loads(out)
    xs = np.array([row["x"] for row in doc["rows"]])
    ps = np.array([row["p"] for row in doc["rows"]])
    assert len(xs) == 512
    assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-4  # arcsine law, hardest case
    assert doc["meta"]["support"] == [0.0, 1.0]


def test_density_constrained_matches_ergodic_at_peak():
    erg_code, erg_out, _ = run_cli(
        ["density", "--N", "24", "--Nt", "8", "--Nr", "8", "--rho", "10",
         "--format", "json", "--grid-points", "64", "--reproducible"]
    )
    r_erg = json.loads(erg_out)["meta"]["r_erg"]
    con_code, con_out, _ = run_cli(
        ["density", "--N", "24", "--Nt", "8", "--Nr", "8", "--rho", "10",
         "--kind", "constrained", "--r", repr(r_erg), "--format", "json",
         "--grid-points", "64", "--reproducible"]
    )
    assert erg_code == con_code == 0
    erg_rows = json.loads(erg_out)["rows"]
    con_rows = json.loads(con_out)["rows"]
    for e_row, c_row in zip(erg_rows, con_rows):
        assert abs(e_row["x"] - c_row["x"]) < 1e-8
        assert abs(e_row["p"] - c_row["p"]) < 1e-8


DENSITY_CHANNEL = ["--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3"]


def density_reference(extra, n):
    """The DENSITY_CHANNEL table's (x, p) pairs, one scalar density call per node."""
    from jacobi_mimo.coulomb import (
        density_at, ergodic_density, ergodic_summary, solve_at_multiplier, solve_regime,
    )
    from jacobi_mimo.ensemble import SnrParam, normalize_dims

    dims = normalize_dims(9, 3, 3)
    n0, beta, snr = dims.n0, dims.beta, SnrParam(3.0)
    if not extra:
        erg = ergodic_summary(n0, beta, snr)
        a, b = erg.a, erg.b
        density = lambda x: ergodic_density(n0, beta, x)
    else:
        if extra[-2] == "--k":
            sol = solve_at_multiplier(n0, beta, snr, 1.5)
        else:
            sol = solve_regime(n0, beta, snr, 0.3 - dims.pinned_rate(3.0))
        a, b = sol.a, sol.b
        density = lambda x: density_at(sol, x)
    ref = []
    for i in range(n):
        u = (2.0 * i + 1.0) / n - 1.0
        x = a + (b - a) * (1.0 + u) ** 2 / (2.0 * (1.0 + u * u))
        ref.append((x, density(x)))
    return ref


# at 41 nodes libm's pow and (1+u)*(1+u) round one node's square apart
@pytest.mark.parametrize("n", [512, 41])
@pytest.mark.parametrize(
    "extra", [[], ["--kind", "constrained", "--k", "1.5"], ["--kind", "constrained", "--r", "0.3"]]
)
def test_density_table_matches_per_point_scalar_reference(extra, n):
    # the table was built one scalar density call per node before it moved
    # to one array pass; both formats must keep every byte
    ref = density_reference(extra, n)
    argv = ["density", *DENSITY_CHANNEL, *extra, "--grid-points", str(n), "--reproducible"]
    code, out, _ = run_cli(argv)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["x", "p"]
    assert rows == [[repr(x), repr(p)] for x, p in ref]
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    meta = json.loads(out)["meta"]
    assert out == json.dumps({"meta": meta, "rows": [{"x": x, "p": p} for x, p in ref]}) + "\n"


def run_captured(monkeypatch, argv):
    """run_cli(argv), with the metadata block and the columns its table was rendered from."""
    seen = {}
    meta_of, command = cli._meta, cli._COMMANDS[argv[0]]

    def meta(*args):
        seen["meta"] = meta_of(*args)
        return seen["meta"]

    def capture(args, ch):
        result = command(args, ch)
        seen["columns"] = result[1]
        return result

    with monkeypatch.context() as patched:
        patched.setattr(cli, "_meta", meta)
        patched.setitem(cli._COMMANDS, argv[0], capture)
        result = run_cli(argv)
    return result, seen["meta"], seen["columns"]


def gauss_cells(monkeypatch, *cells):
    """Make the gauss route give ``cells`` at the request's rates in turn; None raises."""
    it = iter(cells)

    def gauss(dims, snr, r):
        p = next(it)
        if p is None:
            raise ArithmeticError("injected")
        return SimpleNamespace(p=p)

    monkeypatch.setattr(cli, "gaussian_outage", gauss)


ODD_REGIME = 'S0b, "quoted", 1.0'  # a str cell holding the ", " JSON list separator


def odd_regime_record(monkeypatch):
    erg = cli.ergodic_summary(1.0, 1.0, cli.SnrParam(3.0))
    monkeypatch.setattr(cli, "ergodic_summary", lambda *args: SimpleNamespace(
        a=erg.a, b=erg.b, r=erg.r, v=erg.v, e0=erg.e0, regime=ODD_REGIME))


# case -> (argv, patch, the last column's cells in CSV and in JSON, or None
# when the oracle alone judges); JSON's NaN and infinities are read as their text
RENDER_CASES = {
    # a route that fails on one rate leaves a None cell
    "failed-cell": (BASE + ["--rates", "0.25,0.5,0.75", "--methods", "ld,gauss"],
                    lambda mp: gauss_cells(mp, 0.125, None, 0.5),
                    (["0.125", "", "0.5"], [0.125, None, 0.5])),
    "non-finite": (BASE + ["--rates", "0.25,0.5,0.75", "--methods", "gauss"],
                   lambda mp: gauss_cells(mp, math.nan, math.inf, -math.inf),
                   (["nan", "inf", "-inf"], ["NaN", "Infinity", "-Infinity"])),
    "mixed-routes": (BASE + ["--points", "4", "--methods", "mc,exact,ld,gauss", "--trials", "2048"],
                     lambda mp: None, None),
    "ergodic": (["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3"], lambda mp: None, None),
    "str-with-separator": (["ergodic", *DENSITY_CHANNEL], odd_regime_record, ([ODD_REGIME], [ODD_REGIME])),
    "density-2": (["density", *DENSITY_CHANNEL, "--grid-points", "2"], lambda mp: None, None),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_table_renders_as_the_row_by_row_oracle(monkeypatch, case, fmt):
    argv, patch, last = RENDER_CASES[case]
    patch(monkeypatch)
    (code, out, _), meta, columns = run_captured(monkeypatch, argv + ["--format", fmt, "--reproducible"])
    assert code == 0
    assert out == render_table(fmt, meta, columns)
    if last is None:
        return
    if fmt == "csv":
        cells = [row[-1] for row in parse_csv(out)[2]]
    else:
        cells = [list(row.values())[-1] for row in json.loads(out, parse_constant=str)["rows"]]
    assert cells == last[fmt == "json"]


def test_json_cells_split_one_dump_and_never_a_str_cell():
    assert cli._json_cells([0.1, None, math.nan, -math.inf, 2]) == ["0.1", "null", "NaN", "-Infinity", "2"]
    assert cli._json_cells(["S0b", ODD_REGIME, None]) == ['"S0b"', json.dumps(ODD_REGIME), "null"]
    assert cli._json_cells([]) == []


def test_density_nodes_do_not_leak_between_grid_sizes(monkeypatch):
    # 41 -> 512 -> 41 in one process: each table is its own size's, byte for
    # byte as the per-point reference renders it, and the cached nodes are read-only
    cli._density_nodes.cache_clear()
    outs = []
    for n in (41, 512, 41):
        for fmt in ("csv", "json"):
            argv = ["density", *DENSITY_CHANNEL, "--grid-points", str(n), "--format", fmt, "--reproducible"]
            (code, out, _), meta, _ = run_captured(monkeypatch, argv)
            ref = density_reference([], n)
            assert code == 0
            assert out == render_table(fmt, meta, {"x": [x for x, _ in ref], "p": [p for _, p in ref]})
            outs.append(out)
    assert outs[4:] == outs[:2]
    sq, den = cli._density_nodes(41)
    assert not sq.flags.writeable and not den.flags.writeable


def test_wall_time_survives_a_wall_clock_step_back(monkeypatch):
    steps = itertools.count(2e9, -3600.0)  # every read of the wall clock is an hour before the last
    monkeypatch.setattr(time, "time", lambda: next(steps))
    code, out, _ = run_cli(["ergodic", *DENSITY_CHANNEL, "--format", "json"])
    assert code == 0
    assert 0.0 <= json.loads(out)["meta"]["wall_time_s"] < 60.0


def test_density_constrained_needs_exactly_one_constraint():
    base = ["density", "--N", "4", "--Nt", "1", "--Nr", "1", "--rho", "3", "--kind", "constrained"]
    assert run_cli(base)[0] == 2
    assert run_cli(base + ["--r", "0.4", "--k", "1.0"])[0] == 2
    assert run_cli(base + ["--r", "0.4"])[0] == 0
    assert run_cli(base + ["--k", "-2.0"])[0] == 0
    # a constraint given with the ergodic kind is refused, not ignored
    ergodic = base[:-2] + ["--kind", "ergodic"]
    for extra in (["--r", "0.4"], ["--k", "-2.0"], ["--r", "0.4", "--k", "1.0"]):
        code, out, err = run_cli(ergodic + extra)
        assert (code, out) == (2, "")
        assert err == "error: --r and --k apply only to --kind constrained\n"
        assert run_cli(base[:-2] + extra)[0] == 2  # ergodic is the default kind


def test_density_usage_errors():
    base = ["density", "--N", "4", "--Nt", "1", "--Nr", "1", "--rho", "3"]
    code, out, err = run_cli(base + ["--grid-points", "1"])
    assert (code, out, err) == (2, "", "error: --grid-points must be >= 2\n")
    for r in ("0.0", "1.4", "-0.1"):  # the open window is (0, log 4)
        code, out, err = run_cli(base + ["--kind", "constrained", "--r", r])
        assert (code, out, err) == (2, "", f"error: rate {r} outside the achievable open interval (0.0, {math.log(4.0)!r})\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag",
    [("outage", "--rho"), ("density", "--rho"), ("ergodic", "--rho"),
     ("density", "--r"), ("density", "--k")],
)
def test_non_finite_input_is_a_usage_error(command, flag, value):
    argv = [command, "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3"]
    if flag != "--rho":
        argv += ["--kind", "constrained"]
    code, out, err = run_cli(argv + [f"{flag}={value}"])
    assert run_cli(argv + [flag, value]) == (code, out, err)  # "-inf" is a value, not an option
    assert (code, out) == (2, "")
    # rho is refused by SnrParam's rule, a rate by the window test, --k by its own check
    assert err == {
        "--rho": f"error: rho must be positive and finite, with 1/rho finite, got {float(value)!r}\n",
        "--r": f"error: rate {float(value)!r} outside the achievable open interval (0.0, {math.log(4.0)!r})\n",
        "--k": f"error: --k must be finite, got {float(value)!r}\n",
    }[flag]


def test_negative_value_parses_space_separated_as_with_equals(capsys):
    # argparse reads only -12 and -1.5 as negative numbers; these used to exit 2 with
    # "argument --k: expected one argument" unless written --flag=value
    accepted = run_cli(K_CHANNEL + ["--k=-1e-3", "--grid-points", "5", "--reproducible"])
    assert accepted[0] == 0
    assert run_cli(K_CHANNEL + ["--k", "-1e-3", "--grid-points", "5", "--reproducible"]) == accepted
    # a solver failure (exit 1) or the CLI's own refusal (exit 2), never argparse's
    for base, flag, value, code in ((K_CHANNEL, "--k", "-1e300", 1), (BASE, "--rates", "-inf", 2),
                                    (BASE, "--rates", "-inf,0.5", 2), (BASE, "--r-min", "-1e-3", 2)):
        refused = run_cli(base + [f"{flag}={value}"])
        assert refused[:2] == (code, "") and refused[2].startswith(("solver failure: ", "error: rate -"))
        assert run_cli(base + [flag, value]) == refused
    # a flag after a value flag is not its value: argparse still refuses the request
    with pytest.raises(SystemExit) as exc:
        main(K_CHANNEL + ["--k", "--grid-points", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --k: expected one argument\n")


# The flag table (cli._parsed) and argparse.  Each base request is cheap to
# run: outage takes the gauss column at two points.
TABLE_BASES = {
    "outage": ["outage", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--methods", "gauss", "--points", "2"],
    "density": ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--grid-points", "16"],
    "ergodic": ["ergodic", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3"],
}
CHANNEL_VALUES = {"--N": "12", "--Nt": "4", "--Nr": "5", "--rho": "10", "--format": "json", "--output": os.devnull}
# a value for every value flag of each subcommand
TABLE_VALUES = {
    "outage": {**CHANNEL_VALUES, "--r-min": "0.2", "--r-max": "1.2", "--points": "3", "--rates": "0.2,0.5",
               "--methods": "ld", "--trials": "1000", "--seed": "7", "--workers": "2"},
    "density": {**CHANNEL_VALUES, "--kind": "constrained", "--r": "0.5", "--k": "1.5", "--grid-points": "8"},
    "ergodic": CHANNEL_VALUES,
}
# requests the table parses: every flag in both forms, every choice, repeats, negative values
TABLE_ACCEPTS = {
    "readme-outage": README_OUTAGE,
    **{f"warmup-{argv[0]}": argv for argv in WARMUP_ARGVS},
    "k-negative": TABLE_BASES["density"] + ["--kind", "constrained", "--k", "-1e-3"],
    "rates-negative": TABLE_BASES["outage"] + ["--rates", "-inf,0.5"],
    "r-min-negative": TABLE_BASES["outage"] + ["--r-min", "-1e-3"],
    "kind-ergodic": TABLE_BASES["density"] + ["--kind", "ergodic"],
}
for _command, _base in TABLE_BASES.items():
    for _flag, _value in TABLE_VALUES[_command].items():
        TABLE_ACCEPTS[f"{_command}{_flag}"] = _base + [_flag, _value]
        TABLE_ACCEPTS[f"{_command}{_flag}="] = _base + [f"{_flag}={_value}"]
    TABLE_ACCEPTS[f"{_command}--bits"] = _base + ["--bits"]
    TABLE_ACCEPTS[f"{_command}--reproducible"] = _base + ["--reproducible"]
    TABLE_ACCEPTS[f"{_command}--format-csv"] = _base + ["--format", "csv"]
    TABLE_ACCEPTS[f"{_command}-repeated"] = _base + ["--N", "18", "--format", "json", "--bits", "--N=12",
                                                     "--format=csv", "--bits", "--rho", "5"]
# requests the table leaves to argparse, all refused by it but the abbreviation
TABLE_DECLINES = {
    "abbreviation": TABLE_BASES["ergodic"] + ["--rep"],
    "help": TABLE_BASES["outage"] + ["--help"],
    "h": ["density", "-h"],
    "missing-rho": TABLE_BASES["ergodic"][:-2],
    "N-not-int": TABLE_BASES["ergodic"] + ["--N", "4.5"],
    "format-xml": TABLE_BASES["ergodic"] + ["--format", "xml"],
    "bits-with-value": TABLE_BASES["ergodic"] + ["--bits=1"],
    "k-on-outage": TABLE_BASES["outage"] + ["--k", "1.5"],
    "unknown-flag": TABLE_BASES["ergodic"] + ["--foo", "1"],
    "trailing-value-flag": TABLE_BASES["outage"] + ["--points"],
    "flag-as-value": TABLE_BASES["density"] + ["--kind", "constrained", "--k", "--grid-points", "5"],
    "flag-as-str-value": TABLE_BASES["outage"] + ["--methods", "--reproducible"],
    "double-dash": TABLE_BASES["ergodic"] + ["--", "--reproducible"],
    "flag-before-subcommand": ["--N", "9", "ergodic", "--Nt", "3", "--Nr", "3", "--rho", "3"],
    "no-subcommand": [],
}
TABLE_CASES = TABLE_ACCEPTS | TABLE_DECLINES


def _outcome(call):
    """(result, stdout, stderr) of ``call()``: its return value, or the code of the SystemExit it raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_flag_table_parses_as_argparse_does(case):
    parser, value_flags, tables = cli._build_parser()
    argv = cli._joined(TABLE_CASES[case], value_flags)
    parsed = cli._parsed(argv, tables)
    if case in TABLE_ACCEPTS:
        assert parsed is not None and vars(parsed) == vars(parser.parse_args(argv))
        return
    assert parsed is None
    expected = _outcome(lambda: parser.parse_args(argv))
    if isinstance(expected[0], argparse.Namespace):  # argparse completes --rep to --reproducible
        spelled = TABLE_BASES["ergodic"] + ["--reproducible"]
        assert vars(expected[0]) == vars(parser.parse_args(spelled))
        expected = _outcome(lambda: main(spelled))
    assert _outcome(lambda: main(TABLE_CASES[case])) == expected


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_argparse_runs_only_on_what_the_flag_table_declines(spy, case):
    calls = spy(cli._build_parser()[0], "parse_args")
    _outcome(lambda: main(TABLE_CASES[case]))
    assert len(calls) == (case in TABLE_DECLINES)


@pytest.mark.parametrize("command", ["outage", "density", "ergodic"])
def test_rho_too_small_to_invert_is_a_usage_error(command):
    # z = 1/rho overflows below rho ~ 5.6e-309; it used to surface as the
    # solver failure "math domain error"
    code, out, err = run_cli([command, "--N", "3", "--Nt", "1", "--Nr", "1", "--rho", "1e-320"])
    assert (code, out) == (2, "")
    assert err == "error: rho must be positive and finite, with 1/rho finite, got 1e-320\n"


def test_density_integrates_across_regimes():
    for extra in (["--r", "0.30"], ["--r", "1.10"], ["--k", "5.0"]):
        code, out, _ = run_cli(
            ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3",
             "--kind", "constrained", "--format", "json", "--reproducible"] + extra
        )
        assert code == 0
        doc = json.loads(out)
        xs = np.array([row["x"] for row in doc["rows"]])
        ps = np.array([row["p"] for row in doc["rows"]])
        assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-4


# The metadata block's keys in order, per request kind; wall_time_s closes
# every block without --reproducible.  Consumers read these lines by
# position and by their literal text (a "# workers: N" line, say).
META_KEYS = {
    "outage": ["methods", "trials", "seed", "workers", "rate_unit", "warnings"],
    "density": ["kind", "support", "r_erg", "v_erg", "e0", "rate_unit"],
    "density-constrained": ["kind", "regime", "support", "k", "r", "exponent", "rate_unit"],
    "ergodic": ["rate_unit"],
}
META_REQUESTS = {
    "outage": ["outage", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--points", "2",
               "--methods", "mc,gauss", "--trials", "2048", "--seed", "5", "--workers", "2"],
    "density": ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3",
                "--grid-points", "4"],
    "density-constrained": ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3",
                            "--grid-points", "4", "--kind", "constrained", "--k", "1.5"],
    "ergodic": ["ergodic", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3"],
}


@pytest.mark.parametrize("kind", list(META_REQUESTS))
def test_metadata_block_order_and_line_format(kind):
    argv = META_REQUESTS[kind]
    head = [
        '# tool: "jacobi-mimo"\n',
        f'# version: "{jacobi_mimo.__version__}"\n',
        f'# command: "{argv[0]}"\n',
        '# config: {"N": 9, "Nt": 3, "Nr": 3, "rho": 3.0, "bits": false}\n',
        '# normalized: {"Nt": 3, "Nr": 3, "N0": 3, "beta": 1.0, "n0": 1.0, "rate_offset": 0.0}\n',
    ]
    for extra, tail in ((["--reproducible"], []), ([], ["wall_time_s"])):
        keys = ["tool", "version", "command", "config", "normalized"] + META_KEYS[kind] + tail
        code, out, _ = run_cli(argv + extra)
        assert code == 0
        lines = out.splitlines(keepends=True)
        block, first_row = lines[: len(keys)], lines[len(keys)]
        assert not first_row.startswith("#")
        assert block[:5] == head
        meta = parse_csv(out)[0]
        assert list(meta) == keys
        assert block == [f"# {key}: {json.dumps(value)}\n" for key, value in meta.items()]
        code, doc, _ = run_cli(argv + extra + ["--format", "json"])
        assert list(json.loads(doc)["meta"]) == keys
        if kind == "outage":
            assert block[8:10] == ["# workers: 2\n", '# rate_unit: "nats"\n']


def test_ergodic_golden_record():
    code, out, _ = run_cli(
        ["ergodic", "--N", "2", "--Nt", "1", "--Nr", "1", "--rho", "3", "--format", "json", "--reproducible"]
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert abs(row["r_erg"] - 0.810930) < 1e-6
    assert abs(row["v_erg"] - 0.117783) < 1e-6
    assert abs(row["e0"] - 1.386294) < 1e-6
    assert row["regime"] == "S01"
    assert doc["meta"]["config"]["N"] == 2


def test_ergodic_csv_schema():
    code, out, _ = run_cli(
        ["ergodic", "--N", "6", "--Nt", "2", "--Nr", "2", "--rho", "5", "--reproducible"]
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["a0", "b0", "r_erg", "v_erg", "e0", "regime"]
    assert len(rows) == 1
    assert rows[0][-1] in ("S01", "S0b", "Sa1", "Sab")


def test_ergodic_solves_zero_multiplier_once(spy):
    from jacobi_mimo import coulomb

    logs = spy(coulomb, "solve_at_multiplier"), spy(cli, "solve_at_multiplier")

    def solves():
        return [call.args[3] for log in logs for call in log]

    coulomb.ergodic_summary.cache_clear()
    argv = ["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3", "--reproducible"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert solves() == [0.0]
    assert parse_csv(out)[2][0][-1] == "Sab"
    assert run_cli(argv) == (code, out, "")
    assert solves() == [0.0]  # the repeat reuses the cached k = 0 solution


def test_solver_failure_exits_one(monkeypatch):
    def fail(*args):
        raise ArithmeticError("injected k = 0 failure")

    monkeypatch.setattr(cli, "ergodic_summary", fail)
    code, out, err = run_cli(["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3"])
    assert (code, out, err) == (1, "", "solver failure: injected k = 0 failure\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["ergodic", "--N", "47", "--Nt", "20", "--Nr", "22", "--rho", "1e-14"],
        ["density", "--N", "12", "--Nt", "6", "--Nr", "6", "--rho", "1e300", "--kind", "constrained", "--k", "-1"],
        K_CHANNEL + ["--k", "1e8"],
        K_CHANNEL + ["--k", "1e11"],
    ],
    ids=["ergodic-rho1e-14", "density-rho1e300", "density-k1e8", "density-k1e11"],
)
def test_rate_outside_the_window_exits_one(argv):
    # the k = 0 rate rounds below 0 at rho = 1e-14, and the pole-sum rate
    # of the wall-to-wall support cancels to 0 at rho = 1e300; both used to
    # be printed (r_erg = -3.6e-14; r = 0.0 with exponent -1.39), exit 0.
    # At (4,2,2), rho = 3, k = 1e8 and 1e11 gave rates 1.0e-7 and 2.0e-6
    # above log 4 (exponents 22.7 and 99097), also printed with exit 0
    code, out, err = run_cli(argv + ["--reproducible"])
    assert (code, out) == (1, "")
    assert err.startswith("solver failure: rate ") and " outside the window (0, " in err


def test_rate_just_inside_the_window_still_prints():
    # k = 1e7 on the same channel keeps its rate below log 4 and its table
    code, out, err = run_cli(K_CHANNEL + ["--k", "1e7", "--format", "json", "--reproducible"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["meta"]["r"] == pytest.approx(1.386294258931958, rel=1e-13) and doc["meta"]["r"] < math.log(4.0)
    assert doc["meta"]["exponent"] == pytest.approx(14.93, rel=1e-3)
    assert len(doc["rows"]) == 512 and all(row["p"] >= 0.0 for row in doc["rows"])


def test_negative_exponent_beyond_rounding_exits_one():
    # b pinned at the wall and a within 1e-9 of it: this printed support
    # (1 - 5e-14, 1), r = 1.1118 and exponent -1.37e13, and exited 0
    argv = ["density", "--N", "4", "--Nt", "2", "--Nr", "2", "--rho", "3", "--kind", "constrained",
            "--k", "1e14", "--reproducible"]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("solver failure: exponent -13722") and "below 0 beyond rounding" in err


def test_offset_dims_rate_window():
    # (4,3,3) reduces with offset 2*log(1+rho): grid must live in the
    # shifted window, and the ld/gauss methods see reduced coordinates
    args = [
        "outage", "--N", "4", "--Nt", "3", "--Nr", "3", "--rho", "3",
        "--points", "3", "--methods", "ld,gauss,exact", "--format", "json", "--reproducible",
    ]
    code, out, _ = run_cli(args)
    assert code == 0
    doc = json.loads(out)
    lo = 2.0 * math.log(4.0)
    for row in doc["rows"]:
        assert lo < row["r"] < lo + math.log(4.0)
        assert 0.0 <= row["pout_ld"] <= 1.0
    bad = run_cli(args[:9] + ["--r-min", "0.1", "--r-max", "0.5"] + args[9:])
    assert bad[0] == 2


@pytest.mark.parametrize("reduced, twin", [((5, 3, 3), (5, 2, 2)), ((7, 4, 5), (7, 2, 3))])
@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e4])
def test_reduced_dims_equal_their_canonical_twin(reduced, twin, rho):
    # (5,3,3) reduces to Nt = Nr = 2, N0 = 1 with offset log(1+rho)/2, and (7,4,5) to
    # (2, 3, 2) with offset log(1+rho): every route must give the twin's numbers at the
    # twin's rate, Monte Carlo included, since both draw the same reduced ensemble.  The
    # routes and their estimate columns come from the route table, so a new route joins the check
    offset = jacobi_mimo.normalize_dims(*reduced).pinned_rate(rho)
    rates = [offset + f * math.log1p(rho) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    columns = [col for col in cli._CSV_HEADER if col.startswith("pout_")]
    tables = []
    for (n, nt, nr), rs in ((reduced, rates), (twin, [r - offset for r in rates])):
        code, out, err = run_cli(
            ["outage", "--N", str(n), "--Nt", str(nt), "--Nr", str(nr), "--rho", repr(rho),
             "--rates", ",".join(map(repr, rs)), "--methods", ",".join(cli._ROUTES),
             "--trials", "100000", "--seed", "41", "--format", "json", "--reproducible"]
        )
        assert code == 0, err
        tables.append([[row[col] for col in columns] for row in json.loads(out)["rows"]])
    assert all(v is not None for row in tables[0] for v in row)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("bits", [False, True])
def test_reduced_dims_ergodic_record_is_the_twins_plus_the_offset(bits):
    # (5,3,3) at rho = 3 reduces to its twin (5,2,2) with half a log(1+rho) pinned:
    # the record and the density table are the twin's, and only r_erg carries the offset
    unit = ["--bits"] if bits else []
    docs = {}
    for shape in ((5, 3, 3), (5, 2, 2)):
        channel = ["--N", str(shape[0]), "--Nt", str(shape[1]), "--Nr", str(shape[2]), "--rho", "3"]
        for command in ("ergodic", "density"):
            code, out, err = run_cli([command, *channel, "--format", "json", "--reproducible", *unit])
            assert code == 0, err
            docs[command, shape] = json.loads(out)
    (erg,), (twin,) = docs["ergodic", (5, 3, 3)]["rows"], docs["ergodic", (5, 2, 2)]["rows"]
    den, twin_den = docs["density", (5, 3, 3)], docs["density", (5, 2, 2)]
    assert {key: erg[key] for key in erg if key != "r_erg"} == {key: twin[key] for key in twin if key != "r_erg"}
    for key in ("support", "v_erg", "e0"):
        assert den["meta"][key] == twin_den["meta"][key]
    assert den["meta"]["support"] == [erg["a0"], erg["b0"]]
    assert den["rows"] == twin_den["rows"]
    nats = (1.385341647794729, 0.6921944672347837)
    expected = tuple(r / math.log(2.0) for r in nats) if bits else nats
    assert (erg["r_erg"], twin["r_erg"]) == expected
    assert den["meta"]["r_erg"] == erg["r_erg"]
    assert nats[0] == nats[1] + math.log1p(3.0) / 2
    for doc, offset in ((docs["ergodic", (5, 3, 3)], 0.5), (docs["ergodic", (5, 2, 2)], 0.0)):
        assert doc["meta"]["normalized"] == {"Nt": 2, "Nr": 2, "N0": 1, "beta": 1.0, "n0": 0.5,
                                             "rate_offset": offset}


def _fresh_python(*args: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``python *args`` in a new interpreter that imports this package."""
    src = str(Path(jacobi_mimo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True)
    # no newline translation: CSV rows end in \r\n
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


MIXED_REQUESTS = [
    ["outage", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "10", "--points", "4",
     "--methods", "ld,gauss", "--format", "json", "--bits", "--reproducible"],
    ["density", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "10", "--kind", "constrained",
     "--r", "1.1", "--grid-points", "16", "--reproducible"],
    ["ergodic", "--N", "18", "--Nt", "6", "--Nr", "6", "--rho", "3", "--bits", "--reproducible"],
]


# run alone through the module entry, ``python -m jacobi_mimo.cli``
MODULE_REQUESTS = [
    README_OUTAGE,
    ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--kind", "constrained", "--r", "0.5",
     "--format", "json", "--reproducible"],
    # reduced dims: every route, the pinned offset added back
    ["outage", "--N", "5", "--Nt", "3", "--Nr", "3", "--rho", "3", "--points", "5",
     "--methods", "mc,exact,ld,gauss", "--trials", "20000", "--seed", "1", "--reproducible"],
]


def test_requests_back_to_back_match_fresh_processes():
    # the parser is built once per process and the k = 0 solution cached:
    # neither may carry state from one request into the next; and the module
    # entry prints what main prints, its warnings and exit code included
    alone = [
        _fresh_python("-c", f"import sys; from jacobi_mimo.cli import main; sys.exit(main({argv!r}))")
        for argv in MIXED_REQUESTS
    ]
    assert all(code == 0 and err == "" for code, _, err in alone)
    alone += [_fresh_python("-m", "jacobi_mimo.cli", *argv) for argv in MODULE_REQUESTS]
    requests = MIXED_REQUESTS + MODULE_REQUESTS
    for order in (requests, requests[::-1]):
        outs = {tuple(argv): run_cli(argv) for argv in order}
        for argv, want in zip(requests, alone):
            assert outs[tuple(argv)] == want


# the Monte Carlo requests whose bytes may not depend on the CPUs or workers:
# (4,2,2)'s 30000 trials are three spans of 12 blocks, the last one partial
MC_REQUESTS = [
    ["outage", "--N", "18", "--Nt", "6", "--Nr", "6", "--rho", "20", "--r-min", "1.2", "--r-max", "1.7",
     "--points", "11", "--methods", "mc", "--trials", "20000", "--seed", "1", "--reproducible"],
    ["outage", "--N", "4", "--Nt", "2", "--Nr", "2", "--rho", "10", "--points", "11",
     "--methods", "mc", "--trials", "30000", "--seed", "1", "--reproducible"],
]


def test_monte_carlo_bytes_do_not_depend_on_the_cpus_or_workers():
    # a child pinned to one CPU before numpy loads prints what this unpinned
    # process prints, at --workers 1 and 2, whose runs differ only in that echo
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available on this platform")
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("this process may use one CPU only, so pinning changes nothing")
    requests = [argv + ["--workers", workers] for argv in MC_REQUESTS for workers in ("1", "2")]
    pinned = _fresh_python("-c", (
        "import os, sys\n"
        "assert 'numpy' not in sys.modules\n"
        f"os.sched_setaffinity(0, {{{min(cpus)}}})\n"
        "from jacobi_mimo.cli import main\n"
        f"for argv in {requests!r}:\n"
        "    assert main(argv) == 0, argv\n"
    ))
    unpinned = [run_cli(argv) for argv in requests]
    assert all(code == 0 for code, _, _ in unpinned)
    assert pinned == (0, "".join(out for _, out, _ in unpinned), "".join(err for _, _, err in unpinned))
    for (_, one, _), (_, two, _) in zip(unpinned[::2], unpinned[1::2]):
        assert two == one.replace("# workers: 1\n", "# workers: 2\n", 1) != one


def test_no_scipy_module_loads_at_runtime():
    # one request per layer, the Monte Carlo one with two workers asked for, which open no thread pool
    requests = [WARMUP_ARGVS[0] + ["--workers", "2"], *WARMUP_ARGVS[1:]]
    code, loaded, err = _fresh_python(
        "-c",
        "import contextlib, io, sys\n"
        "from jacobi_mimo.cli import main\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    assert code == 0, err
    assert loaded.strip() == "[]"


def test_gauss_failure_empties_its_cells_and_keeps_the_run(monkeypatch):
    # the k = 0 solve behind the gauss column fails; the mc column already
    # computed must survive
    def fail(*args):
        raise ArithmeticError("injected k = 0 failure")

    from jacobi_mimo import coulomb

    monkeypatch.setattr(coulomb, "ergodic_summary", fail)
    code, out, err = run_cli(
        ["outage", "--N", "18", "--Nt", "6", "--Nr", "6", "--rho", "1e300", "--points", "3",
         "--methods", "mc,gauss", "--trials", "2000", "--reproducible"]
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(row[1] != "" and row[2] != "" and row[6] == "" for row in rows)
    assert err.count("warning: gauss: r=") == 3
    assert sum(w.startswith("gauss: ") for w in meta["warnings"]) == 3
