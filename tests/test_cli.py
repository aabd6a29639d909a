import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import jacobi_mimo
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


def test_outage_usage_errors():
    assert run_cli(BASE + ["--methods", ""])[0] == 2
    assert run_cli(BASE + ["--methods", "mc,bogus"])[0] == 2
    assert run_cli(BASE + ["--r-min", "0.0", "--r-max", "2.0"])[0] == 2  # outside open window
    assert run_cli(["outage", "--N", "2", "--Nt", "3", "--Nr", "1", "--rho", "3"])[0] == 2
    assert run_cli(BASE + ["--trials", "0"])[0] == 2
    assert run_cli(BASE + ["--seed", "-1"])[0] == 2
    assert run_cli(BASE + ["--seed", str(2**128)])[0] == 2
    assert run_cli(BASE + ["--points", "0"]) == (2, "", "error: --points must be >= 1\n")
    for rho in ("0", "-1"):
        argv = ["outage", "--N", "2", "--Nt", "1", "--Nr", "1", f"--rho={rho}"]
        assert run_cli(argv) == (2, "", "error: --rho must be positive\n")


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


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_output_is_a_usage_error(monkeypatch, tmp_path, where):
    # refused before the request runs: one error line, exit 2, no solve, no file
    calls = []
    monkeypatch.setattr(cli, "ergodic_summary", lambda *args: calls.append(args))
    path = tmp_path / "no" / "such" / "x.csv" if where == "missing-dir" else tmp_path
    argv = ["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3", "--output", str(path)]
    code, out, err = run_cli(argv)
    assert (code, out, calls) == (2, "", [])
    reason = os.strerror(errno.ENOENT if where == "missing-dir" else errno.EISDIR)  # as the write reports it
    assert err == f"error: cannot write --output {path}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_routes_look_their_solvers_up_when_they_run(monkeypatch):
    # a wrapper patched onto the solver names of the cli module, as a tracer
    # patches them, must see every call: the one Monte Carlo curve once per
    # request, each per-rate route once per rate
    calls = dict.fromkeys(("outage_curve", "outage_exact", "outage_asymptotic", "gaussian_outage"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    code, _, err = run_cli(
        BASE + ["--points", "4", "--methods", "mc,exact,ld,gauss", "--trials", "2048", "--reproducible"]
    )
    assert code == 0, err
    assert calls == {"outage_curve": 1, "outage_exact": 4, "outage_asymptotic": 4, "gaussian_outage": 4}


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


# at 41 nodes libm's pow and (1+u)*(1+u) round one node's square apart
@pytest.mark.parametrize("n", [512, 41])
@pytest.mark.parametrize(
    "extra", [[], ["--kind", "constrained", "--k", "1.5"], ["--kind", "constrained", "--r", "0.3"]]
)
def test_density_table_matches_per_point_scalar_reference(extra, n):
    # the table was built one scalar density call per node before it moved
    # to one array pass; both formats must keep every byte
    from jacobi_mimo.coulomb import (
        density_at, ergodic_density, ergodic_summary, solve_at_multiplier, solve_regime,
    )
    from jacobi_mimo.ensemble import SnrParam, normalize_dims

    dims = normalize_dims(9, 3, 3)
    n0, beta, snr = float(dims.n0), float(dims.beta), SnrParam(3.0)
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
        assert (code, out, err) == (2, "", "error: --r outside the achievable open interval\n")


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
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be finite, got {float(value)!r}\n"


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


def test_ergodic_solves_zero_multiplier_once(monkeypatch):
    from jacobi_mimo import cli, coulomb

    solves = []
    original = coulomb.solve_at_multiplier

    def counting(n0, beta, snr, k):
        solves.append(k)
        return original(n0, beta, snr, k)

    monkeypatch.setattr(coulomb, "solve_at_multiplier", counting)
    monkeypatch.setattr(cli, "solve_at_multiplier", counting)
    coulomb.ergodic_summary.cache_clear()
    argv = ["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3", "--reproducible"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert solves == [0.0]
    assert parse_csv(out)[2][0][-1] == "Sab"
    assert run_cli(argv) == (code, out, "")
    assert solves == [0.0]  # the repeat reuses the cached k = 0 solution


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
    ],
    ids=["ergodic-rho1e-14", "density-rho1e300"],
)
def test_rate_outside_the_window_exits_one(argv):
    # the k = 0 rate rounds below 0 at rho = 1e-14, and the pole-sum rate
    # of the wall-to-wall support cancels to 0 at rho = 1e300; both used to
    # be printed (r_erg = -3.6e-14; r = 0.0 with exponent -1.39), exit 0
    code, out, err = run_cli(argv + ["--reproducible"])
    assert (code, out) == (1, "")
    assert err.startswith("solver failure: rate ") and " outside the window (0, " in err


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


def _fresh_python(code: str) -> str:
    """stdout of ``python -c code`` in a new interpreter that imports this package."""
    src = str(Path(jacobi_mimo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    return proc.stdout.decode()  # no newline translation: CSV rows end in \r\n


MIXED_REQUESTS = [
    ["outage", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "10", "--points", "4",
     "--methods", "ld,gauss", "--format", "json", "--bits", "--reproducible"],
    ["density", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "10", "--kind", "constrained",
     "--r", "1.1", "--grid-points", "16", "--reproducible"],
    ["ergodic", "--N", "18", "--Nt", "6", "--Nr", "6", "--rho", "3", "--bits", "--reproducible"],
]


def test_requests_back_to_back_match_fresh_processes():
    # the parser is built once per process and the k = 0 solution cached:
    # neither may carry state from one request into the next
    alone = [
        _fresh_python(f"import sys; from jacobi_mimo.cli import main; sys.exit(main({argv!r}))")
        for argv in MIXED_REQUESTS
    ]
    for order in (MIXED_REQUESTS, MIXED_REQUESTS[::-1]):
        outs = {tuple(argv): run_cli(argv) for argv in order}
        for argv, want in zip(MIXED_REQUESTS, alone):
            assert outs[tuple(argv)] == (0, want, "")


def test_no_scipy_module_loads_at_runtime():
    # one request per layer: the argvs of perfbench.workloads.warmup_argvs()
    requests = [
        ["outage", "--N", "4", "--Nt", "2", "--Nr", "2", "--rho", "10", "--points", "3",
         "--methods", "mc,exact,ld,gauss", "--trials", "2048", "--seed", "1"],
        ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--kind", "constrained",
         "--r", "0.5", "--format", "json"],
        ["ergodic", "--N", "24", "--Nt", "8", "--Nr", "8", "--rho", "10"],
    ]
    loaded = _fresh_python(
        "import contextlib, io, sys\n"
        "from jacobi_mimo.cli import main\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
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
