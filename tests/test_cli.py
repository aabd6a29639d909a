import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

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


def test_density_constrained_needs_exactly_one_constraint():
    base = ["density", "--N", "4", "--Nt", "1", "--Nr", "1", "--rho", "3", "--kind", "constrained"]
    assert run_cli(base)[0] == 2
    assert run_cli(base + ["--r", "0.4", "--k", "1.0"])[0] == 2
    assert run_cli(base + ["--r", "0.4"])[0] == 0
    assert run_cli(base + ["--k", "-2.0"])[0] == 0


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
    code, out, _ = run_cli(
        ["ergodic", "--N", "12", "--Nt", "4", "--Nr", "5", "--rho", "3", "--reproducible"]
    )
    assert code == 0
    assert solves == [0.0]
    assert parse_csv(out)[2][0][-1] == "Sab"


def test_worker_env_cap(monkeypatch):
    monkeypatch.setenv("JACOBI_OUTAGE_THREADS", "2")
    code, out, _ = run_cli(
        BASE + ["--points", "2", "--methods", "mc", "--trials", "4000",
                "--workers", "8", "--format", "json", "--reproducible"]
    )
    assert code == 0
    assert json.loads(out)["meta"]["workers"] == 2


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
