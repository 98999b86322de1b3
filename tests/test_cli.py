"""Instance I/O round-trips, CLI subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from halfline import SquareWell, random_pair, run_verify, validate_pair
from halfline.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VIOLATION, main
from halfline.errors import ParseError
from halfline.serialize import (
    Instance,
    canonical_json,
    complex_matrix_from_json,
    instance_from_json,
    load_instance,
)


def make_instance(n=1) -> Instance:
    pair = validate_pair(np.zeros((n, n)), np.eye(n))
    V = SquareWell(depth=-2.0 * np.eye(n), a=0.0, b=1.0)
    return Instance(pair, V, {"seed": 0})


def write_instance(tmp_path, inst: Instance, name="inst.json"):
    path = tmp_path / name
    path.write_text(canonical_json(inst.to_json()), encoding="utf-8")
    return str(path)


def test_instance_round_trip(tmp_path):
    inst = make_instance(2)
    again = instance_from_json(inst.to_json())
    assert canonical_json(again.to_json()) == canonical_json(inst.to_json())
    path = write_instance(tmp_path, inst)
    loaded = load_instance(path)
    assert canonical_json(loaded.to_json()) == canonical_json(inst.to_json())


def test_random_pair_round_trip():
    pair = random_pair(3, seed=123)
    inst = Instance(pair, SquareWell(-np.eye(3), 0.5, 1.5))
    again = instance_from_json(inst.to_json())
    np.testing.assert_allclose(again.pair.A, pair.A, atol=1e-15)
    np.testing.assert_allclose(again.pair.B, pair.B, atol=1e-15)


def test_malformed_complex_entry_names_field():
    obj = make_instance().to_json()
    obj["pair"]["A"][0][0] = "oops"
    with pytest.raises(ParseError, match="pair.A"):
        instance_from_json(obj)


def test_malformed_potential_names_field():
    obj = make_instance().to_json()
    obj["potential"]["kind"] = "mystery"
    with pytest.raises(ParseError, match="potential.kind"):
        instance_from_json(obj)


def test_missing_potential_defaults_to_zero():
    obj = make_instance().to_json()
    del obj["potential"]
    inst = instance_from_json(obj)
    assert inst.default_potential
    assert inst.potential.evaluate(0.5)[0, 0] == 0.0


def test_complex_matrix_accepts_plain_floats():
    X = complex_matrix_from_json([[1.0, 2.0], [[0.0, 1.0], 4]], "pair.A")
    assert X[0, 0] == 1.0 and X[1, 0] == 1j and X[1, 1] == 4.0


def test_cli_validate_classify_bound(tmp_path, capsys):
    path = write_instance(tmp_path, make_instance())
    assert main(["validate", "--input", path]) == EXIT_OK
    assert main(["classify", "--input", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"thetas"' in out
    assert main(["bound", "--input", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == pytest.approx(1.0, abs=1e-8)


def test_cli_bound_warns_on_default_potential(tmp_path, capsys):
    obj = make_instance().to_json()
    del obj["potential"]
    path = tmp_path / "nopot.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["bound", "--input", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "warning" in report


def test_cli_count_and_ladder(tmp_path, capsys):
    path = write_instance(tmp_path, make_instance())
    assert main(["count", "--input", path, "--length", "40", "--h", "0.02"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 0
    assert report["converged"] is False   # one mesh cannot show convergence
    rc = main(["count", "--input", path, "--ladder", "--format", "csv"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "L,h,count"


def test_cli_bs_count(tmp_path, capsys):
    path = write_instance(tmp_path, make_instance())
    assert main(["bs-count", "--input", path, "--E", "-0.5", "--nodes", "200"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"count", "trace", "top_eigenvalues"}
    assert report["trace"] > 0


def test_cli_kernel_csv(tmp_path):
    path = write_instance(tmp_path, make_instance())
    out = tmp_path / "kernel.csv"
    rc = main(["kernel", "--input", path, "--E", "-1.0", "--samples", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,y,re_00,im_00")
    assert len(lines) == 1 + 25


def test_cli_invalid_instance_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"pair": {"A": [[[1, 0]]], "B": [[[0, 0]]]}}))
    # A=1, B=0 scalar is Neumann (valid); break self-adjointness instead
    bad = {"pair": {"A": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                    "B": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}}
    path.write_text(json.dumps(bad))
    assert main(["validate", "--input", str(path)]) == EXIT_VALIDATION
    assert main(["validate", "--input", str(tmp_path / "missing.json")]) == EXIT_VALIDATION


def test_verify_deterministic_bytes():
    r1 = run_verify(trials=3, n_max=2, seed=5)
    r2 = run_verify(trials=3, n_max=2, seed=5)
    assert canonical_json(r1.to_json()) == canonical_json(r2.to_json())
    assert r1.violations == []


def test_cli_verify_exit_codes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.json"
    rc = main(["verify", "--trials", "2", "--n-max", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["violations"] == []

    # the violation policy: nonzero exit and an instance dump for replay
    from halfline import harness as _h
    import halfline.cli as _cli

    def fake_verify(trials, n_max, seed, jobs=1):
        rep = _h.VerifyReport(trials=trials, n_max=n_max, seed=seed)
        rep.violations.append({
            "kind": "bound", "trial": 0, "fd_count": 3, "total": 2.0,
            "instance": make_instance().to_json(),
        })
        return rep

    monkeypatch.setattr(_cli, "run_verify", fake_verify)
    rc = main(["verify", "--trials", "1", "--n-max", "2", "--seed", "3"])
    assert rc == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "violating instance" in err


def test_cli_demo_remark_smoke(tmp_path):
    # full demo is exercised in the acceptance suite; here only the wiring
    out = tmp_path / "demo.json"
    rc = main(["demo-remark", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert {r["count"] for r in report["binding_channels"]} == {1}
