"""Command-line surface: argument handling, exit codes, output determinism."""

import json

import pytest

from bringform import DegenerateDenominator, rat
from bringform.cli import (EXIT_DEGENERATE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           main)

QUINTIC = ["1", "-1", "4", "1", "-2", "3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_json_happy_path(capsys):
    code, out, err = run(capsys, "reduce", "--coeffs", *QUINTIC)
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["verify"]["matched"] is True
    kinds = [s["kind"] for s in doc["trace"]["steps"]]
    assert kinds == ["depress", "principal", "bring-jerrard"]


def test_reduce_text_mode(capsys):
    code, out, _ = run(capsys, "reduce", "--coeffs", *QUINTIC, "--output", "text")
    assert code == EXIT_OK
    assert "verified: yes" in out
    assert "P = " in out and "Q = " in out


def test_reduce_already_trinomial_gives_empty_steps(capsys):
    code, out, _ = run(capsys, "reduce", "--coeffs", "1", "0", "0", "0", "2", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["trace"]["steps"] == []
    assert doc["trace"]["bring_p"] == [2, 1]
    assert doc["trace"]["bring_q"] == [3, 1]


def test_reduce_output_is_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(f1)]) == EXIT_OK
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(f2)]) == EXIT_OK
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_reduce_at_64_bits_verifies_with_a_tolerance_that_fits(capsys):
    code, out, _ = run(capsys, "reduce", "--coeffs", *QUINTIC, "--precision-bits", "64",
                       "--tol", "1e-12", "--output", "text")
    assert code == EXIT_OK and "verified: yes" in out


def test_tolerance_finer_than_the_precision_is_refused(capsys):
    # the default 1e-30 does not fit 64 bits: the routes of a step agree only
    # to about 2e-17 there, so the run would end in a verification failure
    code, out, err = run(capsys, "reduce", "--coeffs", *QUINTIC, "--precision-bits", "64")
    assert code == EXIT_USAGE and out == ""
    assert "--tol 1e-14" in err
    # the tolerance the message names is workable
    code, out, _ = run(capsys, "reduce", "--coeffs", *QUINTIC, "--precision-bits", "64",
                       "--tol", "1e-14", "--output", "text")
    assert code == EXIT_OK and "verified: yes" in out


@pytest.mark.parametrize("flags", [
    (),                                        # the default 1e-30 at 256 bits
    ("--precision-bits", "64", "--tol", "1e-12"),
    ("--precision-bits", "128"),
    ("--precision-bits", "1024"),
])
def test_tolerances_that_fit_the_precision_are_accepted(capsys, flags):
    code, out, _ = run(capsys, "reduce", "--coeffs", *QUINTIC, *flags, "--output", "text")
    assert code == EXIT_OK and "verified: yes" in out


def test_reduce_accepts_rational_and_decimal_tokens(capsys):
    # fractional negatives would parse as options, so the list may be quoted
    code, out, _ = run(capsys, "reduce", "--coeffs", "1 -1/2 0.25 1 0 3")
    assert code == EXIT_OK
    assert json.loads(out)["verify"]["matched"] is True


def test_solve_json_and_text(capsys):
    code, out, _ = run(capsys, "solve", "--coeffs", "1", "0", "-7", "6")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["roots"]) == 3
    code, out, _ = run(capsys, "solve", "--coeffs", "1", "-5", "6", "--output", "text")
    assert code == EXIT_OK and "method: quadratic" in out


def test_solve_normalizes_non_monic_input(capsys):
    code, out, _ = run(capsys, "solve", "--coeffs", "2", "-10", "12")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert sorted(doc["roots"]) == [[2, 1], [3, 1]]


def test_solve_refuses_quintic_with_pointer_to_reduce(capsys):
    code, _, err = run(capsys, "solve", "--coeffs", "1", "0", "0", "0", "2", "3")
    assert code == EXIT_USAGE
    assert "reduce" in err


def test_obstruction_reports(capsys):
    code, out, _ = run(capsys, "obstruction", "--coeffs", "1", "0", "0", "1", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["degree"] == 6 and doc["degenerate"] is False
    code, out, _ = run(capsys, "obstruction", "--coeffs", "1", "0", "0", "0", "1")
    assert json.loads(out)["degenerate"] is True


def test_obstruction_rejects_wrong_shape(capsys):
    code, _, err = run(capsys, "obstruction", "--coeffs", "1", "2", "0", "1", "1")
    assert code == EXIT_USAGE and "trinomial" in err


def test_verify_roundtrip_and_tamper_detection(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", "--in", str(trace))
    assert code == EXIT_OK and json.loads(out)["matched"] is True

    doc = json.loads(trace.read_text())
    doc["trace"]["steps"][-1]["output"]["coeffs"][0][0] = "1.0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_VERIFY and json.loads(out)["matched"] is False


def test_verify_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/trace.json")
    assert code == EXIT_USAGE and "cannot read" in err


def test_verify_garbage_json_is_usage_error(capsys, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _, err = run(capsys, "verify", "--in", str(f))
    assert code == EXIT_USAGE


def _poly_json(*ascending):
    return {"var": "z", "coeffs": [[c, 1] for c in ascending], "mode": "rational"}


def _reciprocal_step_json(output):
    return {"kind": "reciprocal", "subsidiary": None, "aux": [], "output": output}


@pytest.mark.parametrize("breakage", [
    "step without output", "zero denominator", "steps not a list",
    "non-monic original", "constant original without steps",
    "subsidiary degree not below the input's", "subsidiary missing",
    "reciprocal of a zero root", "non-monic step output",
    "step output of another degree", "rescaled step input"])
def test_verify_malformed_trace_is_usage_error(capsys, tmp_path, breakage):
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    t = doc["trace"]
    if breakage == "step without output":
        del t["steps"][0]["output"]
    elif breakage == "zero denominator":
        t["bring_p"] = [1, 0]
    elif breakage == "steps not a list":
        t["steps"] = 5
    elif breakage == "non-monic original":
        t["original"]["coeffs"][-1] = [2, 1]
    elif breakage == "constant original without steps":
        t["original"], t["steps"] = _poly_json(1), []
    elif breakage == "subsidiary degree not below the input's":
        t["original"] = _poly_json(1, 0, 1)
        t["steps"] = [{"kind": "principal", "subsidiary": {"k": 2, "a": [1, 1], "b": [0, 1]},
                       "aux": [], "output": _poly_json(2, 0, 1)}]
    elif breakage == "subsidiary missing":
        t["steps"][0]["subsidiary"] = None
    elif breakage == "reciprocal of a zero root":
        t["original"] = _poly_json(0, 1, 0, 0, 0, 1)
        t["steps"] = [_reciprocal_step_json(_poly_json(1, 0, 0, 0, 1, 0))]
    elif breakage == "non-monic step output":
        t["steps"][0]["output"]["coeffs"][-1] = [3, 1]
    elif breakage == "rescaled step input":
        # older traces took a rescue step on A(2w)/2^5; none is read now,
        # so it is refused rather than verified against the wrong input
        t["steps"][-1]["rescue_lambda"] = [2, 1]
    else:
        # a quartic original: the bring-curve check would see four roots
        t["original"] = _poly_json(1, 0, 0, 0, 1)
        t["steps"] = [_reciprocal_step_json(_poly_json(1, 0, 0, 0, 1, 1))]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_USAGE and out == ""
    assert "malformed trace" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", ["made-up P and Q", "no steps"])
def test_verify_checks_the_claimed_trinomial(capsys, tmp_path, edit):
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    if edit == "made-up P and Q":
        doc["trace"]["bring_p"], doc["trace"]["bring_q"] = [7, 1], [-3, 1]
    else:
        doc["trace"]["steps"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(bad), "--output", "text")
    assert code == EXIT_VERIFY and "verified: NO" in out


@pytest.mark.parametrize("descending", [
    "1 -2 3 -1 -4 3",   # (x - 1)^2 (x^3 + 2x + 3)
    "1 1 -1 1 0 0",     # x^2 (x^3 + x^2 - x + 1)
    "1 3 2 6 1 3",      # (x + 3) (x^2 + 1)^2
])
def test_reduce_refuses_a_repeated_root(capsys, descending):
    # the ansatz would collapse the repeated root: exit 2, and no trace
    code, out, err = run(capsys, "reduce", "--coeffs", *descending.split())
    assert code == EXIT_DEGENERATE and out == ""
    assert "repeated root" in err


def test_reduce_of_a_cube_times_a_square_exits_two(capsys):
    # z^3 (z + 1)^2: refused before any step, even in text mode
    code, out, err = run(capsys, "reduce", "--coeffs", "1", "2", "1", "0", "0", "0",
                         "--output", "text")
    assert code == EXIT_DEGENERATE and out == "" and "repeated root" in err


def test_reduce_with_collapsed_repeated_root_exits_two(capsys):
    # ascending (0, 0, 1, 1, -1, 1): the bring-jerrard map would merge its
    # double root at zero
    code, out, _ = run(capsys, "reduce", "--coeffs", "1", "-1", "1", "1", "0", "0")
    assert code == EXIT_DEGENERATE and out == ""


def test_trace_of_an_unrescued_older_format_verifies(capsys, tmp_path):
    # a null rescue_lambda, as older traces wrote on every step, still reads
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    for step in doc["trace"]["steps"]:
        step["rescue_lambda"] = None
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(old))
    assert code == EXIT_OK and json.loads(out)["matched"] is True


def test_usage_errors(capsys):
    assert run(capsys, "reduce", "--coeffs", "1", "2", "3")[0] == EXIT_USAGE
    assert run(capsys, "reduce", "--coeffs", "2", "0", "0", "0", "0", "1")[0] == EXIT_USAGE
    assert run(capsys, "reduce", "--coeffs", *QUINTIC, "--precision-bits", "16")[0] == EXIT_USAGE
    assert run(capsys, "reduce", "--coeffs", *QUINTIC, "--tol", "bogus")[0] == EXIT_USAGE
    assert run(capsys, "reduce", "--coeffs", *QUINTIC, "--tol", "-1e-5")[0] == EXIT_USAGE
    assert run(capsys, "solve", "--coeffs", "1", "2", "--mode", "rational",
               "--coeffs", "1", "0.5j")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE


def test_degenerate_surfaces_as_exit_two(capsys, monkeypatch):
    import bringform.cli as cli

    def boom(poly, prec=None, tol=None):
        raise DegenerateDenominator(rat(0), "coupling vanished")

    monkeypatch.setattr(cli, "reduce_general_quintic", boom)
    code, _, err = run(capsys, "reduce", "--coeffs", *QUINTIC)
    assert code == EXIT_DEGENERATE and "degenerate" in err
