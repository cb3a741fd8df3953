"""Command-line surface: argument handling, exit codes, output determinism."""

import io
import json

import mpmath
import pytest

from bringform import (ConsistencyError, DegenerateDenominator, ReductionTrace, RootConfig,
                       UniPoly, find_roots, match_roots, rat, recover_roots,
                       reduce_general_quintic, verify_trace)
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
    # neither the default 1e-30 nor 1e-14 fits 64 bits: the routes of a step
    # agree only to about 2e-17 there, and the ansatz's conditions and the
    # back-solve lose up to 8 bits more (1e-14 fails 4 of the first 100
    # acceptance quintics), so the run could end in a verification failure
    for flags in ((), ("--tol", "1e-14")):
        code, out, err = run(capsys, "reduce", "--coeffs", *QUINTIC,
                             "--precision-bits", "64", *flags)
        assert code == EXIT_USAGE and out == ""
        assert "--tol 1e-12" in err
    # the tolerance the message names is workable
    code, out, _ = run(capsys, "reduce", "--coeffs", *QUINTIC, "--precision-bits", "64",
                       "--tol", "1e-12", "--output", "text")
    assert code == EXIT_OK and "verified: yes" in out


def test_the_tolerance_floor_holds_only_where_a_tolerance_is_read(capsys, tmp_path):
    # obstruction reads no --tol, so the default needs no workable value at
    # 64 bits; reduce, solve and verify read it and keep the floor
    code, out, err = run(capsys, "obstruction", "--coeffs", "1", "0", "0", "1", "1",
                         "--precision-bits", "64")
    assert code == EXIT_OK and err == "" and json.loads(out)["degree"] == 6
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    for argv in (["solve", "--coeffs", "1", "0", "-7", "6"], ["verify", "--in", str(trace)]):
        code, out, err = run(capsys, *argv, "--precision-bits", "64")
        assert code == EXIT_USAGE and out == "" and "--tol 1e-12" in err
    # the parse and range checks hold for obstruction too
    for tol in ("bogus", "1", "nan"):
        code, out, err = run(capsys, "obstruction", "--coeffs", "1", "0", "0", "1", "1",
                             "--tol", tol)
        assert code == EXIT_USAGE and out == "" and "--tol" in err


@pytest.mark.parametrize("tol", ["inf", "1e300", "1", "nan"])
def test_tolerance_that_checks_nothing_is_refused(capsys, tmp_path, tol):
    # a wrong claimed P fails verify at the default tolerance; at a tolerance
    # of 1 or more every comparison would pass and the claim be "verified"
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    doc = json.loads(trace.read_text())
    doc["trace"]["bring_p"] = ["7.0", "0.0"]
    trace.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(trace), "--output", "text")
    assert code == EXIT_VERIFY and "verified: NO" in out
    code, out, err = run(capsys, "verify", "--in", str(trace), "--tol", tol)
    assert code == EXIT_USAGE and out == ""
    assert "--tol" in err


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


def test_obstruction_text_report(capsys):
    code, out, _ = run(capsys, "obstruction", "--coeffs", "1", "0", "0", "1", "1",
                       "--output", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("G(c) = ") and lines[1] == "degree: 6"
    assert lines[2].startswith("root-consistency slack: ")


@pytest.mark.parametrize("mode", ["rational", "complex"])
def test_obstruction_of_z4_is_degenerate(capsys, mode):
    code, out, _ = run(capsys, "obstruction", "--coeffs", "1", "0", "0", "0", "0",
                       "--mode", mode, "--output", "text")
    assert code == EXIT_OK
    assert "degree: -1  (degenerate)" in out.splitlines()


@pytest.mark.parametrize("p, q, prec", [
    ("1e20", "1", 256), ("1", "1e20", 256), ("1e-10", "1e10", 256),
    ("3e30", "-2", 256), ("1e-40", "1", 256), ("1e40", "1", 512)])
def test_obstruction_degree_is_the_same_in_both_modes(capsys, p, q, prec):
    # complex mode decides the degree of G at the working precision, where
    # a true leading coefficient far below --tol times the scale still counts
    def report(mode):
        code, out, _ = run(capsys, "obstruction", "--coeffs", "1", "0", "0", p, q,
                           "--mode", mode, "--precision-bits", str(prec))
        assert code == EXIT_OK
        doc = json.loads(out)
        return doc["degree"], doc["degenerate"]

    assert report("rational") == (6, False)
    assert report("complex") == (6, False)


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


def test_verify_reads_a_negative_denominator_as_its_canonical_pair(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    capsys.readouterr()

    def negated(v):  # every rational [n, d] of the trace as [-n, -d]
        if isinstance(v, list) and len(v) == 2 and all(type(t) is int for t in v):
            return [-v[0], -v[1]]
        if isinstance(v, list):
            return [negated(t) for t in v]
        if isinstance(v, dict):
            return {k: negated(t) for k, t in v.items()}
        return v

    doc = json.loads(trace.read_text())
    assert doc["trace"]["original"]["mode"] == "rational"
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(negated(doc)))
    assert flipped.read_text() != trace.read_text()
    code, out, _ = run(capsys, "verify", "--in", str(trace))
    assert code == EXIT_OK and json.loads(out)["matched"] is True
    assert run(capsys, "verify", "--in", str(flipped)) == (code, out, "")


def test_verify_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/trace.json")
    assert code == EXIT_USAGE and "cannot read" in err


def test_verify_garbage_json_is_usage_error(capsys, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _, err = run(capsys, "verify", "--in", str(f))
    assert code == EXIT_USAGE


def test_verify_reads_a_trace_from_stdin(capsys, tmp_path, monkeypatch):
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(trace.read_text()))
    code, out, _ = run(capsys, "verify", "--in", "-")
    assert code == EXIT_OK and json.loads(out)["matched"] is True


def test_verify_of_a_file_without_a_trace_object_is_usage_error(capsys, tmp_path):
    f = tmp_path / "list.json"
    f.write_text("[]")
    code, _, err = run(capsys, "verify", "--in", str(f))
    assert code == EXIT_USAGE and "trace file has no trace object" in err


def test_unparsable_complex_coefficient_is_usage_error(capsys):
    code, out, err = run(capsys, "reduce", "--mode", "complex",
                         "--coeffs", "1", "abc", "0", "0", "0", "1")
    assert code == EXIT_USAGE and out == "" and "cannot parse coefficient" in err


def _poly_json(*ascending):
    return {"var": "z", "coeffs": [[c, 1] for c in ascending], "mode": "rational"}


@pytest.mark.parametrize("breakage", [
    "step without output", "zero denominator", "steps not a list",
    "non-monic original", "constant original without steps",
    "subsidiary degree not below the input's", "subsidiary missing",
    "reciprocal step", "non-monic step output",
    "step output of another degree", "rescaled step input",
    "step not an object", "integer of 5000 digits", "subsidiary degree true",
    "subsidiary degree zero", "kind not a string", "leading coefficient 1e999999999999",
    "leading coefficient [true, true]", "aux chosen 99", "aux chosen -1", "aux chosen true",
    "aux degree 4", "aux degree true"])
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
    elif breakage == "reciprocal step":
        # z -> 1/z on z^2 - 1: no subsidiary relation, so no step
        t["original"], t["bring_p"], t["bring_q"] = _poly_json(-1, 0, 1), [0, 1], [-1, 1]
        t["steps"] = [{"kind": "reciprocal", "subsidiary": None, "aux": [],
                       "output": _poly_json(-1, 0, 1)}]
    elif breakage == "non-monic step output":
        t["steps"][0]["output"]["coeffs"][-1] = [3, 1]
    elif breakage == "rescaled step input":
        # older traces took a rescue step on A(2w)/2^5; none is read now,
        # so it is refused rather than verified against the wrong input
        t["steps"][-1]["rescue_lambda"] = [2, 1]
    elif breakage == "step not an object":
        t["steps"] = [5]
    elif breakage == "integer of 5000 digits":
        # valid JSON that Python will not read as an int
        t["bring_p"] = ["BIG", 1]
    elif breakage == "subsidiary degree true":
        t["steps"][0]["subsidiary"]["k"] = True  # not read as k = 1
    elif breakage == "subsidiary degree zero":
        t["steps"][0]["subsidiary"]["k"] = 0
    elif breakage == "kind not a string":
        t["steps"][0]["kind"] = ["depress"]
    elif breakage == "leading coefficient 1e999999999999":
        # not monic, decided without building 2^(3.3e12)
        t["original"]["coeffs"][-1] = ["1e999999999999", "0"]
    elif breakage == "leading coefficient [true, true]":
        # JSON booleans are not the integers 1 / 1
        t["original"]["coeffs"][-1] = [True, True]
    elif breakage.startswith("aux "):
        # the principal step's quadratic solve: its root index and degree
        _, key, value = breakage.split()
        t["steps"][1]["aux"][0][key] = json.loads(value)
    else:
        # a quartic original: the bring-curve check would see four roots
        t["original"] = _poly_json(1, 0, 0, 0, 1)
        t["steps"] = [{"kind": "depress", "subsidiary": {"k": 1, "a": [0, 1]}, "aux": [],
                       "output": _poly_json(1, 0, 0, 0, 1, 1)}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"BIG"', "7" * 5000))
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_USAGE and out == ""
    assert "malformed trace" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, token", [
    ("reduce --coeffs 1 0 0 0 0 nan", "nan"),
    ("reduce --coeffs 1 0 0 0 inf 1", "inf"),
    ("reduce --coeffs 1 1 0 0 0 nan", "nan"),  # not a repeated root
    ("reduce --mode complex --coeffs 1,0,0,-inf,0,1", "-inf"),
    ("solve --coeffs 1 nan 2", "nan"),
    ("obstruction --coeffs 1 0 0 1 inf", "inf"),
])
def test_a_coefficient_that_is_not_finite_is_refused(capsys, argv, token):
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_USAGE and out == ""
    assert "not a finite coefficient: %r" % token in err


@pytest.mark.parametrize("argv, token", [
    ("reduce --coeffs 1 0 0 0 0 1e5000", "1e5000"),
    ("solve --coeffs 1 1e5000", "1e5000"),
    ("reduce --coeffs 1 0 0 0 1e-5000 1", "1e-5000"),
    ("solve --mode rational --coeffs 1 1e-5000", "1e-5000"),
    ("reduce --mode complex --coeffs 1 0 0 0 1e1000000000 1", "1e1000000000"),
    ("reduce --mode complex --coeffs 1 0 0 1e30000 1e-30000 1", "1e30000"),
    ("solve --mode complex --coeffs 1 1e5000", "1e5000"),
])
def test_a_coefficient_with_too_many_digits_is_refused(capsys, argv, token):
    # refused before 10^5000 is built, whose digits Python will not print,
    # and in complex mode before the charpoly's exact block spans their
    # exponents, in integers whose products grow with the span
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_USAGE and out == ""
    assert "coefficient %r has too many digits to print" % token in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["bring_p", "original", "step output"])
def test_verify_refuses_a_trace_value_that_is_not_finite(capsys, tmp_path, where, value):
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    t = doc["trace"]
    if where == "bring_p":
        t["bring_p"] = [value, "0"]
    elif where == "original":
        t["original"]["coeffs"][2] = ["0", value]
    else:
        t["steps"][1]["output"]["coeffs"][0] = [value, "0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_USAGE and out == ""
    assert "malformed trace" in err and "finite" in err


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
    "1 -2 3 -1 -4 3",    # (x - 1)^2 (x^3 + 2x + 3)
    "1 1 -1 1 0 0",      # x^2 (x^3 + x^2 - x + 1)
    "1 3 2 6 1 3",       # (x + 3) (x^2 + 1)^2
    "1 2 1 0 0 0",       # x^3 (x + 1)^2
    "1 -1 1 1 0 0",      # x^2 (x^3 - x^2 + x + 1)
    "1 -5 -5 25 40 16",  # (x - 4)^2 (x + 1)^3
])
def test_reduce_refuses_a_repeated_root(capsys, descending):
    # the ansatz would collapse the repeated root: exit 2, and no trace; in
    # both modes the same step's certificate refuses it
    errs = []
    for mode in ("rational", "complex"):
        code, out, err = run(capsys, "reduce", "--mode", mode,
                             "--coeffs", *descending.split())
        assert code == EXIT_DEGENERATE and out == ""
        assert "map merges roots: a repeated root" in err
        errs.append(err)
    assert errs[0] == errs[1]


@pytest.mark.parametrize("descending", [
    "1 0 0 0 -5 4",      # (z - 1)^2 (z^3 + 2z^2 + 3z + 4), already y^5 + P y + Q
    "1 -5 10 -10 5 -1",  # (z - 1)^5, which the shift alone takes to y^5
])
def test_a_repeated_root_that_no_step_merges_reduces_in_both_modes(capsys, descending):
    for mode in ("rational", "complex"):
        code, out, err = run(capsys, "reduce", "--mode", mode,
                             "--coeffs", *descending.split())
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        assert doc["verify"]["matched"] is True
        trace = ReductionTrace.from_json(doc["trace"])
        ok, dist = match_roots(recover_roots(trace), find_roots(trace.original).roots,
                               tol="1e-25")
        assert ok, (mode, dist)


def test_reduce_of_a_cube_times_a_square_exits_two(capsys):
    # z^3 (z + 1)^2: the principal map merges its roots; no output, even
    # in text mode
    code, out, err = run(capsys, "reduce", "--coeffs", "1", "2", "1", "0", "0", "0",
                         "--output", "text")
    assert code == EXIT_DEGENERATE and out == "" and "repeated root" in err


def test_reduce_with_collapsed_repeated_root_exits_two(capsys):
    # ascending (0, 0, 1, 1, -1, 1): the bring-jerrard map would merge its
    # double root at zero
    code, out, _ = run(capsys, "reduce", "--coeffs", "1", "-1", "1", "1", "0", "0")
    assert code == EXIT_DEGENERATE and out == ""


def test_reduce_in_complex_mode_with_collapsed_repeated_root_exits_two(capsys):
    # (x - 1)^2 (x^3 + 2x + 3) read as complex floats: its bring-jerrard
    # step fails its certificate, as in rational mode
    code, out, err = run(capsys, "reduce", "--mode", "complex",
                         "--coeffs", "1", "-2", "3", "-1", "-4", "3")
    assert code == EXIT_DEGENERATE and out == "" and "merges roots" in err
    code, out, _ = run(capsys, "reduce", "--mode", "complex", "--coeffs", *QUINTIC)
    assert code == EXIT_OK and json.loads(out)["verify"]["matched"] is True


def test_complex_repeated_root_collapsed_at_the_principal_step_exits_two(capsys):
    # (z - 4)^2 (z + 1)^3 reaches y^5 at the principal step, so the
    # bring-jerrard step is an identity; the principal step's own
    # certificate refuses it
    code, out, err = run(capsys, "reduce", "--mode", "complex",
                         "--coeffs", "1", "-5", "-5", "25", "40", "16")
    assert code == EXIT_DEGENERATE and out == ""
    assert "principal map merges roots" in err


def test_route_disagreement_states_its_relative_size(capsys):
    # the two routes of the principal step differ by 8.89e+7 on a scale of
    # 1.05e+34: 8.4e-27 relative, above the default tol, and the power-sum
    # route's own error there, 8.4e-27 of the scale against 1024 bits (1.4e-26
    # at its worst coefficient); the resultant route's is 1.3e-32
    code, out, err = run(capsys, "reduce", "--precision-bits", "128", "--coeffs",
                         "1", "5999997", "-9000007", "3000004", "-8000002", "-7999992")
    assert code == EXIT_VERIFY and out == ""
    assert ("disagree at y^0 by 8.89e+7, 8.44e-27 of a scale of 1.05e+34, "
            "against tol 1.0e-30") in err


def test_roots_too_close_for_the_precision_are_not_called_repeated(capsys):
    # four simple roots within 2e-4 of 0, beside one at -7: at 128 bits the
    # principal map fails its certificate, and the refusal names the
    # precision instead of claiming a repeated root; 256 bits resolve them
    coeffs = ["--coeffs", "1 7 1e-15 -3e-15 5e-15 2e-15"]
    code, out, err = run(capsys, "reduce", "--precision-bits", "128", *coeffs)
    assert code == EXIT_DEGENERATE and out == ""
    assert ("map merges roots: a repeated root, or roots too close to resolve "
            "at 128 bits") in err
    code, out, err = run(capsys, "reduce", "--precision-bits", "256", *coeffs)
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["verify"]["matched"] is True
    trace = ReductionTrace.from_json(doc["trace"])
    ok, dist = match_roots(recover_roots(trace), find_roots(trace.original).roots,
                           tol="1e-25")
    assert ok, dist


def test_a_failed_certificate_claims_no_denominator(capsys):
    # no formula divided by zero: the step's certificate failed, and the
    # refusal says that alone
    code, out, err = run(capsys, "reduce", "--precision-bits", "128",
                         "--coeffs", "1 7 1e-15 -3e-15 5e-15 2e-15")
    assert code == EXIT_DEGENERATE and out == ""
    assert err == ("degenerate input: the principal map merges roots: a repeated root, "
                   "or roots too close to resolve at 128 bits\n")


def test_a_cross_check_refusal_names_its_step(capsys):
    code, out, err = run(capsys, "reduce", "--precision-bits", "128", "--coeffs",
                         "1", "5999997", "-9000007", "3000004", "-8000002", "-7999992")
    assert code == EXIT_VERIFY and out == ""
    assert err.startswith("verification failure: principal step: resultant and power-sum "
                          "routes disagree at y^0 by 8.89e+7")


def test_a_condition_that_fails_to_vanish_states_its_bound_and_ratio(capsys):
    # tiny p and q: the ansatz's conditions hold by construction, and the
    # step measures them once, on its output, against that output's scale
    code, out, err = run(capsys, "reduce", "--coeffs", "1", "0", "0", "1e-25", "1e-25", "1",
                         "--output", "text")
    assert code == EXIT_OK and err == "" and "verified: yes" in out
    # a y^2 coefficient of rounding noise, six times tol x scale; the
    # command line refuses a tol this fine at 64 bits, so the library is
    # called
    P = UniPoly([rat(c) for c in (-8, 9, 4, 2, 0, 1)])
    with pytest.raises(ConsistencyError) as exc:
        reduce_general_quintic(P, prec=64, tol="1e-14")
    assert str(exc.value) == ("bring-jerrard step: y^2 coefficient failed to vanish: "
                              "9.95539516486e-12, 6.39 times tol x scale 1.56e-12")
    # a quintic whose y^2 coefficient was 5.67 times tol x scale while the
    # ansatz's forms ran on the Scalar kernels: on ints, it reduces,
    # verifies and recovers
    P = UniPoly([rat(c) for c in (1, -2, 4, 10, 3, 1)])
    cfg = RootConfig(precision_bits=64, tol="1e-14")
    trace = reduce_general_quintic(P, prec=64, tol="1e-14")
    assert verify_trace(trace, cfg).matched
    assert len(recover_roots(trace, cfg)) == 5


@pytest.mark.parametrize("prec", [20, 300])
def test_reports_do_not_depend_on_mpmaths_global_precision(capsys, tmp_path, prec):
    def reports():
        trace = tmp_path / "trace.json"
        assert main(["reduce", "--coeffs"] + QUINTIC + ["--out", str(trace)]) == EXIT_OK
        reduced = trace.read_text()
        assert main(["verify", "--in", str(trace)]) == EXIT_OK
        body = ReductionTrace.from_json(json.loads(reduced)["trace"])
        recovered = [r.to_json() for r in recover_roots(body)]
        return reduced, capsys.readouterr().out, recovered

    default = reports()
    with mpmath.workprec(prec):
        assert reports() == default


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


@pytest.mark.parametrize("argv, message", [
    (["reduce"], "--coeffs is required"),
    (["reduce", "--coeffs", ""], "--coeffs is required"),
    (["solve", "--coeffs", "5"], "nothing to solve at degree 0"),
    (["obstruction", "--coeffs", "1", "0", "1", "1"], "expects a monic quartic"),
    (["obstruction", "--coeffs", "2", "0", "0", "1", "1"], "expects a monic quartic"),
    (["verify"], "verify needs --in"),
])
def test_usage_error_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error: ") and message in err


def test_degenerate_surfaces_as_exit_two(capsys, monkeypatch):
    import bringform.cli as cli

    def boom(poly, prec=None, tol=None):
        raise DegenerateDenominator(rat(0), "coupling vanished")

    monkeypatch.setattr(cli, "reduce_general_quintic", boom)
    code, _, err = run(capsys, "reduce", "--coeffs", *QUINTIC)
    assert code == EXIT_DEGENERATE and "degenerate" in err
