"""Golden corpus of auxiliary-root choices.

``golden/choices.json`` records, for the 100 acceptance quintics
(``random.Random(20260818)``, as in criterion 01) and the README quintic,
every chosen auxiliary root and the P, Q of the final trinomial to 40
significant digits.  Reducing each quintic again must reproduce them to
1e-30 relative, so a change to the arithmetic that silently flips a root
choice fails here.  The corpus holds values, not JSON text: noise digits
beyond the 40th may move freely.

Regenerate it, after a deliberate change of choice, with
``PYTHONPATH=src python tests/test_golden.py``.

``golden/readme_reduce.json`` is the standard output of
``bringform reduce --coeffs 1 -1 4 1 -2 3``, byte for byte: a change that
moves even a trailing digit of the README quintic's trace or report fails
here and has to say so.  Regenerate it, after such a deliberate change, with
``PYTHONPATH=src python -m bringform.cli reduce --coeffs 1 -1 4 1 -2 3
--out tests/golden/readme_reduce.json``.

``golden/obstruction.json`` maps each of six trinomial quartics, written as
the one ``--coeffs`` token of ``bringform obstruction``, to that command's
standard output, byte for byte.  Regenerate it, after a deliberate change,
with ``PYTHONPATH=src python tests/test_golden.py obstruction``.

``golden/digests.json`` pins, by sha256, the exact bytes of the numeric
engine: for the README quintic and the first 20 quintics of seeds 20260818
and 20261017 (``random.Random(seed)``, c0..c4 in [-10, 10]), the reduce
trace JSON, the verify JSON and the recovered roots, and verify and recover
again after a ``ReductionTrace.from_json`` re-read; and ``find_roots`` on
z^5 + 10^310 z + 1 (the float stage falls back: a coefficient out of float
range), z^2 + 10^299 z + 1 (the float iterates stop being finite) and
(z - 1)^5 (the cluster polish).  Its ``exact/`` group pins the bytes of
rational mode: ``dual_eliminate(A, sub)[0].to_json()`` for 60 rational
steps drawn from ``random.Random(20260818)`` (A monic of degree 3 to 5, a
subsidiary of degree 1 <= k < deg A, every coefficient
``Fraction(randint(-9, 9), randint(1, 5))``), the E, F, G and degree of
``quartic_obstruction_G`` for 10 rational pairs (p, q) with p != 0 drawn
next from the same generator, and the standard output of ``bringform
reduce --mode rational --coeffs "1 -1/2 0.25 1 0 3"``.  A speed-up must
leave every digest as it is; a deliberate change of output bytes
regenerates the file, in about two seconds, with ``PYTHONPATH=src python
tests/test_golden.py digests``.  A change to the root finder alone
regenerates only the ``*/roots``, ``*/reread-roots`` and ``find_roots/*``
entries, and keeps every other entry byte for byte, with ``PYTHONPATH=src
python tests/test_golden.py digests roots``.  A failing comparison names
the entries that moved, grouped by their last part (``roots``,
``verify``, ...), the ``find_roots/`` and ``exact/`` entries by their
first.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import mpmath

from bringform import (ReductionTrace, Subsidiary, UniPoly, dual_eliminate,
                       find_roots, quartic_obstruction_G, rat, recover_roots,
                       reduce_general_quintic, verify_trace)
from bringform.cli import EXIT_OK, main

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "choices.json")
README_REDUCE = os.path.join(os.path.dirname(__file__), "golden", "readme_reduce.json")
DIGITS = 40
REL_TOL = mpmath.mpf("1e-30")
README_QUINTIC = [3, -2, 1, 4, -1, 1]
OBSTRUCTION = os.path.join(os.path.dirname(__file__), "golden", "obstruction.json")
OBSTRUCTION_QUARTICS = ["1 0 0 1 1", "1 0 0 0 1", "1 0 0 4 -3", "1 0 0 2 -3",
                        "1 0 0 0 0", "1 0 0 1/2 -7/3"]
DIGESTS = os.path.join(os.path.dirname(__file__), "golden", "digests.json")
DIGEST_SEEDS = (20260818, 20261017)
DIGEST_COUNT = 20
ROOT_GROUPS = ("roots", "reread-roots", "find_roots")  # what ``digests roots`` rewrites
# ascending coefficients of the find_roots cases
FIND_ROOTS_CASES = {"float-range": [1, 10 ** 310, 0, 0, 0, 1],
                    "non-finite": [1, 10 ** 299, 1],
                    "cluster": [-1, 5, -10, 10, -5, 1]}
EXACT_SEED = 20260818
EXACT_STEPS = 60
EXACT_OBSTRUCTIONS = 10
EXACT_CLI = ["reduce", "--mode", "rational", "--coeffs", "1 -1/2 0.25 1 0 3"]


def _quintics():
    rng = random.Random(20260818)
    out = [[rng.randint(-10, 10) for _ in range(5)] + [1] for _ in range(100)]
    return out + [README_QUINTIC]


def _record(coeffs):
    trace = reduce_general_quintic(UniPoly([rat(c) for c in coeffs], "z"))

    def text(v):
        c = v.to_mpc()
        return [mpmath.nstr(c.real, DIGITS), mpmath.nstr(c.imag, DIGITS)]

    chosen = [[a.kind] + text(a.roots[a.chosen]) for st in trace.steps for a in st.aux]
    return {"coeffs": coeffs, "chosen": chosen,
            "P": text(trace.bring_p), "Q": text(trace.bring_q)}


def _close(got, want):
    g = mpmath.mpc(*got)
    w = mpmath.mpc(*want)
    return abs(g - w) <= REL_TOL * max(1, abs(w))


def test_choices_match_golden_corpus():
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    assert [e["coeffs"] for e in corpus] == _quintics()
    with mpmath.workprec(256):
        for want in corpus:
            got = _record(want["coeffs"])
            where = "quintic %s" % want["coeffs"]
            assert [c[0] for c in got["chosen"]] == [c[0] for c in want["chosen"]], where
            for g, w in zip(got["chosen"], want["chosen"]):
                assert _close(g[1:], w[1:]), "%s: %s root %s, golden %s" % (where, g[0], g[1:], w[1:])
            for name in ("P", "Q"):
                assert _close(got[name], want[name]), "%s: %s = %s, golden %s" % (
                    where, name, got[name], want[name])


def test_readme_reduce_output_matches_golden_bytes(capsys):
    assert main(["reduce", "--coeffs", "1", "-1", "4", "1", "-2", "3"]) == EXIT_OK
    with open(README_REDUCE) as fh:
        assert capsys.readouterr().out == fh.read()


def _roots_json(roots):
    return json.dumps([z.to_json() for z in roots])


def _digest_texts():
    """(name, text) for every output that ``golden/digests.json`` pins."""
    cases = [("readme", README_QUINTIC)]
    for seed in DIGEST_SEEDS:
        rng = random.Random(seed)
        for i in range(DIGEST_COUNT):
            cases.append(("%d/%d" % (seed, i), [rng.randint(-10, 10) for _ in range(5)] + [1]))
    for name, coeffs in cases:
        trace = reduce_general_quintic(UniPoly([rat(c) for c in coeffs], "z"))
        text = json.dumps(trace.to_json(), sort_keys=True)
        yield name + "/trace", text
        yield name + "/verify", json.dumps(verify_trace(trace).to_json())
        yield name + "/roots", _roots_json(recover_roots(trace))
        reread = ReductionTrace.from_json(json.loads(text))
        yield name + "/reread-verify", json.dumps(verify_trace(reread).to_json())
        yield name + "/reread-roots", _roots_json(recover_roots(reread))
    for name, coeffs in FIND_ROOTS_CASES.items():
        found = find_roots(UniPoly([rat(c) for c in coeffs], "z"))
        yield "find_roots/" + name, json.dumps(
            [[z.to_json() for z in found.roots], found.converged, found.iterations])
    yield from _exact_texts()


def _exact_texts():
    """(name, text) for the ``exact/`` group: rational mode end to end."""
    rng = random.Random(EXACT_SEED)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for i in range(EXACT_STEPS):
        n = rng.randint(3, 5)
        A = UniPoly([rat(c) for c in [draw() for _ in range(n)] + [1]], "z")
        k = rng.randint(1, n - 1)
        sub = Subsidiary(k, tuple(rat(draw()) for _ in range(k)))
        yield "exact/eliminate/%d" % i, json.dumps(dual_eliminate(A, sub)[0].to_json())

    def form(f):
        return [[list(e), f[e].to_json()] for e in sorted(f)]

    for i in range(EXACT_OBSTRUCTIONS):
        p = draw()
        while p == 0:
            p = draw()
        report = quartic_obstruction_G(rat(p), rat(draw()))
        yield "exact/obstruction/%d" % i, json.dumps(
            [form(report.y2_condition), form(report.y1_condition),
             report.obstruction.to_json(), report.degree])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(EXACT_CLI) == EXIT_OK
    yield "exact/cli-rational", out.getvalue()


def _digests():
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in _digest_texts()}


def _group(name):
    """A digest's group: the first part of a ``find_roots/`` or ``exact/``
    name, the last part of any other."""
    head = name.split("/", 1)[0]
    return head if head in ("find_roots", "exact") else name.rsplit("/", 1)[1]


def test_outputs_match_golden_digests():
    with open(DIGESTS) as fh:
        golden = json.load(fh)
    got = _digests()
    assert list(got) == list(golden)
    moved = {}
    for name in golden:
        if got[name] != golden[name]:
            moved.setdefault(_group(name), []).append(name)
    assert moved == {}


def _obstruction_stdout(coeffs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["obstruction", "--coeffs", coeffs]) == EXIT_OK
    return out.getvalue()


def test_obstruction_output_matches_golden_bytes():
    with open(OBSTRUCTION) as fh:
        golden = json.load(fh)
    assert list(golden) == OBSTRUCTION_QUARTICS
    for coeffs, want in golden.items():
        assert _obstruction_stdout(coeffs) == want, coeffs


if __name__ == "__main__" and sys.argv[1:] in (["digests"], ["digests", "roots"]):
    digests = _digests()
    if sys.argv[2:]:
        with open(DIGESTS) as fh:
            kept = json.load(fh)
        assert list(kept) == list(digests), "the entries themselves changed: regenerate all"
        digests = {name: digest if _group(name) in ROOT_GROUPS else kept[name]
                   for name, digest in digests.items()}
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
elif __name__ == "__main__" and sys.argv[1:] == ["obstruction"]:
    with open(OBSTRUCTION, "w") as fh:
        json.dump({c: _obstruction_stdout(c) for c in OBSTRUCTION_QUARTICS}, fh, indent=1)
        fh.write("\n")
elif __name__ == "__main__":
    lines = [json.dumps(_record(c)) for c in _quintics()]
    with open(CORPUS, "w") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
