"""Command-line tests: every verb, error exits, report determinism, the
show round trip, and the no-floats lint."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from oracles import assert_float_free

import ckstab
from ckstab.cli import build_parser, main, render_table, resolve_model_path
from ckstab.serialize import canonical_json, load_model
from ckstab.serialize import ParseError, ValidationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)["report"]


def test_futaki(capsys):
    code, out, _ = run(capsys, "futaki", "p1_halves")
    assert code == 0
    rep = report_of(out)
    assert rep["total"] == ["0"] and rep["vanishes"] is True


def test_delta_with_witness(capsys):
    code, out, _ = run(capsys, "delta", "bl1p2_halves")
    assert code == 0
    rep = report_of(out)
    assert rep["delta"]["value"] == "6/7"
    assert rep["witness"] == [1, 1]
    assert any("cocharacter" in a for a in rep["assumptions"])


def test_jnorm(capsys):
    code, out, _ = run(capsys, "jnorm", "p1_halves", "--xi", "3")
    assert code == 0
    assert report_of(out)["jnorm"]["value"] == "3"


def test_negative_values_after_flags(capsys):
    # argparse would read "-1,2" as a flag; value flags take it as a value
    code, out, _ = run(capsys, "jnorm", "p2", "--xi", "-1,2")
    assert code == 0
    assert out == run(capsys, "jnorm", "p2", "--xi=-1,2")[1]
    # a plain negative number keeps its separate token in the record
    code, out, _ = run(capsys, "lct", "p2", "--eta", "-1,0", "--level", "-1")
    assert code == 0
    assert json.loads(out)["command"][3:] == ["--eta=-1,0", "--level", "-1"]
    code, _, err = run(capsys, "ding", "p1_halves", "--eta", "1",
                       "--slope", "-1/2")
    assert code == 1 and err.startswith("error: slope parameter must be positive")
    # a flag after a value flag is still reported as a missing value
    code, _, err = run(capsys, "jnorm", "p2", "--xi", "--format", "json")
    assert code == 1 and "expected one argument" in err


def test_verbs_back_to_back_match_fresh_processes(capsys):
    # main() reuses one parser, so no call may see another's arguments
    src = os.path.dirname(os.path.dirname(ckstab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    calls = [("futaki", "p2_halves"),
             ("jnorm", "p1_halves", "--xi", "3", "--format", "table"),
             ("delta", "bl1p2_halves", "--bogus"),
             ("delta", "bl1p2_halves"),
             ("lct", "p2", "--eta", "-1,0", "--level", "1"),
             ("jnorm", "p2", "--xi", "-1,2")]
    codes = []
    for argv in calls:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "ckstab.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        if code:
            assert err == fresh.stderr
        codes.append(code)
    assert codes == [0, 0, 1, 0, 0, 0]
    assert build_parser() is build_parser()


def test_rank4_product_of_two_hexagons(capsys, tmp_path):
    # dP6 x dP6: the hexagon's fan in each factor, 12 rays in all, split as
    # hexagon x 0 plus 0 x hexagon
    fan = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    path = tmp_path / "hexagons.json"
    path.write_text(json.dumps({
        "name": "hexagons", "rank": 4,
        "rays": [[a, b, 0, 0] for a, b in fan] + [[0, 0, a, b] for a, b in fan],
        "decomposition": [
            {"vertices": [[str(a), str(b), "0", "0"] for a, b in hexagon]},
            {"vertices": [["0", "0", str(a), str(b)] for a, b in hexagon]}]}))
    antican = load_model(str(path)).anticanonical
    # the product of two hexagons: 6 x 6 vertices, 6 + 6 facets
    assert len(antican.vertices) == 36 and len(antican.halfspaces) == 12
    assert {h.offset for h in antican.halfspaces} == {-1}
    code, out, _ = run(capsys, "futaki", str(path))
    # both summands are centrally symmetric, so each barycenter is 0
    assert code == 0 and report_of(out) == {
        "model": "hexagons", "per_summand": [["0"] * 4] * 2,
        "total": ["0"] * 4, "vanishes": True}
    # and with every barycenter at 0 the coupled threshold is 1
    code, out, _ = run(capsys, "delta", str(path))
    assert code == 0 and report_of(out)["delta"]["value"] == "1"


def test_reduced_jnorm(capsys):
    code, out, _ = run(capsys, "reduced-jnorm", "p1_halves", "--xi", "1",
                       "--subtorus", "trivial")
    assert code == 0
    assert report_of(out)["reduced_jnorm"]["value"] == "1"


def test_reduced_delta_variants(capsys):
    code, out, _ = run(capsys, "reduced-delta", "bl1p2_halves",
                       "--subtorus", "full")
    assert code == 0 and report_of(out)["reduced_delta"]["value"] is None
    code, out, _ = run(capsys, "reduced-delta", "bl1p2_halves",
                       "--subtorus", "trivial")
    assert code == 0 and report_of(out)["reduced_delta"]["value"] == "6/7"
    code, out, _ = run(capsys, "reduced-delta", "p1xp1_symmetric",
                       "--subtorus", "1,0")
    assert code == 0 and report_of(out)["reduced_delta"]["value"] == "1"


def test_ding(capsys):
    code, out, _ = run(capsys, "ding", "bl1p2_halves", "--eta", "1,1")
    assert code == 0
    assert report_of(out)["ding"]["value"] == "-1/6"
    code, out, _ = run(capsys, "ding", "p1_halves", "--eta", "1",
                       "--slope", "2")
    assert code == 0
    assert report_of(out)["ding"]["value"] == "-1/2"


def test_lct(capsys):
    code, out, _ = run(capsys, "lct", "p1_halves", "--eta", "1", "--level", "2")
    assert code == 0
    rep = report_of(out)
    assert rep["lct"]["value"] == "1/2" and rep["witness"] == [1]


def test_destabilize(capsys):
    code, out, _ = run(capsys, "destabilize", "bl1p2_halves")
    assert code == 0
    rep = report_of(out)
    assert rep["destabilizer"]["eta"] == [1, 1]
    assert rep["destabilizer"]["ding"]["value"] == "-1/6"
    code, out, _ = run(capsys, "destabilize", "p2_halves")
    assert code == 0 and report_of(out)["destabilizer"] is None


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "p2_steps", "--samples", "15",
                         "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "p2_steps", "--samples", "15",
                         "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = report_of(out1)
    assert rep["suite"]["failed"] == 0 and rep["suite"]["passed"] > 0


def test_show_roundtrip(capsys, tmp_path):
    out_path = str(tmp_path / "report.json")
    code, table_direct, _ = run(capsys, "delta", "bl1p2_halves",
                                "--format", "table", "--out", out_path)
    assert code == 0
    code, shown, _ = run(capsys, "show", out_path)
    assert code == 0
    assert shown == table_direct


def test_input_not_mutated(capsys, tmp_path):
    src = resolve_model_path("bl1p2_halves.json")
    dst = tmp_path / "model.json"
    dst.write_bytes(open(src, "rb").read())
    before = hashlib.sha256(dst.read_bytes()).hexdigest()
    code, out, _ = run(capsys, "delta", str(dst))
    assert code == 0
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == before
    assert json.loads(out)["input_sha256"] == before


def test_no_float_literals_in_reports(capsys):
    code, out, _ = run(capsys, "verify", "p1_halves", "--samples", "10",
                       "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert_float_free(data)
    # and the canonical writer rejects floats outright
    with pytest.raises(ValidationError):
        canonical_json({"x": 0.5})


def test_parse_error_with_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 1, "rays": [[1], [-1]], "decompo')
    code, _, err = run(capsys, "delta", str(bad))
    assert code == 1
    assert "byte" in err


def test_validation_error_exit(capsys, tmp_path):
    bad = tmp_path / "mismatch.json"
    bad.write_text(json.dumps({
        "rank": 1, "rays": [[1], [-1]],
        "decomposition": [{"vertices": [["0"], ["1"]]},
                          {"vertices": [["0"], ["1"]]}],
    }))
    code, _, err = run(capsys, "delta", str(bad))
    assert code == 1
    assert "Minkowski" in err


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "delta", "no_such_model_anywhere")
    assert code == 1 and "not found" in err


def test_unwritable_out(capsys, tmp_path):
    target = tmp_path / "not_a_dir" / "report.json"
    code, _, err = run(capsys, "delta", "p1_halves", "--out", str(target))
    assert code == 1 and "cannot write" in err


def test_fixture_env_override(capsys, tmp_path, monkeypatch):
    src = resolve_model_path("p1_halves.json")
    alt = tmp_path / "alt.json"
    alt.write_bytes(open(src, "rb").read())
    monkeypatch.setenv("CKS_FIXTURES", str(tmp_path))
    code, out, _ = run(capsys, "futaki", "alt.json")
    assert code == 0 and report_of(out)["vanishes"] is True


def test_render_table_scalars():
    text = render_table({"a": {"b": None, "c": True}, "d": ["1/2", "x"]})
    assert "+inf" in text and "true" in text and "[1/2, x]" in text


def test_model_roundtrip_through_json(tmp_path, bl1p2):
    from ckstab.serialize import model_from_json, model_to_json
    data = model_to_json(bl1p2)
    again = model_from_json(data)
    assert again.anticanonical == bl1p2.anticanonical
    assert again.summands == bl1p2.summands
    assert again.barycenters == bl1p2.barycenters


def test_ding_under_summand_reversal_and_split(capsys, tmp_path, models):
    # Reversing the summands reverses every per-summand output: the Ding
    # summand slopes, the Futaki vector of each summand, the J norm of each
    # summand, and the lc threshold (value and witness) of each summand
    # ring.  Splitting summand 0 into two halves keeps the Ding value and
    # mu.  Both keep the reports of futaki's total, jnorm, lct, delta,
    # destabilize, reduced-jnorm and reduced-delta.
    import random
    from fractions import Fraction as F
    from ckstab.serialize import model_to_json, polytope_to_json
    from ckstab.toric import (MonomialIdealSeq, log_discrepancy, monomial_lct,
                              t_invariant)
    rng = random.Random(59)

    def report(path, verb, *flags):
        code, out, err = run(capsys, verb, str(path), *flags)
        assert code == 0, (verb, flags, err)
        return report_of(out)

    def direction():
        while True:
            v = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(model.rank)]
            if any(v):
                return v

    def flag(v):
        return ",".join(map(str, v))

    for name, model in models.items():
        k = model.num_summands
        data = model_to_json(model)
        half = polytope_to_json(model.summands[0].scale(F(1, 2)))
        paths = {}
        for key, summands in [("same", data["decomposition"]),
                              ("reverse", data["decomposition"][::-1]),
                              ("split", [half, half, *data["decomposition"][1:]])]:
            paths[key] = tmp_path / f"{name}_{key}.json"
            paths[key].write_text(json.dumps({**data, "decomposition": summands}))
        same, reverse, split = paths.values()
        reversed_model = load_model(str(reverse))

        calls = [("delta",), ("destabilize",), ("reduced-delta", "--subtorus=trivial")]
        if model.rank == 2:
            calls.append(("reduced-delta", "--subtorus=1,-1"))
        for _ in range(3):
            v = direction()
            eta, xi = flag(v), flag(direction())
            level = F(rng.randint(1, 4), 4) * log_discrepancy(model, v)
            calls += [("jnorm", f"--xi={xi}"),
                      ("lct", f"--eta={eta}", f"--level={level}"),
                      ("reduced-jnorm", f"--xi={xi}", "--subtorus=trivial")]

            ding = report(same, "ding", f"--eta={eta}")
            ding_reversed = report(reverse, "ding", f"--eta={eta}")
            assert ding_reversed["summand_slopes"] == ding["summand_slopes"][::-1]
            ding_split = report(split, "ding", f"--eta={eta}")
            for other in (ding_reversed, ding_split):
                assert (other["ding"], other["mu"]) == (ding["ding"], ding["mu"])

            for i in range(k):
                assert (report(reverse, "jnorm", f"--xi={xi}", f"--summand={k - 1 - i}")
                        ["jnorm"] == report(same, "jnorm", f"--xi={xi}",
                                            f"--summand={i}")["jnorm"]), name
                e = direction()
                level = F(rng.randint(0, 4), 4) * t_invariant(model, i, e)
                want = monomial_lct(model, MonomialIdealSeq.valuation_levels(
                    e, level, i))
                got = monomial_lct(reversed_model, MonomialIdealSeq.valuation_levels(
                    e, level, k - 1 - i))
                assert (got.value, got.witness) == (want.value, want.witness), name

        futaki = report(same, "futaki")
        futaki_reversed = report(reverse, "futaki")
        assert futaki_reversed["per_summand"] == futaki["per_summand"][::-1]
        for other in (futaki_reversed, report(split, "futaki")):
            assert (other["total"], other["vanishes"]) == (futaki["total"],
                                                           futaki["vanishes"])
        for call in calls:
            want = report(same, *call)
            assert report(reverse, *call) == want, (name, call)
            assert report(split, *call) == want, (name, call)

    # P^1 in thirds with summand 0 in halves has family step 8; ding and
    # destabilize read no degree grid, so both run at their defaults
    split = tmp_path / "p1_thirds_split.json"
    assert report(split, "ding", "--eta=1") == {
        "ding": {"provenance": "closed-form", "value": "0"}, "eta": ["1"],
        "model": "p1_thirds", "mu": "1", "slope": "1",
        "summand_slopes": ["1/4", "1/4", "1/2"]}
    assert report(split, "destabilize") == {"destabilizer": None,
                                            "model": "p1_thirds"}


def test_rational_parser_reduces():
    from ckstab.serialize import parse_rational, format_rational
    from fractions import Fraction as F
    assert parse_rational("2/4") == F(1, 2)
    assert format_rational(parse_rational("2/4")) == "1/2"
    assert parse_rational("-6/3") == -2
    with pytest.raises(ParseError):
        parse_rational(0.5)


def test_polytope_halfspace_fragment():
    from fractions import Fraction as F
    from ckstab.serialize import polytope_from_json
    p = polytope_from_json({"halfspaces": [
        {"normal": [1], "offset": "-1"}, {"normal": [-1], "offset": "-1"}]})
    assert p.vertices == ((F(-1),), (F(1),))
    q = polytope_from_json({"vertices": [["2/4"], ["1"]]})
    assert q.vertices == ((F(1, 2),), (F(1),))   # non-reduced input reduced
