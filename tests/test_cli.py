"""Command-line tests: every verb, error exits, report determinism, the
show round trip, and the no-floats lint."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_NAMES
from oracles import (assert_float_free, assert_summands_are_hulls,
                     canonical_json_oracle, ding_descriptor_oracle,
                     model_to_json, polytope_to_json)

import ckstab
from ckstab.cli import build_parser, main, render_table, resolve_model_path
from ckstab.filtration import ValuationDescriptor
from ckstab.geometry import as_vec
from ckstab.serialize import (canonical_json, format_rational, load_model,
                              model_from_json)
from ckstab.serialize import IoError, ParseError, ValidationError
from ckstab.stability import (SubtorusSpec, coupled_delta, coupled_futaki,
                              ding_of_descriptors, find_destabilizer, j_twist,
                              reduced_coupled_delta, reduced_coupled_j)
from ckstab.toric import (TOTAL, MonomialIdealSeq, log_discrepancy,
                          monomial_lct, t_invariant)


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


@pytest.mark.parametrize("argv", [
    ["jnorm", "p2", "--xi", "-1,2"],
    ["ding", "p2", "--eta", "-1,1"],
    ["reduced-delta", "p2", "--subtorus", "-1,1"],
    ["lct", "p2", "--eta=1,0", "--level", "-1/2"],
    ["ding", "p2", "--eta=1,0", "--slope", "-1/2"],
    ["lct", "p2", "--eta=1,0", "--level=1", "--scale", "-1/2"],
], ids=lambda argv: argv[-2])
def test_each_value_flag_takes_a_negative_value_as_its_next_token(capsys, argv):
    # every flag with a str value reads "--flag -v" as "--flag=-v": the
    # same exit code, report and messages, up to the timing on stderr
    def call(args):
        code, out, err = run(capsys, *args)
        return code, out, re.sub(r"\d+\.\d+s$", "", err, flags=re.M)

    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert call(argv) == call(joined)


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


@pytest.mark.parametrize("argv", [
    ["futaki", "p2", "--bogus"],                 # an unrecognized flag
    ["futaki", "p2", "extra"],                   # an extra positional
    ["jnorm", "p2"],                             # a missing --xi
    ["delta", "p2", "--format", "xml"],          # a bad --format
    ["verify", "p2", "--samples", "x"],          # a bad --samples
    ["delta"],                                   # a missing model
    ["lct", "-h"],                               # a verb's help
    ["-h"],                                      # the whole help
    ["nope", "p2"],                              # an unknown verb
    [],                                          # no verb
], ids=lambda argv: " ".join(argv) or "empty")
def test_usage_errors_match_the_whole_parser(capsys, argv):
    # a known verb is parsed by its own parser, but every usage error, and
    # help, prints what the whole parser prints, with its exit code
    code, out, err = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, out, err) == (1 if exc.value.code else 0, want.out, want.err)
    assert err or out


def test_a_known_verb_skips_the_whole_parser(capsys, monkeypatch):
    def whole():
        raise AssertionError("the whole parser was used")

    monkeypatch.setattr("ckstab.cli.build_parser", whole)
    code, out, _ = run(capsys, "jnorm", "p2", "--xi", "-1,2", "--format", "table")
    assert code == 0 and out.startswith("jnorm.provenance")


def test_cli_imports_no_code_generating_modules():
    # a fresh interpreter without site that runs a verb in-process loads
    # none of the modules that generate or introspect code at import
    src = os.path.dirname(os.path.dirname(ckstab.__file__))
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import ckstab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ckstab.cli.main(['delta', 'p2'])\n"
        "mods = ('dataclasses', 'inspect', 'importlib.resources')\n"
        "print(json.dumps([code, [m for m in mods if m in sys.modules]]))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


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


# every verb whose report holds vectors, and delta
SHOW_CASES = [
    ("delta", "bl1p2_halves"),
    ("futaki", "bl1p2_hsplit"),
    ("jnorm", "p2_steps", "--xi", "1/2,-1", "--summand", "0"),
    ("reduced-jnorm", "bl1p2_hsplit", "--xi", "1/2,-1", "--subtorus", "1,1"),
    ("ding", "bl1p2_hsplit", "--eta", "1,-2", "--slope", "1/2"),
    ("lct", "p2_steps", "--eta", "1,-2", "--level", "7", "--scale", "2"),
    ("verify", "p1_thirds", "--samples", "1"),
]


def test_show_roundtrip(capsys, tmp_path):
    # a table renders the canonical form, so rationals inside vectors print
    # as "p/q" exactly as the stored report has them
    for i, argv in enumerate(SHOW_CASES):
        out_path = str(tmp_path / f"report{i}.json")
        code, table_direct, _ = run(capsys, *argv, "--format", "table",
                                    "--out", out_path)
        assert code == 0
        code, shown, _ = run(capsys, "show", out_path)
        assert code == 0
        assert shown == table_direct, argv
        assert "Fraction" not in shown and "(" not in shown, argv


def test_vector_tables_pinned(capsys):
    code, out, _ = run(capsys, "futaki", "bl1p2_hsplit", "--format", "table")
    assert code == 0 and out == (
        "model        bl1p2_hsplit\n"
        "per_summand  [[1/3, 1/3], [-2/9, -2/9]]\n"
        "total        [1/9, 1/9]\n"
        "vanishes     false\n")
    code, out, _ = run(capsys, "ding", "bl1p2_hsplit", "--eta", "1,-2",
                       "--slope", "1/2", "--format", "table")
    assert code == 0 and out == (
        "ding.provenance  lower-bound\n"
        "ding.value       1/9\n"
        "eta              [1, -2]\n"
        "model            bl1p2_hsplit\n"
        "mu               5\n"
        "slope            1/2\n"
        "summand_slopes   [5/3, 29/9]\n")


# family steps above 4: summand denominators 5, and a dP6 split translated by
# thirds and halves (step 6)
STEP_ABOVE_FOUR = {
    "fifths": {"rank": 1, "rays": [[1], [-1]], "decomposition": [
        {"vertices": [["-1/5"], ["1/5"]]}, {"vertices": [["-4/5"], ["4/5"]]}]},
    "dp6_moved": {"rank": 2, "rays": [[1, 0], [1, 1], [0, 1], [-1, 0],
                                      [-1, -1], [0, -1]], "decomposition": [
        {"vertices": [["-1/6", "-1/2"], ["-1/6", "0"], ["1/3", "-1"],
                      ["1/3", "0"], ["5/6", "-1"], ["5/6", "-1/2"]]},
        {"vertices": [["-5/6", "1/2"], ["-5/6", "1"], ["-1/3", "0"],
                      ["-1/3", "1"], ["1/6", "0"], ["1/6", "1/2"]]}]},
}


@pytest.mark.parametrize("name", sorted(STEP_ABOVE_FOUR))
def test_verify_runs_above_degree_four(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(STEP_ABOVE_FOUR[name]))
    code, out, err = run(capsys, "verify", str(path), "--samples", "3")
    assert code == 0, err
    suite = report_of(out)["suite"]
    assert suite["failed"] == 0 and suite["passed"] > 0


def test_reduced_delta_refuses_unsaturated_subtorus(capsys):
    code, out, err = run(capsys, "reduced-delta", "p2", "--subtorus", "2,0")
    assert (code, out) == (1, "")
    assert err == ("error: subtorus basis does not span a saturated "
                   "sublattice\n")


def test_input_not_mutated(capsys, tmp_path):
    src = resolve_model_path("bl1p2_halves.json")
    dst = tmp_path / "model.json"
    dst.write_bytes(open(src, "rb").read())
    before = hashlib.sha256(dst.read_bytes()).hexdigest()
    code, out, _ = run(capsys, "delta", str(dst))
    assert code == 0
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == before
    assert json.loads(out)["input_sha256"] == before


def test_model_file_read_once_and_hashed_as_parsed(capsys, tmp_path,
                                                  monkeypatch):
    # one read serves both the digest and the parse, and one more reads
    # the file back after the run to compare its bytes; one digest is taken
    dst = tmp_path / "model.json"
    dst.write_bytes(open(resolve_model_path("bl1p2_halves.json"), "rb").read())
    opened = []
    hashed = []
    real_open = open
    real_sha256 = hashlib.sha256

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == str(dst):
            opened.append(args[:1])
        return real_open(file, *args, **kwargs)

    def counting_sha256(data):
        hashed.append(data)
        return real_sha256(data)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(ckstab.cli.hashlib, "sha256", counting_sha256)
    code, out, _ = run(capsys, "ding", str(dst), "--eta", "1,1")
    monkeypatch.undo()
    assert code == 0
    assert opened == [("rb",), ("rb",)]
    assert hashed == [dst.read_bytes()]
    assert json.loads(out)["input_sha256"] == hashlib.sha256(
        dst.read_bytes()).hexdigest()


def test_model_file_changed_during_run(capsys, tmp_path, monkeypatch):
    dst = tmp_path / "model.json"
    dst.write_bytes(open(resolve_model_path("p1_halves.json"), "rb").read())
    futaki = ckstab.cli.VERBS["futaki"]

    def touching(model, args):
        with open(dst, "ab") as fh:
            fh.write(b"\n")
        return futaki(model, args)

    monkeypatch.setitem(ckstab.cli.VERBS, "futaki", touching)
    code, out, err = run(capsys, "futaki", str(dst))
    assert (code, out) == (1, "")
    assert err == f"error: input file {dst} changed during the run\n"


def test_no_float_literals_in_reports(capsys):
    code, out, _ = run(capsys, "verify", "p1_halves", "--samples", "10",
                       "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert_float_free(data)
    # and the canonical writer rejects floats outright
    with pytest.raises(ValidationError):
        canonical_json({"x": 0.5})


_KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(),
                  st.none(), st.fractions(max_denominator=4))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2 ** 64, 2 ** 200),
    st.fractions(), st.fractions(max_value=0),
    st.text(), st.text(st.characters(max_codepoint=0x7f), max_size=8),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600"]))


def _nested(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_KEYS, kids, max_size=4)), max_leaves=16)


@settings(max_examples=150, deadline=None)
@given(_nested(_LEAVES))
@example({})
@example([[], {}, ()])
@example({1: F(-1, 2), "1": "one", 2: {"2": None, 2: True}})
@example({"1": "one", 1: F(-7, 3)})
def test_canonical_json_matches_the_two_walk_oracle(obj):
    assert canonical_json(obj) == canonical_json_oracle(obj)


@settings(max_examples=60, deadline=None)
@given(_nested(_LEAVES), st.floats(allow_nan=True),
       st.lists(st.sampled_from(["list", "tuple", "dict", "shadowed"]),
                max_size=6))
@example({}, 0.5, ["shadowed"])
def test_canonical_json_rejects_a_float_at_any_depth(obj, x, path):
    # the float sits under the wrappers of path beside obj; "shadowed" puts
    # it under a key that a later key of the same str() replaces
    for kind in path:
        if kind == "list":
            x = [obj, x]
        elif kind == "tuple":
            x = (x, obj)
        elif kind == "dict":
            x = {"k": x, "o": obj}
        else:
            x = {1: x, "1": obj}
    for render in (canonical_json, canonical_json_oracle):
        with pytest.raises(ValidationError, match="floating point"):
            render(x)


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
    assert err == "error: support of the decomposition along ray (-1) is -2, expected -1\n"


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


def test_model_path_candidates_in_order(tmp_path, monkeypatch):
    # the path itself, then CKS_FIXTURES, then the package; then the same
    # three with ".json" for a name without it
    packaged = resolve_model_path("p1_halves.json")
    env = tmp_path / "env"
    env.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CKS_FIXTURES", str(env))
    assert resolve_model_path("p1_halves") == packaged
    # a CKS_FIXTURES file shadows the packaged one, with or without suffix
    (env / "p1_halves.json").write_text("{}")
    assert resolve_model_path("p1_halves.json") == str(env / "p1_halves.json")
    assert resolve_model_path("p1_halves") == str(env / "p1_halves.json")
    # the path itself comes first
    (tmp_path / "p1_halves.json").write_text("{}")
    assert resolve_model_path("p1_halves.json") == "p1_halves.json"
    assert resolve_model_path("p1_halves") == "p1_halves.json"
    # the name as given, in any place, comes before the ".json" retry
    (env / "p1_halves").write_text("{}")
    assert resolve_model_path("p1_halves") == str(env / "p1_halves")
    (tmp_path / "p1_halves").write_text("{}")
    assert resolve_model_path("p1_halves") == "p1_halves"
    monkeypatch.delenv("CKS_FIXTURES")
    assert resolve_model_path("p1_halves.json") == "p1_halves.json"
    (tmp_path / "p1_halves.json").unlink()
    assert resolve_model_path("p1_halves.json") == packaged
    with pytest.raises(IoError, match="^model file not found: nothing.json$"):
        resolve_model_path("nothing")
    with pytest.raises(IoError, match="^model file not found: nothing.json$"):
        resolve_model_path("nothing.json")
    # in a stand-in package directory, the name as given comes before a
    # ".json" file in the working directory
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    monkeypatch.setattr(ckstab.cli, "_FIXTURES_DIR", pkg)
    (pkg / "q").write_text("{}")
    (tmp_path / "q.json").write_text("{}")
    assert resolve_model_path("q") == str(pkg / "q")


def test_render_table_scalars():
    # a null is +inf only as a value (an infinite threshold); any other null
    # is a missing object
    text = render_table({"a": {"b": None, "c": True, "value": None},
                         "d": ["1/2", "x"], "e": [None]})
    assert text == ("a.b      none\n"
                    "a.c      true\n"
                    "a.value  +inf\n"
                    "d        [1/2, x]\n"
                    "e        [none]\n")


def test_null_tables_pinned(capsys):
    code, out, _ = run(capsys, "destabilize", "p2_halves", "--format", "table")
    assert code == 0 and out == ("destabilizer  none\n"
                                 "model         p2_halves\n")
    code, out, _ = run(capsys, "reduced-delta", "p2", "--format", "table")
    assert code == 0 and out == (
        "assumptions               [search space restricted to "
        "torus-invariant cocharacter valuations; exactness on toric models "
        "relies on equivariant reduction]\n"
        "model                     p2\n"
        "note                      every invariant valuation is a twist of "
        "the trivial one; the infimum runs over an empty set\n"
        "reduced_delta.provenance  closed-form\n"
        "reduced_delta.value       +inf\n"
        "subtorus                  [[1, 0], [0, 1]]\n"
        "witness                   none\n")


def test_model_roundtrip_through_json(tmp_path, bl1p2):
    data = model_to_json(bl1p2)
    again = model_from_json(data)
    assert again.anticanonical == bl1p2.anticanonical
    assert again.summands == bl1p2.summands
    assert again.barycenters == bl1p2.barycenters


def _rearranged(model, order=None, split=None) -> dict:
    """The model's JSON with, when ``split`` is (i, t), summand Q_i replaced
    in place by t Q_i and (1 - t) Q_i, and then the summands taken in
    ``order`` (by default as they stand)."""
    parts = [polytope_to_json(p) for p in model.summands]
    if split is not None:
        i, t = split
        parts[i:i + 1] = [polytope_to_json(model.summands[i].scale(c))
                          for c in (t, 1 - t)]
    if order is not None:
        parts = [parts[j] for j in order]
    return {**model_to_json(model), "decomposition": parts}


def test_ding_under_summand_reversal_and_split(capsys, tmp_path, models):
    # Reversing the summands reverses every per-summand output: the Ding
    # summand slopes, the Futaki vector of each summand, the J norm of each
    # summand, and the lc threshold (value and witness) of each summand
    # ring.  Splitting summand 0 into two halves keeps the Ding value and
    # mu.  Both keep the reports of futaki's total, jnorm, lct, delta,
    # destabilize, reduced-jnorm and reduced-delta.
    import random
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
        paths = {}
        for key, data in [("same", _rearranged(model)),
                          ("reverse", _rearranged(model, order=range(k)[::-1])),
                          ("split", _rearranged(model, split=(0, F(1, 2))))]:
            paths[key] = tmp_path / f"{name}_{key}.json"
            paths[key].write_text(json.dumps(data))
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


def _draw_rearrangement(data, model):
    """A split (i, t) of the model's summand i into t Q_i and (1 - t) Q_i,
    and an order of the k + 1 pieces, drawn; returns them with the split
    model and the split model taken in that order, each of whose summands
    is checked against the hull of its point table."""
    k = model.num_summands
    i = data.draw(st.integers(0, k - 1))
    den = data.draw(st.integers(2, 7))
    t = F(data.draw(st.integers(1, den - 1)), den)
    order = data.draw(st.permutations(range(k + 1)))
    models = []
    for written in (_rearranged(model, split=(i, t)),
                    _rearranged(model, order, (i, t))):
        models.append(model_from_json(written))
        assert_summands_are_hulls(models[-1], written["decomposition"])
    return (i, t, order, *models)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["p1cubed", "p3_halves",
                                                  "p3_quarters"])
@settings(derandomize=True, database=None, deadline=None, max_examples=4,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lct_under_summand_permutation_and_split(models, rank3_models, name,
                                                 data):
    # Split summand i of a model into t Q_i and (1 - t) Q_i, then take all
    # k + 1 summands in any order.  The lc threshold of the total ring does
    # not change, summand j of the result has the threshold (value and
    # witness) of summand order[j] of the split model, and a piece c Q_i at
    # level c L has that of Q_i at level L with the ideal scaled by c.
    model = {**models, **rank3_models}[name]
    i, t, order, split, moved = _draw_rearrangement(data, model)
    eta = data.draw(st.lists(st.integers(-2, 2), min_size=model.rank,
                             max_size=model.rank).filter(any))
    frac = F(data.draw(st.integers(0, 8)), 8)

    def lct(m, summand, level, scale=1):
        res = monomial_lct(m, MonomialIdealSeq.valuation_levels(eta, level, summand),
                           scale)
        return res.value, res.witness

    level = frac * log_discrepancy(model, eta)
    assert lct(moved, TOTAL, level) == lct(split, TOTAL, level) == lct(
        model, TOTAL, level)
    for j, source in enumerate(order):
        level = frac * t_invariant(split, source, eta)
        assert lct(moved, j, level) == lct(split, source, level), (j, source)
    level = frac * t_invariant(model, i, eta)
    for c, piece in ((t, i), (1 - t, i + 1)):
        assert lct(split, piece, c * level) == lct(model, i, level, c), piece


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["p1cubed", "p3_halves",
                                                  "p3_quarters"])
@settings(derandomize=True, database=None, deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_invariants_under_summand_permutation_and_split(models, rank3_models,
                                                        name, data):
    # The same rearrangements keep every invariant of the total: the Futaki
    # total, the total J norm, the coupled threshold and the destabilizer,
    # the reduced J norm, the rank-2 reduced threshold, and the Ding value
    # and mu.  Per-summand outputs (Futaki vector, J norm, Ding slopes)
    # follow the order, and a piece c Q_i has c times those of Q_i.
    model = {**models, **rank3_models}[name]
    i, t, order, split, moved = _draw_rearrangement(data, model)
    rank = model.rank

    def vec(primitive=False):
        return tuple(data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                                        max_size=rank).filter(
            lambda v: not primitive or math.gcd(*v) == 1)))

    xi, eta, w = vec(), as_vec(vec(primitive=True)), vec(primitive=True)
    slope = F(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
    pieces = ((i, t), (i + 1, 1 - t))

    def same(f):
        # f on the model, the split model and the reordered split model
        want = f(model)
        assert f(split) == want and f(moved) == want
        return want

    def follows(per_summand, scaled=lambda c, x: c * x):
        # the split model's per-summand values, which the reordered split
        # model takes in order and whose pieces scale those of Q_i
        got, want = per_summand(split), per_summand(model)
        assert per_summand(moved) == [got[j] for j in order]
        for piece, c in pieces:
            assert got[piece] == scaled(c, want[i]), piece

    same(lambda m: coupled_futaki(m).total)
    follows(lambda m: list(coupled_futaki(m).per_summand),
            lambda c, v: tuple(c * x for x in v))
    same(lambda m: j_twist(m, TOTAL, xi))
    follows(lambda m: [j_twist(m, j, xi) for j in range(m.num_summands)])

    same(coupled_delta)
    destabilizer = same(lambda m: None if (r := find_destabilizer(m)) is None else (
        r.eta, r.ding.value, r.ding.mu, r.ding.provenance))
    if destabilizer is not None:
        follows(lambda m: list(find_destabilizer(m).ding.s_values))

    subtori = [SubtorusSpec.trivial(), SubtorusSpec((w,)), SubtorusSpec.full(rank)]
    for sub in subtori:
        same(lambda m: reduced_coupled_j(m, xi, sub))
        if rank == 2:
            same(lambda m: reduced_coupled_delta(m, sub))

    def ding(m):
        r = ding_of_descriptors(m, [ValuationDescriptor(eta)] * m.num_summands,
                                slope)
        return (r.value, r.mu, r.provenance), list(r.s_values)

    same(lambda m: ding(m)[0])
    follows(lambda m: ding(m)[1])


def test_rational_parser_reduces():
    from ckstab.serialize import parse_rational, format_rational
    from fractions import Fraction as F
    assert parse_rational("2/4") == F(1, 2)
    assert format_rational(parse_rational("2/4")) == "1/2"
    assert parse_rational("-6/3") == -2
    with pytest.raises(ParseError):
        parse_rational(0.5)


def test_polytope_halfspace_fragment():
    (p,) = model_from_json({"rank": 1, "rays": [[1], [-1]], "decomposition": [
        {"halfspaces": [{"normal": [1], "offset": "-1"},
                        {"normal": [-1], "offset": "-1"}]}]}).summands
    assert p.vertices == ((F(-1),), (F(1),))
    q, _ = model_from_json({"rank": 1, "rays": [[1], [-1]], "decomposition": [
        {"vertices": [["2/4"], ["1"]]},
        {"vertices": [["-3/2"], ["0"]]}]}).summands
    assert q.vertices == ((F(1, 2),), (F(1),))   # non-reduced input reduced


@pytest.mark.parametrize("name", ["p2_halves", "p2_steps", "p1xp1_symmetric",
                                  "bl1p2_halves", "bl1p2_hsplit"])
def test_ding_on_fractional_directions_matches_the_fraction_oracle(
        capsys, models, name):
    # the benchmark digests hold only integer directions at slope one; here
    # eta has denominators 2, 3 and 6 (zero and negative entries included),
    # at slopes below, at and above one
    model = models[name]
    for eta in ("1/2,-1/3", "-5/6,0", "2/3,7/6", "0,-1/2", "-3/2,5/3"):
        parts = [(as_vec(map(F, eta.split(","))), F(0))] * model.num_summands
        for slope in ("1/2", "1", "3"):
            code, out, _ = run(capsys, "ding", name, f"--eta={eta}",
                               "--slope", slope)
            assert code == 0
            rep = report_of(out)
            value, mu, slopes, provenance, _ = ding_descriptor_oracle(
                model, parts, F(slope))
            assert rep["ding"] == {"value": format_rational(value),
                                   "provenance": provenance}, (eta, slope)
            assert rep["mu"] == format_rational(mu)
            assert rep["summand_slopes"] == list(map(format_rational, slopes))
