"""The error tree: every ckstab exception is an input error (exit 1) or a
failed internal check (exit 2), and no input reaches the user as a Python
traceback."""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import pathlib
import pkgutil
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ckstab
from ckstab import filtration
from ckstab.cli import main
from ckstab.errors import CkstabError, InputError, InternalInvariantError
from ckstab.serialize import MAX_ENTRIES


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_input_error(*argv):
    code, _, err = run(*argv)
    assert code == 1, err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("error:"), err


# --- reproductions -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("jnorm", "p2", "--xi", "1"),
    ("ding", "p1_halves", "--eta", "1", "--slope", "0"),
    ("reduced-delta", "p2", "--subtorus", "2,0"),
    ("reduced-delta", "p2", "--subtorus", "a,b"),
    ("lct", "p2", "--eta", "0,0", "--level", "1"),
    ("jnorm", "p2", "--xi", "1/0,1"),
    ("jnorm", "p2", "--xi", "1e10000000,1"),
    ("reduced-jnorm", "p1xp1_symmetric", "--xi", "1,0", "--subtorus", " 0_1 ,0"),
    ("reduced-jnorm", "p1xp1_symmetric", "--xi", "1,0", "--subtorus", "\u0661,0"),
    ("verify", "p2", "--samples", "-5"),
    ("verify", "p2", "--samples", "0"),
])
def test_bad_arguments_exit_1(argv):
    assert_input_error(*argv)


@pytest.mark.parametrize("text", [" 0_1 ,0", "\u0661,0", "1.0,0", "+-1,0"])
def test_subtorus_entries_take_only_signed_digits(text):
    code, out, err = run("reduced-jnorm", "p1xp1_symmetric", "--xi", "1,0",
                         "--subtorus", text)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: subtorus vector {text!r} is not integral"]


@pytest.mark.parametrize("text, basis", [("1,-1", [[1, -1]]), (" 1,0", [[1, 0]]),
                                         ("0 , +1", [[0, 1]])])
def test_subtorus_entries_parse(text, basis):
    code, out, _ = run("reduced-jnorm", "p1xp1_symmetric", "--xi", "1,0",
                       "--subtorus", text)
    assert code == 0
    assert json.loads(out)["report"]["subtorus"] == basis


def test_vector_rank_message_names_both_numbers():
    _, _, err = run("jnorm", "p2", "--xi", "1")
    assert "1 entries" in err and "rank 2" in err


def test_rationals_render_as_p_over_q():
    _, _, err = run("lct", "p2", "--eta", "1,0", "--level", "5")
    assert "along (1, 0)" in err and "Fraction" not in err
    _, _, err = run("jnorm", "p2", "--xi", "1/0,1")
    assert "Fraction" not in err


def test_directory_as_model_exits_1(tmp_path):
    assert_input_error("delta", str(tmp_path))


@pytest.mark.parametrize("content", [b"[1]", b"\xff\xfe", b"{", b'"x"'])
def test_show_bad_report_exits_1(tmp_path, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    assert_input_error("show", str(path))


P1 = {"name": "m", "rank": 1, "rays": [[1], [-1]]}


@pytest.mark.parametrize("model", [
    {**P1, "decomposition": 5},
    {**P1, "decomposition": [{"halfspaces": [{"normal": [1]}]}]},
    {**P1, "decomposition": [{"halfspaces": [5]}]},
    {**P1, "decomposition": [{"vertices": 5}]},
    {**P1, "decomposition": [{"halfspaces": {"normal": [1]}}]},
    {**P1, "name": 0.5, "decomposition": [{"vertices": [["-1"], ["1"]]}]},
    {**P1, "decomposition": [{"vertices": [["1e999999999"], ["1"]]}]},
])
def test_malformed_model_exits_1(tmp_path, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert_input_error("delta", str(path))


P2_RAYS = [[1, 0], [0, 1], [-1, -1]]
P2_HALF = [{"normal": r, "offset": "-1/2"} for r in P2_RAYS]


@pytest.mark.parametrize("value", [True, False])
def test_json_booleans_are_not_integers(tmp_path, value):
    # JSON true and false are Python bools, which isinstance(..., int) takes
    path = tmp_path / "model.json"
    base = {"name": "m", "rank": 2, "rays": P2_RAYS,
            "decomposition": [{"halfspaces": P2_HALF}] * 2}
    path.write_text(json.dumps(base))
    assert run("futaki", str(path))[0] == 0
    rays = [[1, value], [0, 1], [-1, -1]]
    path.write_text(json.dumps({**base, "rays": rays}))
    code, out, err = run("futaki", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: rays must be integer vectors of the stated rank"]
    item = {"normal": [1, value], "offset": "-1/2"}
    path.write_text(json.dumps({**base, "decomposition": [
        {"halfspaces": [item] + P2_HALF[1:]}, {"halfspaces": P2_HALF}]}))
    code, out, err = run("futaki", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: a half-space needs an integral 'normal' list and an 'offset': "
        f"{{'normal': [1, {value}], 'offset': '-1/2'}}"]


def test_decomposition_mismatch_is_one_error_line(tmp_path):
    # (1/3) P^2 twice misses the polytope's support along every ray; the
    # hexagon that cuts the corners off P^2 meets it along every ray, so only
    # the hull of the sum shows the mismatch
    third = [["-1/3", "-1/3"], ["2/3", "-1/3"], ["-1/3", "2/3"]]
    hexagon = [["0", "-1"], ["1", "-1"], ["1", "0"], ["0", "1"], ["-1", "1"],
               ["-1", "0"]]
    path = tmp_path / "model.json"
    for parts, line in [
            ([third] * 2, "support of the decomposition along ray (-1, -1) "
                          "is -2/3, expected -1"),
            ([hexagon], "Minkowski sum of the decomposition is (-1, 0) (-1, 1) "
                        "(0, -1) (0, 1) (1, -1) (1, 0), "
                        "expected (-1, -1) (-1, 2) (2, -1)")]:
        path.write_text(json.dumps({
            "name": "m", "rank": 2, "rays": P2_RAYS,
            "decomposition": [{"vertices": v} for v in parts]}))
        code, out, err = run("delta", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: " + line]


def test_wrong_decomposition_exits_before_any_hull(tmp_path, monkeypatch):
    # two 12-vertex cyclic polytopes on the P^3 rays, on the moment curve
    # at t / 200 and at (t + 1/2) / 200, whose 144 vertex sums the hull
    # would take about half a minute over, and (1/3) P^2 twice: both miss
    # the polytope's support along a ray, so no Minkowski sum is built
    from ckstab import toric
    hulls = []
    monkeypatch.setattr(toric, "minkowski_sum",
                        lambda polys: hulls.append(polys))
    cyclic = [[[f"{t}/200", f"{t * t}/200", f"{t ** 3}/200"] for t in range(-6, 6)],
              [[f"{s}/400", f"{s * s}/800", f"{s ** 3}/1600"]
               for s in range(-11, 12, 2)]]
    third = [["-1/3", "-1/3"], ["2/3", "-1/3"], ["-1/3", "2/3"]]
    path = tmp_path / "model.json"
    for rank, rays, parts, line in [
            (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], cyclic,
             "support of the decomposition along ray (-1, -1, -1) "
             "is -2857/1600, expected -1"),
            (2, P2_RAYS, [third] * 2,
             "support of the decomposition along ray (-1, -1) is -2/3, "
             "expected -1")]:
        path.write_text(json.dumps({
            "name": "m", "rank": rank, "rays": rays,
            "decomposition": [{"vertices": v} for v in parts]}))
        code, out, err = run("futaki", str(path))
        assert (code, out, err.splitlines()) == (1, "", ["error: " + line])
    assert hulls == []


P2_HALF_POINTS = [["-1/2", "-1/2"], ["1", "-1/2"], ["-1/2", "1"]]


@pytest.mark.parametrize("rays, decomposition, line", [
    (P2_RAYS, [{"vertices": []}, {"vertices": P2_HALF_POINTS}],
     "no points given"),
    (P2_RAYS, [{"vertices": [["0", "0"], ["1"]]}, {"vertices": P2_HALF_POINTS}],
     "points of mixed rank"),
    (P2_RAYS, [{"vertices": [["0", "0", "0"]]}, {"vertices": P2_HALF_POINTS}],
     "summand rank differs from the model rank"),
    # a fragment's error comes before the checks of the rays
    ([[2, 0], [0, 1], [-1, -1]], [{"vertices": []}], "no points given"),
])
def test_point_table_errors_are_one_line(tmp_path, rays, decomposition, line):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "m", "rank": 2, "rays": rays,
                                "decomposition": decomposition}))
    code, out, err = run("futaki", str(path))
    assert (code, out, err.splitlines()) == (1, "", ["error: " + line])


def test_points_that_are_not_vertices_change_no_report(tmp_path):
    # an interior point, a repeated vertex and an edge midpoint listed with
    # the vertices of a summand leave every report as it is, but for the
    # digest of the input
    path = tmp_path / "model.json"
    extra = P2_HALF_POINTS + [["0", "0"], ["1", "-1/2"], ["1/4", "-1/2"]]
    for argv in (("futaki",), ("delta",), ("jnorm", "--xi=1,-2", "--summand=0"),
                 ("lct", "--eta=1,1", "--level=1/2")):
        outs = []
        for points in (P2_HALF_POINTS, extra):
            path.write_text(json.dumps({
                "name": "m", "rank": 2, "rays": P2_RAYS,
                "decomposition": [{"vertices": points},
                                  {"vertices": P2_HALF_POINTS}]}))
            code, out, err = run(argv[0], str(path), *argv[1:])
            assert code == 0, err
            outs.append([x for x in out.splitlines() if "input_sha256" not in x])
        assert outs[0] == outs[1], argv


def test_point_summand_report(tmp_path):
    # P^2 as a half moved by (1/3, 0), the point (-1/3, 0) and a half
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "name": "m", "rank": 2, "rays": P2_RAYS, "decomposition": [
            {"vertices": [["-1/6", "-1/2"], ["4/3", "-1/2"], ["-1/6", "1"]]},
            {"vertices": [["-1/3", "0"]]}, {"vertices": P2_HALF_POINTS}]}))
    code, out, err = run("futaki", str(path))
    assert code == 0, err
    assert json.loads(out)["report"] == {
        "model": "m", "per_summand": [["1/3", "0"], ["-1/3", "0"], ["0", "0"]],
        "total": ["0", "0"], "vanishes": True}


@pytest.mark.parametrize("key", ["rays", "vertices", "halfspaces"])
def test_lists_longer_than_the_cap_exit_1(tmp_path, key):
    # P^2 as two halves, one list padded with repeats to the cap and past it
    entries = {"rays": P2_RAYS,
               "vertices": [["-1/2", "-1/2"], ["1", "-1/2"], ["-1/2", "1"]],
               "halfspaces": [{"normal": r, "offset": "-1/2"} for r in P2_RAYS]}
    model = {"name": "m", "rank": 2, "rays": P2_RAYS}
    path = tmp_path / "model.json"
    for n in (MAX_ENTRIES, MAX_ENTRIES + 1):
        padded = (entries[key] * n)[:n]
        if key == "rays":
            model.update(rays=padded,
                         decomposition=[{"vertices": entries["vertices"]}] * 2)
        else:
            model.update(decomposition=[{key: padded}] * 2)
        path.write_text(json.dumps(model))
        code, _, err = run("futaki", str(path))
        if n == MAX_ENTRIES:
            assert code == 0, err
        else:
            assert code == 1 and err.splitlines() == [
                f"error: {key!r} has {n} entries; "
                f"at most {MAX_ENTRIES} are accepted"]


def test_zero_lct_direction_exits_1():
    code, out, err = run("lct", "p2_halves", "--eta=0,0", "--level=1")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the valuation direction must be nonzero"]


def test_ideal_data_checked_at_construction():
    # built directly, not through valuation_levels: a zero direction, a
    # degree below 1, or neither or both of eta and degrees, is a one-line
    # input error
    from ckstab.toric import TOTAL, MonomialIdealSeq, ToricError
    cases = [({"eta": (0, 0)}, "the valuation direction must be nonzero"),
             ({"degrees": {-1: (((1, 0), F(0)),)}}, "degree must be positive"),
             ({"degrees": {0: ()}}, "degree must be positive"),
             ({}, "ideal data needs exactly one of eta or degrees"),
             ({"eta": (1, 0), "degrees": {1: ()}},
              "ideal data needs exactly one of eta or degrees")]
    for fields, message in cases:
        with pytest.raises(ToricError) as info:
            MonomialIdealSeq(TOTAL, F(1), **fields)
        assert isinstance(info.value, InputError)
        assert str(info.value) == message


def test_ding_and_destabilize_run_no_sum(tmp_path, monkeypatch):
    # four copies of P^1, both summands the half cube; at degree 12 alone
    # each summand has 13^4 characters, and a sum of the two would take
    # 13^8 pairs there
    halfspaces = [{"normal": [s * (i == j) for j in range(4)], "offset": "-1/2"}
                  for i in range(4) for s in (1, -1)]
    path = tmp_path / "p1x4.json"
    path.write_text(json.dumps({
        "name": "p1x4", "rank": 4,
        "rays": [[s * (i == j) for j in range(4)] for i in range(4) for s in (1, -1)],
        "decomposition": [{"halfspaces": halfspaces}] * 2}))

    def no_sums(*args):
        raise AssertionError("a max-plus sum was started")

    monkeypatch.setattr(filtration, "_plan", no_sums)
    monkeypatch.setattr(filtration, "_maxplus", no_sums)
    code, out, err = run("ding", str(path), "--eta=1,1,1,1")
    assert code == 0, err
    report = json.loads(out)["report"]
    assert (report["ding"]["value"], report["mu"]) == ("0", "4")
    code, out, err = run("destabilize", "bl1p2_halves")
    assert code == 0, err
    assert json.loads(out)["report"]["destabilizer"] is not None


@pytest.mark.parametrize("rank", [0, 5])
def test_rank_outside_scope_exits_1(tmp_path, rank):
    unit = [[int(i == j) for j in range(rank)] for i in range(rank)]
    half = [["1/2" if i == j else "0" for j in range(rank)] for i in range(rank)]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "name": "m", "rank": rank, "rays": unit + [[-1] * rank],
        "decomposition": [{"vertices": half + [["-1/2"] * rank]}] * 2}))
    assert_input_error("delta", str(path))
    assert "from 1 to 4" in run("delta", str(path))[2]


# --- input errors, each reached once ----------------------------------------------

def _one_error_line(tmp_path, model):
    """The one stderr line of ``futaki`` on the model, given as JSON text or
    as its object, less its "error: ", where ``futaki`` must exit 1 and
    print nothing."""
    path = tmp_path / "model.json"
    path.write_text(model if isinstance(model, str) else json.dumps(model))
    code, out, err = run("futaki", str(path))
    assert (code, out) == (1, ""), err
    (line,) = err.splitlines()
    assert line.startswith("error: "), line
    return line[len("error: "):]


@pytest.mark.parametrize("rays, decomposition, message", [
    ([], [{"vertices": P2_HALF_POINTS}], "rays do not span the cocharacter space"),
    ([[1, 0], [0, 1], [-1, 0]], [{"vertices": P2_HALF_POINTS}],
     "ray half-spaces do not bound a polytope: feasible region is unbounded"),
    # the ray (-1, 0) cuts out only the vertex (1, 0) of the triangle
    ([[1, 0], [-1, 2], [-1, -2], [-1, 0]],
     [{"vertices": [["-1", "-1"], ["-1", "1"], ["1", "0"]]}],
     "rays do not match the facets of the anticanonical polytope"),
    (P2_RAYS, [], "empty decomposition"),
    (P2_RAYS, [{"vertices": [5]}], "expected a vector, got 5"),
    (P2_RAYS, [{"vertices": [[True, "0"]]}], "expected a rational, got True"),
    (P2_RAYS, [{"halfspaces": [{"normal": [1], "offset": "-1"}] + P2_HALF}],
     "half-space rank mismatch"),
])
def test_model_errors_exit_1(tmp_path, rays, decomposition, message):
    assert _one_error_line(tmp_path, {"name": "m", "rank": 2, "rays": rays,
                                      "decomposition": decomposition}) == message


def test_overlong_digit_strings_exit_1(tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integer strings of any length")
    digits = "1" * (limit + 1)
    excess = f"value has {len(digits)} digits"
    model = {"name": "m", "rank": 2, "rays": P2_RAYS,
             "decomposition": [{"vertices": [[digits, "0"]]}]}
    line = _one_error_line(tmp_path, model)
    assert line.startswith(f"bad rational '{digits}': Exceeds the limit")
    assert excess in line
    # a bare JSON integer fails in the JSON parser, which names the file
    path = tmp_path / "model.json"
    line = _one_error_line(tmp_path, json.dumps(model).replace(
        f'"{digits}"', digits))
    assert line.startswith(f"{path}: Exceeds the limit") and excess in line
    code, out, err = run("reduced-jnorm", "p2", "--xi=1,0",
                         f"--subtorus={digits},0")
    assert (code, out, err.splitlines()) == (
        1, "", [f"error: subtorus vector '{digits},0' is not integral"])
    code, out, err = run("jnorm", "p2", f"--xi={digits},0")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: bad rational '{digits}': Exceeds the limit")


def test_deeply_nested_model_file_exits_1(tmp_path):
    depth = 100_000
    path = tmp_path / "model.json"
    assert _one_error_line(tmp_path, "[" * depth + "]" * depth).startswith(
        f"{path}: maximum recursion depth exceeded")


@pytest.mark.parametrize("argv, message", [
    (("reduced-delta", "p2", "--subtorus=1,0,0"),
     "subtorus vector '1,0,0' has the wrong rank"),
    (("jnorm", "p2", "--xi=1,0", "--summand=2"), "summand index 2"),
    (("lct", "p2", "--eta=1,0", "--level=1", "--scale=0"),
     "ideal scale must be positive"),
])
def test_argument_errors_exit_1(argv, message):
    code, out, err = run(*argv)
    assert (code, out, err.splitlines()) == (1, "", ["error: " + message])


def test_library_input_errors(models):
    # the errors no command line reaches: each is an input error of its
    # own class, with its message
    from ckstab.filtration import (FiltrationError, FiltrationFamily,
                                   GridMismatch, MissingCharacter,
                                   UnsupportedDescriptor, construct,
                                   family_degree_grid, graded_basis,
                                   sum_filtration, valuation_filtration)
    from ckstab.geometry import (DegenerateInput, DimensionMismatch,
                                 ExactPolytope, GeometryError, HalfSpace,
                                 minkowski_sum, normal_cones,
                                 primitive_vector, support_value, volume)
    from ckstab.stability import (DegenerateSubtorus, SubtorusSpec,
                                  mu_slope, reduced_coupled_delta)
    from ckstab.toric import (IndexOutOfRange, MonomialIdealSeq, RankMismatch,
                              ToricError, ZeroIdeal, build_model,
                              monomial_lct, section_basis)

    p2 = models["p2_halves"]
    basis = graded_basis(p2, 0, m_max=4)
    segment = ExactPolytope.from_vertices([(0, 0), (1, 1)])
    square = ExactPolytope.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                          (1, 1, 0)])
    cases = [
        # geometry
        (GeometryError, "half-space normal must be nonzero",
         HalfSpace.make, (0, 0), 1),
        (DimensionMismatch, "half-space rank mismatch",
         ExactPolytope.from_halfspaces, [HalfSpace.make((1, 0), -1)], 3),
        (GeometryError, "scale factor must be positive", segment.scale, 0),
        (GeometryError, "scale factor must be positive", segment.scale, F(-1, 2)),
        (GeometryError, "empty Minkowski sum", minkowski_sum, []),
        (GeometryError, "unknown mode 'mid'", support_value, segment, (1, 0),
         "mid"),
        (DegenerateInput, "normal fan needs a full-dimensional polytope",
         normal_cones, segment),
        (DegenerateInput, "affine-hull volume implemented only for dim <= 1",
         volume, square),
        (GeometryError, "cannot primitivize the zero vector",
         primitive_vector, (0, F(0))),
        # toric
        (RankMismatch, "rays of mixed rank", build_model,
         [(1, 0), (1,)], p2.summands),
        (IndexOutOfRange, "summand index 2", p2.summand, 2),
        (IndexOutOfRange, "summand index -1", p2.barycenter, -1),
        (IndexOutOfRange, "summand index 'x'", p2.barycenter, "x"),
        (ToricError, "degree must be positive", section_basis, p2, 0, 0),
        (ZeroIdeal, "no generators at degree 2 reach the level", monomial_lct,
         p2, MonomialIdealSeq.from_generators({2: [((0, 0), 1)]}, level=1,
                                              summand=0)),
        (ToricError, "ideal scale must be positive", monomial_lct, p2,
         MonomialIdealSeq.valuation_levels((1, 0), 1), F(-1)),
        # filtration
        (GridMismatch, "degree 3 not stored", basis.characters, 3),
        (GridMismatch, "restriction outside the stored grid", basis.restrict,
         [2, 3]),
        (GridMismatch, "degree cap 1 below the integrality step 2",
         graded_basis, p2, 0, 1),
        (GridMismatch, "degree cap 1 below the family step 2",
         family_degree_grid, p2, 1),
        (GridMismatch, "family size differs from the number of summands",
         FiltrationFamily, p2, (valuation_filtration(basis, (1, 0)),)),
        (MissingCharacter, "table lacks degree 4", construct,
         basis.restrict([2, 4]), {2: dict.fromkeys(basis.characters(2), 0)}),
        (FiltrationError, "floating point weight at (-1, -1); weights must be "
         "rational", construct, basis.restrict([2]),
         {2: dict.fromkeys(basis.characters(2), 0.5)}),
        (FiltrationError, "unrecognized filtration spec [0]", construct, basis,
         [0]),
        (GridMismatch, "the table stores no degree", mu_slope,
         construct(basis.restrict([]), {}), 1),
        # stability
        (DegenerateSubtorus, "subtorus basis must be integral", SubtorusSpec,
         ((F(1, 2), 0),)),
        (DegenerateSubtorus, "subtorus basis rank mismatch",
         reduced_coupled_delta, p2, SubtorusSpec(((1, 0, 0),))),
        (UnsupportedDescriptor,
         "no certified lc slope for sums of distinct valuation directions",
         mu_slope, sum_filtration(FiltrationFamily(p2, (
             valuation_filtration(basis, (1, 0)),
             valuation_filtration(graded_basis(p2, 1, m_max=4), (0, 1))))), 1),
    ]
    for cls, message, call, *args in cases:
        with pytest.raises(cls) as info:
            call(*args)
        assert type(info.value) is cls and isinstance(info.value, InputError)
        assert str(info.value) == message


# --- a failed internal check ------------------------------------------------------

def test_failed_identity_exits_2(monkeypatch):
    monkeypatch.setattr("ckstab.stability.centroid",
                        lambda p: (F(1, 7),) * p.rank)
    code, out, err = run("verify", "p2_halves", "--samples", "2")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    # one line: the first counterexample, then how many of the cases failed
    (line,) = err.strip().splitlines()
    assert line.startswith(
        "internal error: identity 'barycenter-cache-consistency'")
    assert line.endswith("(4 of 70 cases failed)")
    assert "(1/7, 1/7)" in err and "Fraction(" not in err


def test_a_zero_volume_centroid_is_internal(monkeypatch):
    # every simplex of a pulling triangulation of a polytope of dimension
    # >= 1 has positive weight; zero weights are a library fault, not bad
    # input
    from ckstab import geometry
    p = geometry.ExactPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    monkeypatch.setattr(geometry, "_triangulation",
                        lambda p: iter([(0, list(p.nums))]))
    with pytest.raises(InternalInvariantError,
                       match="^zero-volume polytope in centroid$") as info:
        geometry.centroid(p)
    assert not isinstance(info.value, InputError)


def test_input_error_after_failed_identity_exits_2(monkeypatch):
    # a library call that raises an input error once a check has failed
    # still reports the failed check, and the exit code stays 2
    from ckstab.stability import StabilityError

    def broken(*args, **kwargs):
        raise StabilityError("injected")

    monkeypatch.setattr("ckstab.stability.centroid",
                        lambda p: (F(1, 7),) * p.rank)
    monkeypatch.setattr("ckstab.stability._reduced_j_cells", broken)
    code, out, err = run("verify", "p2_halves", "--samples", "2")
    assert code == 2 and out == ""
    (line,) = err.strip().splitlines()
    assert line.startswith(
        "internal error: identity 'barycenter-cache-consistency'")
    assert line.endswith("cases failed)")


def test_ding_cross_check_catches_an_unscaled_twist(monkeypatch):
    # a twist that leaves xi over its own denominator, not the common one,
    # goes unseen by the probe value alone where the coupled barycenter
    # vanishes; the member slope rule catches it on these models
    from ckstab.filtration import _valuation
    from ckstab.toric import _plus, _twist_terms

    def unscaled(model, i, d, den, xi_n):
        common = math.lcm(d.den, den)
        e = tuple([n * (common // d.den) for n in d.nums])
        (theta, theta_den), shifted = _twist_terms(model, i, common, e, xi_n)
        return _valuation(common, shifted,
                          F(*_plus((-theta, theta_den), d.shift)))

    monkeypatch.setattr("ckstab.stability._twist_descriptor", unscaled)
    for args in (("p2_steps", "--eta=1/2,1/3"), ("p1_skew", "--eta=1/2"),
                 ("p1_thirds", "--eta=1/2")):
        code, out, err = run("ding", *args)
        assert code == 2 and out == "", args
        assert "twist identity cross-validation failed" in err


# --- the shape of the tree ---------------------------------------------------------

def _modules():
    return [importlib.import_module(f"ckstab.{info.name}")
            for info in pkgutil.iter_modules(ckstab.__path__)]


def test_one_error_tree():
    classes = {obj for mod in _modules() for _, obj in inspect.getmembers(mod)
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__.startswith("ckstab.")}
    assert {CkstabError, InputError, InternalInvariantError} <= classes
    for cls in classes - {CkstabError, InputError, InternalInvariantError}:
        assert issubclass(cls, InputError) != issubclass(
            cls, InternalInvariantError), cls
    direct = {cls for cls in classes if Exception in cls.__bases__}
    assert direct == {CkstabError}


def test_every_import_is_used():
    # a name the package root re-exports counts as used through __all__
    for path in pathlib.Path(ckstab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(ckstab.__all__)
        assert imported <= used, (path.name, sorted(imported - used))


def test_every_library_definition_is_used():
    # a top-level function, class or assigned name (other than a dunder) is
    # used when its own module loads it outside the definition itself, when
    # another module imports it by name from its module and loads it, or
    # when the package root exports it; a local variable of the same name
    # elsewhere does not count.  An import that its module never loads is
    # itself reported, except in the package root, whose imports export
    used: set[tuple[str, str]] = set()
    defs, imports = [], []
    for path in pathlib.Path(ckstab.__file__).parent.glob("*.py"):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", "")
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, owner))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)
                         and not t.id.startswith("__")]
                defs.extend((module, name) for name in names)
                owner = names[0] if len(names) == 1 else ""
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id != owner
                        and isinstance(node.ctx, ast.Load)):
                    used.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    imports.extend((module, node.module, alias.asname or alias.name,
                                    alias.name) for alias in node.names)
    unread = []
    for module, source, local, name in imports:
        if module == "__init__" or (module, local) in used:
            used.add((source, name))
        else:
            unread.append((module, f"import of {source}.{name}"))
    unused = [(module, name) for module, name in defs
              if name not in ckstab.__all__ and (module, name) not in used]
    assert not unused + unread, unused + unread


def _functions(node, owner=None):
    """(function, class name or None) for every def under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield child, owner
            yield from _functions(child)
        else:
            yield from _functions(
                child, child.name if isinstance(child, ast.ClassDef) else None)


def test_every_defaulted_parameter_is_passed():
    # a parameter with a default is a knob; some call in the library, the
    # tests or the demos must set it, by keyword or by position.  Calls are
    # matched by the name called (plain or attribute), a call to a class
    # passes its __init__ parameters, and a call with *args or **kwargs
    # counts as passing every parameter
    src = pathlib.Path(ckstab.__file__).parent
    top = src.parent.parent
    keywords: dict[str, set] = {}
    positions: dict[str, int] = {}
    for path in [*src.glob("*.py"), *(top / "tests").glob("*.py"),
                 *(top / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            positions[name] = max(positions.get(name, 0),
                                  1_000 if splat else len(node.args))
    knobs = []
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn, owner in _functions(tree):
            callee = owner if fn.name == "__init__" else fn.name
            # a method's calls do not pass self
            self_arg = int(owner is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in fn.decorator_list))
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            passed = [(a.arg, k - self_arg) for k, a in enumerate(params)
                      if k >= first]
            passed += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                                     fn.args.kw_defaults)
                       if d is not None]
            knobs += [(path.stem, fn.name, arg) for arg, pos in passed
                      if arg not in keywords.get(callee, ())
                      and (pos is None or positions.get(callee, 0) <= pos)]
    assert not knobs, knobs


def test_star_import_binds_only_listed_names():
    namespace = {}
    # a listed name that does not resolve raises AttributeError here
    exec("from ckstab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ckstab.__all__)
    assert not [n for n, v in namespace.items() if inspect.ismodule(v)]


def test_no_blanket_catches():
    pattern = re.compile(r"except\s*(:|\(?\s*(Base)?Exception\b)")
    for path in pathlib.Path(ckstab.__file__).parent.glob("*.py"):
        assert not pattern.search(path.read_text(encoding="utf-8")), path


# --- property tests: exit 0, 1 or 2, never a traceback ---------------------------

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

_junk = st.text(alphabet="01-/,;ax.", max_size=6)
_small_int = st.integers(-2, 4).map(str)
_rational = st.builds(lambda p, q: f"{p}/{q}", st.integers(-4, 4),
                      st.integers(0, 3))
_vector = st.lists(st.one_of(st.integers(-3, 3).map(str), _rational),
                   min_size=1, max_size=3).map(",".join)
_FLAG_VALUES = {
    "--xi": st.one_of(_vector, _junk),
    "--eta": st.one_of(_vector, _junk),
    "--subtorus": st.one_of(st.sampled_from(["full", "trivial", "1,0", "0,1"]),
                            _vector, _junk),
    "--level": st.one_of(_rational, _small_int, _junk),
    "--slope": st.one_of(_rational, _junk),
    "--scale": st.one_of(_rational, _junk),
    "--summand": st.one_of(_small_int, _junk),
    "--seed": _small_int,
    "--format": st.sampled_from(["json", "table", "xml"]),
}
# each verb with its required flags, then its optional ones
_VERBS = {
    "futaki": ((), ()),
    "jnorm": (("--xi",), ("--summand",)),
    "reduced-jnorm": (("--xi",), ("--subtorus",)),
    "delta": ((), ()),
    "reduced-delta": ((), ("--subtorus",)),
    "ding": (("--eta",), ("--slope",)),
    "lct": (("--eta", "--level"), ("--scale",)),
    "destabilize": ((), ()),
    "verify": ((), ("--seed",)),
    "show": ((), ()),
}
_MODELS = ["p1_halves", "p1_skew", "p2", "p1xp1", "p2_halves",
           "no_such_model", ""]


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(_VERBS)))
    required, optional = _VERBS[verb]
    argv = [verb, draw(st.sampled_from(_MODELS))]
    flags = [f for f in required if draw(st.integers(0, 9))]   # rarely dropped
    flags += draw(st.lists(st.sampled_from(optional + ("--format",)), max_size=2))
    flags += draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=1))
    for flag in flags:
        argv += [flag, draw(_FLAG_VALUES[flag])]
    if verb == "verify":   # the default of 100 samples takes seconds
        argv += ["--samples", draw(st.sampled_from(["0", "1", "-1"]))]
    return argv


@FUZZ
@given(_argv())
def test_cli_arguments_never_crash(argv):
    code, _, err = run(*argv)
    assert code in (0, 1, 2), (argv, err)


_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                       st.text(alphabet="-1/2a", max_size=4))
_json = st.recursive(_json_leaf, lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.dictionaries(st.sampled_from(["vertices", "halfspaces", "normal",
                                     "offset", "x"]), kids, max_size=3)),
    max_leaves=12)
_coord = st.one_of(st.integers(-2, 2), _rational, _rational, _json_leaf)
# (rank, rays) of P^1, P^2 and P^1 x P^1
_SKELETONS = [(1, [[1], [-1]]), (2, [[1, 0], [0, 1], [-1, -1]]),
              (2, [[1, 0], [-1, 0], [0, 1], [0, -1]])]


@st.composite
def _model_object(draw):
    """A well-formed skeleton with fuzzed summands; sometimes one top-level
    entry is replaced by arbitrary JSON."""
    rank, rays = draw(st.sampled_from(_SKELETONS))
    point = st.one_of(st.lists(_coord, min_size=rank, max_size=rank),
                      st.lists(_coord, max_size=3))
    halfspace = st.fixed_dictionaries({
        "normal": st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
        "offset": _coord})
    fragment = st.one_of(
        st.fixed_dictionaries({"vertices": st.lists(point, max_size=4)}),
        st.fixed_dictionaries({"halfspaces": st.lists(
            st.one_of(halfspace, _json), max_size=5)}),
        _json)
    model = {"name": "fuzz", "rank": rank, "rays": rays,
             "decomposition": draw(st.lists(fragment, min_size=1, max_size=3))}
    key = draw(st.sampled_from([None, None, None, "name", "rank", "rays",
                                "decomposition"]))
    if key is not None:
        model[key] = draw(_json)
    return model


_model = st.one_of(_model_object(), _json)


@FUZZ
@given(model=_model)
def test_malformed_model_json_never_crashes(tmp_path_factory, model):
    path = tmp_path_factory.getbasetemp() / "fuzz_model.json"
    path.write_text(json.dumps(model))
    code, _, err = run("delta", str(path))
    assert code in (0, 1, 2), (model, err)
