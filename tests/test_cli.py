import copy
import csv
import functools
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charp_dilog import bloch, cli, cycles, regulator, suites
from charp_dilog.cli import _LI2P_MAX_P, _VERIFY_MAX_P, LI1_MAX_P, build_parser, main
from charp_dilog.gf import Fq, NotInSubfield, descend, is_prime, residue_field
from charp_dilog.rng import spawn
from charp_dilog.sampling import rand_admissible_graph
from charp_dilog.tpoly import Trunc


# (z - 1) ^ z ^ (z - (3 + t)): closed form 4^5 * li1(3) = 2 over F_5
THM1_DOC = {
    "schema": 1,
    "p": 5,
    "ext": None,
    "points": [{"poly": [[4, 0], [1]]}, {"poly": [[0, 0], [1]]},
               {"poly": [[2, 4], [1]]}],
    "f": {"unit": [1], "factors": [[0, 1]]},
    "g": {"unit": [1], "factors": [[1, 1]]},
    "h": {"unit": [1], "factors": [[2, 1]]},
}


@pytest.fixture
def thm1_file(tmp_path):
    path = tmp_path / "thm1.json"
    path.write_text(json.dumps(THM1_DOC))
    return str(path)


def test_li1_table(capsys):
    assert main(["li1", "--p", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert out[0] == "x=0  li1=0"
    assert out[1] == "x=1  li1=0"


def test_li1_bad_prime(capsys):
    assert main(["li1", "--p", "4"]) == 2
    assert "prime" in capsys.readouterr().err


@pytest.mark.parametrize("p", [LI1_MAX_P + 1, 503])
def test_li1_rejects_p_above_its_bound_before_any_work(monkeypatch, capsys, p):
    # 501 is the first p outside the bound and 503 the first prime; no value is computed
    monkeypatch.setattr(bloch, "pounds1", lambda x: pytest.fail("li1 computed a value"))
    assert main(["li1", "--p", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"p <= {LI1_MAX_P}" in captured.err
    with pytest.raises(SystemExit):
        main(["li1", "--help"])
    assert f"5 <= p <= {LI1_MAX_P}" in capsys.readouterr().out


def test_li1_admits_the_largest_prime_in_its_bound(capsys):
    assert main(["li1", "--p", "499", "--x", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["x"] == 2


def test_li2p_rejects_p_above_its_bound_before_any_work(monkeypatch, capsys):
    # 50021 is the first prime outside the bound; no value is computed
    monkeypatch.setattr(bloch, "pounds1", lambda x: pytest.fail("li2p computed a value"))
    assert main(["li2p", "--p", "50021", "--s", "2", "--a", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"p <= {_LI2P_MAX_P}" in captured.err
    with pytest.raises(SystemExit):
        main(["li2p", "--help"])
    assert f"5 <= p <= {_LI2P_MAX_P}" in capsys.readouterr().out
    # li2 costs O(log p) and takes the same p
    assert main(["li2", "--p", "50021", "--s", "2", "--a", "1"]) == 0


def test_verify_rejects_p_above_its_bound_before_any_work(monkeypatch, capsys):
    # 67 is the first prime outside the bound; no suite runs
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kw: pytest.fail("verify ran a suite"))
    assert main(["verify", "all", "--p", "67", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"p <= {_VERIFY_MAX_P}" in captured.err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"5 <= p <= {_VERIFY_MAX_P}" in capsys.readouterr().out


def test_verify_runs_and_passes_at_its_bound():
    # the largest admitted p runs and passes
    assert main(["verify", "invariance", "--p", str(_VERIFY_MAX_P), "--trials", "1"]) == 0


def _subparsers(parser):
    for action in parser._actions:
        if action.choices and isinstance(action.choices, dict):
            for name, sub in action.choices.items():
                yield name, sub
                yield from _subparsers(sub)


def test_every_command_taking_p_states_its_bound():
    # work is bounded for every p the command line admits, and the bound is
    # in the command's --help; li2 alone costs O(log p) and takes any p
    unbounded = {"li2"}
    taking_p = {name: sub for name, sub in _subparsers(build_parser())
                if any("--p" in action.option_strings for action in sub._actions)}
    assert {"li1", "li2", "li2p", "verify"} <= set(taking_p)
    missing = [name for name, sub in taking_p.items() if name not in unbounded
               and not re.search(r"p <= \d", sub.format_help())]
    assert not missing, f"commands taking --p without a stated bound: {missing}"


def test_li1_json_format(capsys):
    assert main(["li1", "--p", "5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"x": 0, "li1": 0}
    assert len(rows) == 5


def test_li2_commands(capsys):
    assert main(["li2", "--p", "7", "--s", "3", "--a", "2", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    # -a^3 / (2 s^2 (1-s)^2): -8/(2*9*4) = -8/72 -> mod 7: -1/2 = 3
    assert row["value"] == 3
    assert main(["li2p", "--p", "7", "--s", "3", "--a", "2"]) == 0


@pytest.mark.parametrize("command", ["li2", "li2p"])
@pytest.mark.parametrize("s", ["0", "1"])
def test_dilog_at_a_non_flat_point_is_an_input_error(command, s, capsys):
    assert main([command, "--p", "5", "--s", s, "--a", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


SMALL_INTS = st.one_of(st.sampled_from([0, 1]), st.integers(-3, 12))


@given(command=st.sampled_from(["li1", "li2", "li2p"]), p=st.sampled_from([5, 7]),
       x=st.one_of(st.none(), SMALL_INTS), s=SMALL_INTS, a=SMALL_INTS,
       ext=st.sampled_from([None, [2, 0, 1], [0, 1, 1]]))
def test_dilog_commands_keep_the_exit_code_contract(command, p, x, s, a, ext):
    # [2, 0, 1] is irreducible over F_5 and F_7; [0, 1, 1] = u(u + 1) is not
    argv = [command, "--p", str(p)]
    if command == "li1":
        argv += [] if x is None else ["--x", str(x)]
    else:
        argv += ["--s", str(s), "--a", str(a)]
        argv += [] if ext is None else ["--ext", json.dumps(ext)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error:")


def test_rho_k_sample_file(thm1_file, capsys):
    assert main(["rho-k", "--input", thm1_file, "--seed", "5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    total = [r for r in rows if r["point"] == "total"]
    assert total == [{"point": "total", "value": 2}]
    labels = [r["point"] for r in rows]
    assert labels == ["0", "1", "2", "inf", "total"]


def test_rho_k_seed_independent_total(thm1_file, capsys):
    totals = []
    for seed in ("1", "2"):
        assert main(["rho-k", "--input", thm1_file, "--seed", seed, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        totals.append([r["value"] for r in rows if r["point"] == "total"][0])
    assert totals[0] == totals[1]


def test_rho_k_repeated_entry_zero(tmp_path, capsys):
    data = {
        "schema": 1, "p": 5, "ext": None,
        "points": [{"poly": [[4, 0], [1]]}, {"poly": [[0, 0], [1]]}],
        "f": {"unit": [1], "factors": [[0, 1]]},
        "g": {"unit": [1], "factors": [[0, 1]]},
        "h": {"unit": [1], "factors": [[1, 1]]},
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    assert main(["rho-k", "--input", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["value"] for r in rows if r["point"] == "total"] == [0]


def test_rho_command(thm1_file, capsys):
    assert main(["rho", "--input", thm1_file, "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


def test_rho_rows_over_a_tower_residue_field(tmp_path, capsys):
    # over F_25 = F_5[u]/(u^2 + 2) the point z^2 - u + t reduces to an
    # irreducible quadratic (u is not a square), so its residue field is the
    # tower F_625 over F_25 and every local term multiplies in the tower
    data = {"schema": 1, "p": 5, "ext": [2, 0, 1],
            "points": [{"poly": [[[0, 4], 1], [], [1]]}, {"poly": [[4, 0], [1]]},
                       {"poly": [[0, 0], [1]]}, {"poly": [[2, 4], [1]]}],
            "f": {"unit": [1], "factors": [[0, 1]]},
            "g": {"unit": [1], "factors": [[1, 1], [2, 1]]},
            "h": {"unit": [1], "factors": [[3, 1]]}}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(data))
    inp = cli._regulator_input_from_json(data)
    field, _ = residue_field(inp.points[0].reduction(inp.field))
    assert field.degree == 2 and field.base.base is not None
    want = {"rho-k": [[0, 3], [2, 1], [2, 3], [3, 2], [1, 3], [3, 2]],
            "rho": [[1, 3], [4, 0], [2, 0], [0, 2], [0, 0], [2, 0]]}
    for command, values in want.items():
        assert main([command, "--input", str(path), "--seed", "0", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{"point": point, "value": value}
                        for point, value in zip(["0", "1", "2", "3", "inf", "total"], values)]


def _cycle_json(cyc) -> dict:
    data = {"p": cyc.field.p}
    for key, coord in zip(("y1", "y2", "y3"), cyc.coords):
        data[key] = {part: [[c.raw for c in x.coeffs] for x in getattr(coord, part)]
                     for part in ("num", "den")}
    return data


def _cycle_file(tmp_path, cyc):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_cycle_json(cyc)))
    return str(path)


def test_plain_and_deep_routes_match_the_library(tmp_path, capsys):
    # (z - alpha) ^ (z - beta) ^ (z - gamma) over F_7 with alpha = 1 + 6t,
    # beta = 2, gamma = 3 + 4t, where the two regulators differ
    field = Fq(7)
    inp = regulator.linear_input(field, *(Trunc(field, 2, c) for c in ([1, 6], [2, 0], [3, 4])))
    data = {"schema": 1, "p": 7, "ext": None,
            "points": [{"poly": [[6, 1], [1]]}, {"poly": [[5, 0], [1]]}, {"poly": [[4, 3], [1]]}],
            "f": {"factors": [[0, 1]]}, "g": {"factors": [[1, 1]]}, "h": {"factors": [[2, 1]]}}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(data))
    assert regulator.rho(inp, 3) != regulator.rho_K(inp, 3)
    for command, value in (("rho", regulator.rho), ("rho-k", regulator.rho_K)):
        assert main([command, "--input", str(path), "--seed", "3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        total = rows.pop()
        assert total == {"point": "total", "value": value(inp, 3).raw}
        assert sum(r["value"] for r in rows) % 7 == total["value"]

    _, cyc = rand_admissible_graph(Fq(5), spawn(2, "cli-cycle"), seed=0)
    path = _cycle_file(tmp_path, cyc)
    assert cycles.rho_cycle(cyc) != cycles.rho_K_cycle(cyc)
    for command, value in (("rho", cycles.rho_cycle), ("rho-k", cycles.rho_K_cycle)):
        assert main(["cycle", command, "--input", path, "--format", "json"]) == 0
        total = json.loads(capsys.readouterr().out)[-1]
        assert total["face"] == "total" and total["value"] == value(cyc).raw


@pytest.mark.parametrize("command", ["rho", "rho-k"])
def test_cycle_csv_carries_the_total_row(command, tmp_path, capsys):
    # the point rows have no value field; the total row adds one
    _, cyc = rand_admissible_graph(Fq(5), spawn(2, "cli-cycle"), seed=0)
    assert main(["cycle", command, "--input", _cycle_file(tmp_path, cyc),
                 "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    total = rows.pop()
    value = cycles.rho_K_cycle(cyc) if command == "rho-k" else cycles.rho_cycle(cyc)
    assert total["face"] == "total" and total["value"] == str(value.raw)
    assert len(rows) == len(cycles.boundary(cyc))
    assert all(row["value"] == "" for row in rows)


@pytest.mark.parametrize("argv", [
    ["rho-k", "--p", "5"], ["rho", "--p", "5"],
    ["cycle", "rho-k", "--p", "5"], ["cycle", "rho", "--p", "5"],
    ["cycle", "rho-k", "--seed", "1"], ["cycle", "rho", "--seed", "1"],
])
def test_input_file_commands_reject_unused_options(argv, thm1_file, capsys):
    # the prime comes from the input file, and cycle invariants draw no randomness
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", thm1_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rho-k", "--input", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"p": 5, "points": []}))
    assert main(["rho-k", "--input", str(missing)]) == 2
    fns = {"f": {"factors": [[0, 1]]}, "g": {"factors": [[1, 1]]}, "h": {"factors": [[2, 1]]}}
    for bad_entry in ({"f": 3}, {"g": [1]}, {"h": "x"}, {"f": {"factors": 3}},
                      {"g": {"factors": [[None, 1]]}}, {"points": 3},
                      {"points": [{"poly": 3}]}, {"ext": 3}, {"ext": [[1], 0, 1]},
                      {"f": {"unit": {"m": [2], "coeffs": [1]}, "factors": [[0, 1]]}},
                      {"f": {"unit": {"m": {}, "coeffs": [1]}, "factors": [[0, 1]]}},
                      {"ext": [2, 0, 1], "points": [{"poly": [[None], [1]]}]}):
        shaped = tmp_path / "shaped.json"
        shaped.write_text(json.dumps({"p": 5, "points": [], **fns, **bad_entry}))
        assert main(["rho-k", "--input", str(shaped)]) == 2
        assert "Traceback" not in capsys.readouterr().err
    coords = {key: {"num": [[1]], "den": [[1]]} for key in ("y1", "y2", "y3")}
    for bad_coord in (3, {"num": 3, "den": [[1]]}, {"num": [[1]]},
                      {"num": [{"m": [7], "coeffs": [1]}], "den": [[1]]}):
        cycle = tmp_path / "cycle.json"
        cycle.write_text(json.dumps({"p": 7, **coords, "y2": bad_coord}))
        assert main(["cycle", "rho-k", "--input", str(cycle)]) == 2
        assert "Traceback" not in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL_INTS, st.sampled_from(["", "inf", "x", 2.0])),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.sampled_from(["m", "coeffs", "poly", "unit",
                                                            "factors", "num", "den", "x"]),
                                           kids, max_size=3)),
    max_leaves=8)
_DROP = object()


@functools.cache
def _cycle_doc() -> dict:
    return _cycle_json(rand_admissible_graph(Fq(5), spawn(2, "cli-cycle"), seed=0)[1])


def _paths(doc, path=()):
    """The path of every entry of a JSON document, the document's own () first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(doc, path, value):
    """A copy of a JSON document with the entry at a nonempty ``path`` replaced
    or dropped."""
    doc = copy.copy(doc)
    key, rest = path[0], path[1:]
    if rest:
        doc[key] = _mutated(doc[key], rest, value)
    elif value is _DROP:
        del doc[key]
    else:
        doc[key] = value
    return doc


@settings(max_examples=300)
@given(command=st.sampled_from([["rho"], ["rho-k"], ["cycle", "rho"], ["cycle", "rho-k"]]),
       data=st.data())
def test_input_file_commands_keep_the_exit_code_contract(command, data):
    # valid p = 5 inputs with up to three entries replaced by JSON values or
    # dropped: a run succeeds, rejects its input, or reports a cycle that is not
    # admissible, and never raises (in a process of its own, a traceback)
    doc = THM1_DOC if command[0] != "cycle" else _cycle_doc()
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]), label="path")
        doc = _mutated(doc, path, data.draw(st.one_of(st.just(_DROP), JSON_VALUES), label="value"))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*command, "--input", path])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error:")
    if code == 1:
        assert command[0] == "cycle" and out.getvalue().startswith("failure=")


# each option of `verify` as (valid values, invalid values); the valid p and
# trials are small, so a run that passes every check takes a fraction of a second
VERIFY_OPTIONS = {
    "--p": (["5", "7"], ["4", "63", "-5", "-7", "0", "1", "9", "15", "49", "5.0", "5e0", "five", ""]),
    "--trials": (["1", "2"], ["0", "-1", "-3", "1.5", "1e0", "two", ""]),
    "--format": (["plain", "json"], ["csv", "JSON", "xml", ""]),
    "--seed": (["0", "17", "-3"], ["3.5", "0x10", "seed", ""]),
}
VERIFY_SUITES = (sorted(suites.SUITES) + ["all"],
                 ["", "nope", "ALL", "five_term", "theorem", "-", "--nope"])


def _valid_or_not(values):
    valid, invalid = values
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


@settings(max_examples=150)
@given(data=st.data())
def test_verify_arguments_keep_the_exit_code_contract(data):
    # suite names, p, trials, format and seed, valid or not and in any order
    # (trials always given, so no run takes the acceptance trial counts): a
    # run passes, fails a check with a report, or rejects its arguments with a
    # message and no report, and never raises (in a process, a traceback)
    argv = ["verify", data.draw(_valid_or_not(VERIFY_SUITES), label="suite")]
    for flag in data.draw(st.permutations(sorted(VERIFY_OPTIONS)), label="order"):
        if flag == "--trials" or data.draw(st.booleans(), label=f"{flag} given"):
            argv += [flag, data.draw(_valid_or_not(VERIFY_OPTIONS[flag]), label=flag)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's rejection
            code = exc.code
    assert code in (0, 1, 2), argv
    assert (code == 2) == bool(err.getvalue()) and (code == 2) != bool(out.getvalue()), argv
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("change, field", [
    ({"p": 5.5}, "'p'"), ({"p": True}, "'p'"), ({"p": "5"}, "'p'"), ({"ext": []}, "'ext'"),
    ({"ext": {}}, "'ext'"), ({"ext": False}, "'ext'"),
    ({"f": {"unit": [1], "factors": [[0.9, 1]]}}, "factors of 'f'"),
    ({"h": {"unit": [1], "factors": [[2, True]]}}, "factors of 'h'"),
    ({"f": {"unit": {"m": 2.0, "coeffs": [1]}, "factors": [[0, 1]]}}, "'m'"),
    ({"g": {"unit": [True], "factors": [[1, 1]]}}, "element")])
def test_input_numbers_are_json_integers(thm1_file, change, field, capsys):
    # a number that is not a JSON integer is never coerced (5.5 to p = 5,
    # [0.9, 1] to point 0, true to 1, an empty or false ext to F_p)
    with open(thm1_file) as fh:
        data = json.load(fh)
    with open(thm1_file, "w") as fh:
        json.dump({**data, **change}, fh)
    assert main(["rho-k", "--input", thm1_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("change, where", [
    ({"g": {"unit": [True], "factors": [[1, 1]]}}, "g.unit[0]: "),
    ({"f": {"unit": {"m": 2, "coeffs": [1, "2"]}, "factors": [[0, 1]]}}, "f.unit.coeffs[1]: "),
    ({"points": [{"poly": [[4, 0], [1]]}, {"poly": [[0, 0.5], [1]]}]}, "points[1].poly[0][1]: "),
    ({"ext": [2, 0, 1], "points": [{"poly": [[[1, None]], [1]]}]}, "points[0].poly[0][0][1]: "),
    ({"ext": [2, 0, 1], "h": {"unit": [[1, 0, 0]], "factors": [[2, 1]]}}, "h.unit[0]: ")])
def test_regulator_element_errors_name_their_key_path(thm1_file, change, where, capsys):
    with open(thm1_file) as fh:
        data = json.load(fh)
    with open(thm1_file, "w") as fh:
        json.dump({**data, **change}, fh)
    assert main(["rho-k", "--input", thm1_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {where}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("coord, where", [
    ({"num": [[1], [1, True]], "den": [[1]]}, "y2.num[1][1]: "),
    ({"num": [[1]], "den": [["3"]]}, "y2.den[0][0]: ")])
def test_cycle_element_errors_name_their_key_path(tmp_path, coord, where, capsys):
    coords = {key: {"num": [[1]], "den": [[1]]} for key in ("y1", "y2", "y3")}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"p": 7, **coords, "y2": coord}))
    assert main(["cycle", "rho-k", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {where}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("option, value, field", [
    ("--a", "true", "--a:"), ("--s", "3.0", "--s:"), ("--ext", "{}", "'ext'"),
    ("--ext", "[]", "'ext'"), ("--ext", "false", "'ext'")])
def test_dilog_options_are_json_integers(option, value, field, capsys):
    # never coerced: --a true would read a = 1, these ext values would run over F_p
    argv = {"--s": "3", "--a": "2", option: value}
    assert main(["li2", "--p", "7", *itertools.chain(*argv.items())]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err and "Traceback" not in captured.err


def test_null_ext_is_the_prime_field(capsys):
    assert main(["li2", "--p", "7", "--s", "3", "--a", "2", "--ext", "null"]) == 0
    with_null = capsys.readouterr().out
    assert main(["li2", "--p", "7", "--s", "3", "--a", "2"]) == 0
    assert with_null == capsys.readouterr().out == "s=3  a=2  value=3\n"


def test_extension_field_input(tmp_path, capsys):
    data = {
        "schema": 1, "p": 5, "ext": [2, 0, 1],
        "points": [{"poly": [[[1, 1], [0, 0]], [[1, 0]]]},
                   {"poly": [[[0, 0], [0, 0]], [[1, 0]]]},
                   {"poly": [[[3, 2], [1, 0]], [[1, 0]]]}],
        "f": {"unit": [[1, 0]], "factors": [[0, 1]]},
        "g": {"unit": [[1, 0]], "factors": [[1, 1]]},
        "h": {"unit": [[1, 0]], "factors": [[2, 1]]},
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(data))
    assert main(["rho-k", "--input", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[-1]["point"] == "total"


def test_cycle_command(tmp_path, capsys):
    # y = (z, (z+1)/(2z+3), (z+3)/(4z+2)) over F_7, depth 7
    def const(v):
        return [v]
    data = {
        "schema": 1, "p": 7, "ext": None,
        "y1": {"num": [const(0), const(1)], "den": [const(1)]},
        "y2": {"num": [const(1), const(1)], "den": [const(3), const(2)]},
        "y3": {"num": [const(3), const(1)], "den": [const(2), const(4)]},
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    assert main(["cycle", "rho-k", "--input", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[-1]["face"] == "total"
    assert main(["cycle", "rho", "--input", str(path)]) == 0
    capsys.readouterr()


def test_cycle_inadmissible_exit(tmp_path, capsys):
    data = {
        "schema": 1, "p": 5, "ext": None,
        "y1": {"num": [[1]], "den": [[1]]},
        "y2": {"num": [[2]], "den": [[1]]},
        "y3": {"num": [[3]], "den": [[1]]},
    }
    path = tmp_path / "bad_cycle.json"
    path.write_text(json.dumps(data))
    assert main(["cycle", "rho-k", "--input", str(path)]) == 1
    assert "ConstantOneCoordinate" in capsys.readouterr().out


def test_infinity_in_point_table_and_object_coeff_form(tmp_path, capsys):
    data = {
        "schema": 1, "p": 5, "ext": None,
        "points": [{"poly": [{"m": 2, "coeffs": [4, 0]}, [1]]},
                   {"poly": [[0, 0], [1]]}, {"poly": [[2, 4], [1]]}, "inf"],
        "f": {"unit": [1], "factors": [[0, 1]]},
        "g": {"unit": [1], "factors": [[1, 1]]},
        "h": {"unit": [1], "factors": [[2, 1]]},
    }
    path = tmp_path / "with_inf.json"
    path.write_text(json.dumps(data))
    assert main(["rho-k", "--input", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["value"] for r in rows if r["point"] == "total"] == [2]


def test_verify_all(capsys):
    assert main(["verify", "all", "--p", "5", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    for name in ("five-term", "exactness", "invariance", "residue-formula",
                 "theorem1", "modulus", "cross-module"):
        assert f"{name} p=5" in out


def test_verify_modulus_has_power_from_one_trial(capsys):
    # a batch of fewer than 8 trials draws more order-t controls on fresh
    # graphs until one moves the deep invariant, and records no more checks;
    # at p = 41 the single trial's own control leaves the invariant unchanged
    for p in (q for q in range(5, 54) if is_prime(q)):
        assert main(["verify", "modulus", "--p", str(p), "--trials", "1", "--seed", "0"]) == 0, p
        assert f"modulus p={p} trials=1 seed=0 checks=4 pass" in capsys.readouterr().out


def test_verify_pass_and_exit_codes(capsys):
    assert main(["verify", "five-term", "--p", "5", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "five-term p=5 trials=5" in out and "pass" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(trials, capsys):
    # a suite that runs no check must not report a pass
    assert main(["verify", "five-term", "--p", "5", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials" in captured.err
    assert "Traceback" not in captured.err


def test_suite_that_checked_nothing_does_not_pass():
    result = suites.run_suite("five-term", 5, trials=0, seed=0)
    assert result.checks == 0 and not result.failures
    assert not result.ok and result.to_dict()["passed"] is False
    # pinned checks count: the residue formula runs three at trials=0
    pinned = suites.run_suite("residue-formula", 5, trials=0, seed=0)
    assert pinned.checks > 0 and pinned.ok


def test_verify_rejects_csv_format(capsys):
    # a verify report is plain text or json; csv was accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "five-term", "--p", "5", "--trials", "1", "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err and "Traceback" not in captured.err


# sha256 of `verify all --p P --trials 2 --seed 0 --format json`; a change that
# keeps every value keeps these bytes
VERIFY_DIGESTS = {
    5: "24eec341d2534b358d4bc92d5f6b24dad2f234372f8078d74bc7c281677679cf",
    7: "c4b8a91e74405d8d816ef5518e7d0da59a5ee5fb0ac309aed9ed5fd50ee84f80",
}


@pytest.mark.parametrize("p", sorted(VERIFY_DIGESTS))
def test_verify_all_json_report_bytes_are_pinned(p, capsys):
    argv = ["verify", "all", "--p", str(p), "--trials", "2", "--seed", "0", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[p]


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "nope", "--p", "5"])


def test_verify_reports_byte_identical(capsys):
    args = ["verify", "invariance", "--p", "5", "--trials", "4", "--seed", "11",
            "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_env_seed_default(monkeypatch, thm1_file, capsys):
    monkeypatch.setenv("CHARP_DILOG_SEED", "17")
    from charp_dilog import cli as cli_mod
    parser = cli_mod.build_parser()
    args = parser.parse_args(["rho-k", "--input", thm1_file])
    assert args.seed == 17


def test_bad_seed_variable_is_an_input_error_of_the_seeded_commands(thm1_file):
    # a non-integer CHARP_DILOG_SEED fails --seed's parse, so li1, which takes
    # no seed, still runs; each command runs in its own process
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, CHARP_DILOG_SEED="abc", PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    for argv, code in ((["li1", "--p", "5", "--x", "2"], 0),
                       (["rho-k", "--input", thm1_file], 2),
                       (["verify", "five-term", "--trials", "1"], 2)):
        done = subprocess.run([sys.executable, "-m", "charp_dilog.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert code == 0 or "--seed: invalid int value: 'abc'" in done.stderr


def test_suite_descent_rejects_unstable_coefficient():
    base = Fq(5)
    quad = Fq(5, modulus=[2, 0, 1], base=base)
    assert descend(quad.from_coeffs([3])) == base(3)
    with pytest.raises(NotInSubfield):
        descend(quad.gen())


def test_moebius_closed_form_rejects_higher_exponents():
    field = Fq(5)
    one2 = Trunc.one(field, 2)
    pts = tuple(regulator.finite_point(field, [Trunc(field, 2, [-c, 1]), one2])
                for c in (0, 1, 2))
    inp = regulator.RegulatorInput(
        field, pts,
        regulator.GoodFunction(one2, ((0, 2),)),
        regulator.GoodFunction(one2, ((1, 1),)),
        regulator.GoodFunction(one2, ((2, 1),)),
    )
    with pytest.raises(ValueError, match="exponents"):
        suites._moebius_closed_form(inp)
