import json
import subprocess
import sys
from pathlib import Path

import pytest

from tambara import cli, gsets, ideals, lattice
from tambara.burnside import BurnsideElement, element_from_json
from tambara.cli import integer, parse_element, parse_spec, run
from tambara.maps import norm

GOLDEN = Path(__file__).parent / "golden"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_element_shorthand_and_json():
    assert parse_element("t3@6").coeffs == {2: 1}
    assert parse_element('{"level": 6, "coeffs": {"2": 1}}').coeffs == {2: 1}
    with pytest.raises(ValueError):
        parse_element("t4@6")
    with pytest.raises(ValueError):
        parse_element("nonsense")


def test_parse_spec():
    s = parse_spec("c=6,p=0", 12)
    assert (s.n, s.c, s.p) == (12, 6, 0)
    with pytest.raises(ValueError):
        parse_spec("c=6", 12)
    with pytest.raises(ValueError):
        parse_spec("c=5,p=0", 12)


def test_spectrum_matches_golden_file(capsys):
    code, out, _ = invoke(capsys, "spectrum", "-n", "12")
    assert code == 0
    assert out == (GOLDEN / "spectrum_n12.dot").read_text()


def test_reused_parser_leaks_no_state(capsys):
    code, out, _ = invoke(capsys, "spectrum", "-n", "12", "--primes", "0,2")
    assert code == 0 and "pq_1_3" not in out
    assert invoke(capsys, "spectrum", "-n", "12", "--format", "svg")[0] == 2
    code, out, _ = invoke(capsys, "spectrum", "-n", "12")
    assert code == 0
    assert out == (GOLDEN / "spectrum_n12.dot").read_text()
    for argv in (["--help"], ["spectrum", "--help"]):
        first = invoke(capsys, *argv)
        assert first[0] == 0 and first[1].startswith("usage: tambara")
        assert invoke(capsys, *argv) == first


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["spectrum", "-n", "12", "--format", "table"], "spectrum_n12_table.txt"),
        (["dress", "-n", "12", "--format", "table"], "dress_n12_table.txt"),
        (["dress", "-n", "12", "--format", "json"], "dress_n12.json"),
        (["probe", "-n", "60"], "probe_n60.json"),
    ],
)
def test_output_matches_golden_file(capsys, argv, golden):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_spectrum_byte_identical_across_runs(capsys):
    combos = [
        ("12", "0,2,3,5"),
        ("8", "0,2,3"),
        ("30", "0,2,3,5,7"),
    ]
    for n, primes in combos:
        for fmt in ("dot", "json", "table"):
            first = invoke(capsys, "spectrum", "-n", n, "--primes", primes, "--format", fmt)
            second = invoke(capsys, "spectrum", "-n", n, "--primes", primes, "--format", fmt)
            assert first == second
            assert first[0] == 0


def test_spectrum_json_format(capsys):
    code, out, _ = invoke(capsys, "spectrum", "-n", "12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 12 and len(doc["points"]) == 17


def test_contains_command(capsys):
    code, out, _ = invoke(capsys, "contains", "-n", "12", "c=6,p=0", "c=2,p=0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "contains", "-n", "12", "c=2,p=2", "c=3,p=0")
    assert code == 0 and out.strip() == "false"


def test_member_command(capsys):
    code, out, _ = invoke(
        capsys,
        "member", "-n", "12", "--spec", "c=2,p=2",
        "--element", '{"level":12,"coeffs":{"12":2}}',
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(
        capsys, "member", "-n", "12", "--spec", "c=2,p=0", "--element", "t4@12"
    )
    assert code == 0 and out.strip() == "false"


def test_map_commands(capsys):
    code, out, _ = invoke(
        capsys, "map", "--op", "res", "--from", "6", "--to", "2", "--element", "t3@6"
    )
    assert code == 0
    assert json.loads(out) == {"level": 2, "coeffs": {"2": 3}}
    code, out, _ = invoke(
        capsys, "map", "--op", "tr", "--from", "1", "--to", "2", "--element", "t1@1"
    )
    assert json.loads(out) == {"level": 2, "coeffs": {"1": 1}}
    code, out, _ = invoke(
        capsys, "map", "--op", "norm", "--from", "1", "--to", "2", "--element",
        '{"level":1,"coeffs":{"1":2}}',
    )
    assert json.loads(out) == {"level": 2, "coeffs": {"1": 1, "2": 2}}


def test_norm_beyond_the_int_to_str_digit_limit_prints(capsys):
    # coefficients of about 9,600 digits, over the interpreter's default
    # 4,300-digit limit; the limit is lifted for the output only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = invoke(
        capsys, "map", "--op", "norm", "--from", "1", "--to", "20160",
        "--element", '{"level":1,"coeffs":{"1":3}}',
    )
    assert code == 0, err
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        x = element_from_json(json.loads(out))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert x.level == 20160
    for i in (1, 7, 96, 20160):
        assert x.mark(i) == 3 ** (20160 // i)


def test_cli_reads_back_its_own_norm(capsys):
    # the norm has coefficients of 9,615 digits; ghost must parse them
    code, out, err = invoke(
        capsys, "map", "--op", "norm", "--from", "1", "--to", "20160",
        "--element", '{"level":1,"coeffs":{"1":3}}',
    )
    assert code == 0, err
    code, out, err = invoke(capsys, "ghost", "--element", out)
    assert code == 0, err
    doc = cli._any_length(json.loads, out)
    assert doc["level"] == 20160
    for i in (1, 7, 96, 20160):
        assert doc["marks"][str(i)] == 3 ** (20160 // i)


def test_norm_past_the_bit_budget_exits_1(capsys):
    # a 1,000-digit coefficient normed to 20160 would have 67 Mbit marks
    code, out, err = invoke(
        capsys, "map", "--op", "norm", "--from", "1", "--to", "20160",
        "--element", '{"level":1,"coeffs":{"1":%s}}' % ("9" * 1000),
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "BudgetExceeded"
    assert "NORM_BIT_LIMIT" in json.loads(err)["message"]


@pytest.mark.parametrize("sign", ["", "-"])
def test_json_integers_are_capped_in_digits(capsys, sign):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    at_cap = sign + "7" * cli.MAX_INPUT_DIGITS
    code, out, err = invoke(capsys, "ghost", "--element", f'{{"level":1,"coeffs":{{"1":{at_cap}}}}}')
    assert code == 0, err
    assert out == f'{{"level": 1, "marks": {{"1": {at_cap}}}}}\n'
    for argv in (
        ["ghost", "--element", f'{{"level":1,"coeffs":{{"1":{at_cap}7}}}}'],
        ["unghost", "--vector", f'{{"level":1,"marks":{{"1":{at_cap}7}}}}'],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded"
        assert f"{cli.MAX_INPUT_DIGITS + 1} digits" in payload["message"]
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def _refuse_factorizing(n):
    raise AssertionError(f"factorized a {n.bit_length()}-bit level")


@pytest.mark.parametrize(
    "level",
    [
        "1" + "0" * cli.MAX_LEVEL_DIGITS,  # smooth: 10**4300
        "1" + "0" * 99_000 + "1",  # past the level cap, factored by no small prime
    ],
    ids=["smooth", "unfactored"],
)
def test_json_level_past_its_cap_is_refused_before_factorizing(capsys, monkeypatch, level):
    monkeypatch.setattr(lattice, "factorize", _refuse_factorizing)
    for argv in (
        ["ghost", "--element", f'{{"level":{level},"coeffs":{{}}}}'],
        ["unghost", "--vector", f'{{"level":{level},"marks":{{}}}}'],
        ["member", "-n", "12", "--spec", "c=2,p=2", "--element", f'{{"level":{level},"coeffs":{{}}}}'],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded"
        assert f"more than {cli.MAX_LEVEL_DIGITS} digits" in payload["message"]


def test_long_level_without_small_factors_is_refused_early(capsys):
    level = 1000003**700  # 4,201 digits, under every input cap
    code, out, err = invoke(capsys, "ghost", "--element", f'{{"level":{level},"coeffs":{{}}}}')
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceeded" and "past divisor 37037 " in payload["message"]


def test_json_level_with_too_many_divisors_is_refused(capsys):
    # 10**4299 has MAX_LEVEL_DIGITS digits and 4300**2 divisors
    level = "1" + "0" * (cli.MAX_LEVEL_DIGITS - 1)
    for argv in (
        ["ghost", "--element", f'{{"level":{level},"coeffs":{{}}}}'],
        ["unghost", "--vector", f'{{"level":{level},"marks":{{}}}}'],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded" and "18490000 divisors" in payload["message"]


def test_unghost_names_the_divisor_of_a_long_odd_mark(capsys):
    mark = "7" * 5000
    code, out, err = invoke(capsys, "unghost", "--vector", f'{{"level":2,"marks":{{"1":{mark},"2":0}}}}')
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "NotInGhostImage"
    assert payload["message"].startswith("not a ghost vector: m_1 = <")


def test_map_level_mismatch_is_domain_error(capsys):
    code, out, err = invoke(
        capsys, "map", "--op", "res", "--from", "4", "--to", "2", "--element", "t3@6"
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_map_target_outside_the_ambient_order_is_domain_error(capsys):
    argv = ["map", "--op", "tr", "--from", "1", "--to", "5", "--element", "t1@1"]
    code, out, err = invoke(capsys, *argv, "-n", "12")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "target level" in payload["message"]
    # without -n the same transfer has no ambient order to leave
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and json.loads(out) == {"level": 5, "coeffs": {"1": 1}}


def test_ghost_unghost_roundtrip(capsys):
    code, out, _ = invoke(capsys, "ghost", "--element", "t3@6")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"level": 6, "marks": {"1": 3, "2": 3, "3": 0, "6": 0}}
    code, out, _ = invoke(capsys, "unghost", "--vector", json.dumps(doc))
    assert code == 0
    assert json.loads(out) == {"level": 6, "coeffs": {"2": 1}}


def test_unghost_rejects_non_image(capsys):
    code, _, err = invoke(
        capsys, "unghost", "--vector", '{"level":2,"marks":{"1":1,"2":0}}'
    )
    assert code == 1
    assert json.loads(err)["error"] == "NotInGhostImage"


def test_gens_command(capsys):
    code, out, _ = invoke(capsys, "gens", "-n", "12", "--spec", "c=2,p=0")
    assert code == 0
    gens = json.loads(out)
    assert {"level": 12, "coeffs": {"1": 1, "3": -3}} in gens
    assert len(gens) == 4


def test_probe_command_small(capsys):
    code, out, err = invoke(capsys, "probe", "-n", "4", "--bound", "1")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["verdict"].startswith("no counterexample found at this scale")
    assert all(not entry["counterexamples"] for entry in doc["specs"])


@pytest.mark.parametrize("n, points", [(5040, 212), (55440, 484)])
def test_probe_answers_every_point_of_a_large_spectrum(capsys, n, points):
    # each point is a single ideal, answered by the lemma with no box
    code, out, err = invoke(capsys, "probe", "-n", str(n))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["specs"]) == points
    assert not any(entry["counterexamples"] for entry in doc["specs"])


@pytest.mark.parametrize("option", [["--bound", "-1"], ["--support", "-3"]], ids=str)
def test_probe_with_a_negative_box_exits_1(capsys, option):
    # the box would hold only the zero element and report no counterexample
    code, out, err = invoke(capsys, "probe", "-n", "4", *option)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_probe_box_past_the_limit_exits_1(capsys):
    code, out, err = invoke(capsys, "probe", "-n", "1", "--bound", "100000")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_probe_box_past_a_lowered_limit_exits_1(capsys, monkeypatch):
    # every spec is probed alone and keeps no box; the 62 coefficient
    # values of bound 31 pass the lowered limit
    monkeypatch.setattr(ideals, "BOX_LIMIT", 60)
    code, out, err = invoke(capsys, "probe", "-n", "4", "--bound", "31")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceeded" and "BOX_LIMIT = 60" in payload["message"]


def test_oracle_commands(capsys):
    expected = {
        "6": (171, 81, 36),
        "12": (666, 258, 81),
        "30": (1485, 459, 106),
        "60": (5886, 1494, 230),
    }
    for n, counts in expected.items():
        for check, cases in zip(("marks", "transfers", "norms"), counts):
            code, out, _ = invoke(capsys, "oracle", "--check", check, "-n", n)
            assert code == 0
            assert out == f"{check}: OK ({cases} cases)\n"


def test_oracle_points_closed_form_values():
    # the point counts the oracle budget is checked against, at n = 12, 30,
    # 60, 360 and 55440
    expected = {
        "marks": [1347, 4494, 18501, 319644, 384140718],
        "transfers": [4107, 14430, 71493, 1843740, 4993877934],
        "norms": [9039, 162964, 314196, 8368900, 63367960],
    }
    for check, points in expected.items():
        assert [cli._oracle_points(check, n) for n in (12, 30, 60, 360, 55440)] == points


def _count_realized_points(monkeypatch):
    realized = []

    def counted(build):
        def count(*args):
            s = build(*args)
            realized.append(s.size)
            return s
        return count

    for name in ("realize", "induce", "map_set"):
        monkeypatch.setattr(cli, name, counted(getattr(gsets, name)))
    return realized


@pytest.mark.parametrize("n", [6, 12, 30])
@pytest.mark.parametrize("check", ["marks", "transfers", "norms"])
def test_oracle_budget_counts_every_realized_point(capsys, monkeypatch, check, n):
    realized = _count_realized_points(monkeypatch)
    points = cli._oracle_points(check, n)
    monkeypatch.setattr(cli, "ORACLE_POINT_LIMIT", points)
    code, out, err = invoke(capsys, "oracle", "--check", check, "-n", str(n))
    assert code == 0, err
    assert sum(realized) == points
    monkeypatch.setattr(cli, "ORACLE_POINT_LIMIT", points - 1)
    code, out, err = invoke(capsys, "oracle", "--check", check, "-n", str(n))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("check", ["marks", "transfers", "norms"])
def test_oracle_past_the_point_limit_is_refused_before_any_g_set(capsys, monkeypatch, check):
    realized = _count_realized_points(monkeypatch)
    code, out, err = invoke(capsys, "oracle", "--check", check, "-n", "55440")
    assert code == 1 and out == "" and realized == []
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceeded" and "ORACLE_POINT_LIMIT" in payload["message"]


# one element of each oracle's box at n = 30: realizable, and of size at most 4 for norms
WRONG_ON = BurnsideElement(6, {2: 1, 3: 2}), BurnsideElement(2, {1: 1})


def _off_by_unit(out, h):
    return out + BurnsideElement.unit(h)


@pytest.mark.parametrize(
    "check, target, formula, element, spoil",
    [
        ("marks", cli, "marks", WRONG_ON[0], lambda out, h: {**out, h: out[h] + 1}),
        ("transfers", cli, "transfer", WRONG_ON[0], _off_by_unit),
        ("norms", cli, "norm", WRONG_ON[1], _off_by_unit),
    ],
    ids=["marks", "transfers", "norms"],
)
def test_oracle_catches_a_formula_wrong_on_one_element(
    capsys, monkeypatch, check, target, formula, element, spoil
):
    right = getattr(target, formula)

    def wrong(x, arg):
        out = right(x, arg)
        return spoil(out, arg) if x == element else out

    monkeypatch.setattr(target, formula, wrong)
    code, out, err = invoke(capsys, "oracle", "--check", check, "-n", "30")
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvariantError" and str(element) in payload["message"]


def test_dress_command(capsys):
    code, out, _ = invoke(capsys, "dress", "-n", "12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 17 and doc["krull_dimension"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "-n", "12", "--spec", "c=2,p=2",
         "--element", '{"level":12,"coeffs":{"12":2.9}}'],
        ["unghost", "--vector", '{"level":2,"marks":{"1":1.5,"2":1}}'],
        ["ghost", "--element", '{"level":12,"coeffs":{"12":"3"}}'],
        ["ghost", "--element", '{"level":12,"coeffs":{"12":true}}'],
        ["ghost", "--element", '{"level":12.0,"coeffs":{"12":1}}'],
        ["ghost", "--element", '{"level":12,"coeffs":[1]}'],
        # keys are read like integers on the command line, not by int()
        ["ghost", "--element", '{"level":12,"coeffs":{"1_2":1}}'],
        ["ghost", "--element", '{"level":12,"coeffs":{"١٢":1}}'],
        ["unghost", "--vector", '{"level":12,"marks":{"1":1,"2":1,"3":1,"4":1,"6":1,"1_2":1}}'],
        ["unghost", "--vector", '{"level":12,"marks":{"1":1,"2":1,"3":1,"4":1,"6":1,"١٢":1}}'],
        # nested past the recursion limit
        ["ghost", "--element", "[" * 100_000 + "]" * 100_000],
        ["unghost", "--vector", '{"level":1,"marks":' + "[" * 100_000 + "]" * 100_000 + "}"],
    ],
)
def test_malformed_json_input_exit_1(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["spectrum"],  # missing -n
        ["map", "--op", "res", "--from", "6", "--element", "t3@6"],  # missing --to
        ["no-such-command"],
        [],
        ["map", "--op", "frob", "--from", "1", "--to", "12", "--element", "t1@1"],
        ["spectrum", "-n", "12", "--format", "svg"],
        ["spectrum", "-n", "12", "--no-such-option", "1"],
        ["spectrum", "-n"],
        ["ghost", "--element"],
        ["contains", "-n", "12", "c=6,p=0", "c=2,p=0", "c=1,p=0"],
        ["contains", "-n", "12", "c=6,p=0"],
        ["ghost", "--element", "-x"],  # not a negative number, so not a value
        ["ghost", "--elem", "t1@1"],  # no prefix abbreviations
        ["spectrum", "-n12"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage: tambara") and "error: " in err, argv


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize(
    "command",
    ["spectrum", "contains", "member", "map", "ghost", "unghost", "gens", "probe", "oracle", "dress"],
)
def test_every_command_prints_its_help(capsys, command, flag):
    code, out, err = invoke(capsys, command, flag)
    assert code == 0 and err == ""
    assert out.startswith(f"usage: tambara {command}")


def test_option_forms_agree(capsys):
    spaced = invoke(capsys, "spectrum", "-n", "12", "--format", "json")
    assert spaced[0] == 0
    assert invoke(capsys, "spectrum", "-n", "12", "--format=json") == spaced
    # a repeated option keeps its last value
    assert invoke(capsys, "spectrum", "-n", "6", "-n", "12", "--format", "json") == spaced
    assert invoke(capsys, "spectrum", "--format", "dot", "-n", "12", "--format", "json") == spaced


def test_integer_accepts_only_ascii_decimal_digits():
    assert integer("12") == 12
    assert integer(" -3 ") == -3
    for text in ("1_2", "+12", "١٢", "12.0", "", "-", "0x10", "1 2"):
        with pytest.raises(ValueError):
            integer(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "-n", "1_2"],
        ["spectrum", "-n", "١٢"],
        ["contains", "-n", "+12", "c=1,p=0", "c=1,p=0"],
        ["member", "-n", "1_2", "--spec", "c=2,p=2", "--element", "t1@12"],
        ["map", "-n", "1_2", "--op", "res", "--from", "6", "--to", "2", "--element", "t3@6"],
        ["map", "--op", "res", "--from", "6_0", "--to", "2", "--element", "t3@6"],
        ["map", "--op", "res", "--from", "6", "--to", "2.0", "--element", "t3@6"],
        ["gens", "-n", "1_2", "--spec", "c=2,p=0"],
        ["gens", "-n", "12", "--spec", "c=2,p=0", "--level", "1_2"],
        ["probe", "-n", "1_2"],
        ["probe", "-n", "4", "--bound", "1_0"],
        ["probe", "-n", "4", "--support", "0x2"],
        ["oracle", "--check", "marks", "-n", "1_2"],
        ["dress", "-n", "1_2"],
    ],
)
def test_non_decimal_integer_option_is_usage_error(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "-n", "12", "--primes", "0,2_3"],
        ["dress", "-n", "12", "--primes", "0,+2"],
        ["probe", "-n", "4", "--primes", "0,２"],
        ["contains", "-n", "12", "c=1_2,p=0", "c=1,p=0"],
        ["contains", "-n", "12", "c=1,p=0", "c=1,p=2_3"],
        ["member", "-n", "12", "--spec", "c=2,p=+2", "--element", "t1@12"],
        ["gens", "-n", "12", "--spec", "c=１２,p=0"],
        ["ghost", "--element", "t1_2@1_2"],
        ["ghost", "--element", "t3@+6"],
    ],
)
def test_non_decimal_integer_in_text_is_domain_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "-n", "0", "--spec", "c=1,p=0", "--element", "t1@1"],
        ["contains", "-n", "0", "c=1,p=0", "c=1,p=0"],
        ["gens", "-n", "0", "--spec", "c=1,p=0", "--level", "3"],
        ["map", "-n", "0", "--op", "res", "--from", "1", "--to", "1", "--element", "t1@1"],
        ["member", "-n", "-12", "--spec", "c=1,p=2", "--element", "t1@1"],
    ],
)
def test_non_positive_ambient_order_is_domain_error(capsys, argv):
    # each of these used to answer for the "group" C_0: member printed false
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_integers_may_carry_surrounding_spaces(capsys):
    spaced = invoke(capsys, "spectrum", "-n", " 12 ", "--primes", " 0, 2 ,3 ")
    plain = invoke(capsys, "spectrum", "-n", "12", "--primes", "0,2,3")
    assert spaced == plain and plain[0] == 0
    code, out, _ = invoke(capsys, "contains", "-n", "12", "c= 6 ,p=0", "c=2,p= 0")
    assert code == 0 and out.strip() == "true"


def test_domain_errors_exit_1_with_json(capsys):
    code, _, err = invoke(capsys, "spectrum", "-n", "0")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "positive" in payload["message"]


def test_group_order_past_the_trial_division_limit_exits_1(capsys, low_trial_limit):
    code, out, err = invoke(capsys, "spectrum", "-n", "1000003")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceeded" and str(low_trial_limit) in payload["message"]


def test_broken_invariant_exits_3(capsys, monkeypatch):
    # a wrong norm formula must surface as a broken invariant, not bad input
    monkeypatch.setattr(
        "tambara.cli.norm", lambda x, h: norm(x, h) + BurnsideElement.unit(h)
    )
    code, out, err = invoke(capsys, "oracle", "--check", "norms", "-n", "4")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "InvariantError"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tambara", "contains", "-n", "12", "c=6,p=0", "c=2,p=0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"
