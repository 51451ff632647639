import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gainchart.cli import main
from gainchart.problemfile import parse_problem_text

from oracles import decimal_digits

EXAMPLE = Path(__file__).resolve().parent.parent / "problems" / "example_n5.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    return code, (json.loads(out) if out.strip() else None), err


def test_check_worked_example(capsys):
    code, doc, _ = machine(capsys, "check", "--problem", str(EXAMPLE))
    assert code == 0
    res = doc["result"]
    assert res["controllability_indices"] == [3, 2]
    assert res["brunovsky_indices"] == [2, 2, 1]
    assert res["segre_test"] == {"indices": [3, 2], "degrees": [4, 1], "majorized": True}
    assert res["weyr_test"]["weyr_union"] == [2, 1, 1, 1]
    assert res["feasible"] is True
    assert res["dim"] == 3


def test_check_pretty_output(capsys):
    code, out, _ = run(capsys, "check", "--problem", str(EXAMPLE))
    assert code == 0
    assert "FEASIBLE" in out
    assert "dimension = 3" in out


def test_check_infeasible_exit_code(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    doc["target"] = {"real": [{"eigenvalue": 0, "segre": [1, 1, 1, 1, 1]}], "complex": []}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, _ = machine(capsys, "check", "--problem", str(p))
    assert code == 3
    assert out["result"]["feasible"] is False


def test_canon_transform_identities(capsys):
    code, doc, _ = machine(capsys, "canon", "--problem", str(EXAMPLE))
    assert code == 0
    res = doc["result"]
    assert res["k"] == [3, 2]
    # already canonical: identity transform
    assert res["P"] == [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert res["R"] == [[0] * 5, [0] * 5]


def test_weyr_command(capsys):
    code, doc, _ = machine(capsys, "weyr", "--problem", str(EXAMPLE))
    assert code == 0
    res = doc["result"]
    assert res["centralizer_dimension"] == 7
    assert res["A"][0] == [0, 0, 1, 0, 0]
    assert res["A"][3] == [0, 0, 0, 0, 1]
    assert res["A"][4] == [0, 0, 0, -1, 0]
    assert res["invariant_polynomials"] == ["1", "1", "1", "s", "s^4 + s^2"]


def test_chart_command(capsys):
    code, doc, _ = machine(capsys, "chart", "--problem", str(EXAMPLE))
    assert code == 0
    res = doc["result"]
    assert res["multi_index"] == [[2, 1], [1]]
    assert res["chart_dimension"] == 3
    assert res["manifold_dimension"] == 3
    # the printed multi-index, fed back through the flag, gives the same chart
    spec = ";".join(",".join(map(str, seq)) for seq in res["multi_index"])
    code, again, _ = machine(capsys, "chart", "--problem", str(EXAMPLE), "--multi-index", spec)
    assert (code, again["result"]) == (0, res)


def test_synthesize_and_verify_round_trip(capsys, tmp_path):
    code, doc, _ = machine(capsys, "synthesize", "--problem", str(EXAMPLE))
    assert code == 0
    assert doc["result"]["K"] == [[0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]
    assert doc["result"]["verified"] is True
    # the echoed problem embeds K and parses directly as verify input
    p = tmp_path / "verify.json"
    p.write_text(json.dumps(doc["problem"]))
    code, vdoc, _ = machine(capsys, "verify", "--problem", str(p))
    assert code == 0
    assert vdoc["result"]["match"] is True


def test_synthesize_with_x_flag(capsys):
    code, doc, _ = machine(
        capsys, "synthesize", "--problem", str(EXAMPLE), "--x", "1,1/2,2"
    )
    assert code == 0
    # closed form at (1, 1/2, 2): denominator xy - 1 = -1/2
    assert doc["result"]["K"][0] == [0, 0, -2, 2, -4]


def test_synthesize_domain_violation_exit_code(capsys):
    code, _, err = machine(
        capsys, "synthesize", "--problem", str(EXAMPLE), "--x", "2,1/2,1"
    )
    assert code == 4
    assert "domain" in err


def test_synthesize_with_k2_file(capsys, tmp_path):
    # a third input column beyond rank G opens a free gain block
    doc = json.loads(EXAMPLE.read_text())
    for row, extra in zip(doc["G"], [0, 0, 0, 1, 2]):
        row.append(extra)
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps([[1, 0, "1/2", 0, 0]]))
    code, sdoc, _ = machine(
        capsys, "synthesize", "--problem", str(p), "--k2", str(k2), "--x", "0,0,1"
    )
    assert code == 0
    assert sdoc["result"]["K2"] == [[1, 0, "1/2", 0, 0]]
    v = tmp_path / "wide_verify.json"
    v.write_text(json.dumps(sdoc["problem"]))
    code, vdoc, _ = machine(capsys, "verify", "--problem", str(v))
    assert code == 0
    assert vdoc["result"]["match"] is True


def test_coords_round_trip(capsys, tmp_path):
    code, doc, _ = machine(
        capsys, "synthesize", "--problem", str(EXAMPLE), "--x", "1,2,3"
    )
    assert code == 0
    p = tmp_path / "coords.json"
    p.write_text(json.dumps(doc["problem"]))
    code, cdoc, _ = machine(
        capsys, "coords", "--problem", str(p), "--multi-index", "2,1;1"
    )
    assert code == 0
    assert cdoc["result"]["x"] == [1, 2, 3]


def test_coords_picks_chart_when_unspecified(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    doc["options"] = {"K": [[0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]}
    p = tmp_path / "own.json"
    p.write_text(json.dumps(doc))
    code, cdoc, _ = machine(capsys, "coords", "--problem", str(p))
    assert code == 0
    assert len(cdoc["result"]["x"]) == 3


def test_verify_zero_gain_mismatch(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    doc["options"] = {"K": [[0] * 5, [0] * 5]}
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(doc))
    code, vdoc, _ = machine(capsys, "verify", "--problem", str(p))
    assert code == 5
    assert vdoc["result"]["match"] is False
    assert vdoc["result"]["achieved"] == ["1", "1", "1", "s^2", "s^3"]


def test_parse_error_on_float(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    doc["F"][0][0] = 0.5
    p = tmp_path / "float.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--problem", str(p))
    assert code == 2
    assert "float" in err


def test_parse_error_on_zero_denominator(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    doc["F"][0][0] = "1/0"
    p = tmp_path / "zeroden.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--problem", str(p))
    assert code == 2
    assert "denominator" in err


def test_parse_error_on_missing_field(capsys, tmp_path):
    p = tmp_path / "missing.json"
    p.write_text("{\"F\": [[0]]}")
    code, _, err = run(capsys, "check", "--problem", str(p))
    assert code == 2
    assert "G" in err


def test_uncontrollable_exit_code(capsys, tmp_path):
    doc = {
        "F": [[1, 0], [0, 2]],
        "G": [[1], [0]],
        "target": {"real": [{"eigenvalue": 0, "segre": [1]}, {"eigenvalue": 1, "segre": [1]}], "complex": []},
    }
    p = tmp_path / "unc.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--problem", str(p))
    assert code == 3
    assert "not controllable" in err


def test_coords_outside_chart_exit_code(capsys, tmp_path):
    # gain in the lex-first chart, queried against the swapped-row chart
    code, doc, _ = machine(
        capsys, "synthesize", "--problem", str(EXAMPLE),
        "--multi-index", "1,2;1", "--x", "0,1,0",
    )
    assert code == 0
    p = tmp_path / "outside.json"
    p.write_text(json.dumps(doc["problem"]))
    code, _, err = machine(
        capsys, "coords", "--problem", str(p), "--multi-index", "2,1;1"
    )
    assert code == 4
    assert "chart" in err


def test_chart_multi_index_count_exit_code(capsys):
    code, out, err = run(capsys, "chart", "--problem", str(EXAMPLE), "--multi-index", "2,1")
    assert code == 2
    assert out == ""
    assert err == "error: multi-index has 1 components, expected 2\n"


def test_internal_check_failure_is_one_error_line(capsys, monkeypatch):
    # a wrong canonical pattern trips the Brunovsky self-check
    from gainchart import feedback

    right = feedback.p_brunovsky_pair

    def wrong(r, m):
        Fp, Gp = right(r, m)
        return Fp.transpose(), Gp

    monkeypatch.setattr(feedback, "p_brunovsky_pair", wrong)
    code, out, err = run(capsys, "canon", "--problem", str(EXAMPLE))
    assert code == 1
    assert out == ""
    assert err == "error: canonical pair pattern mismatch\n"
    assert "Traceback" not in err


def test_parse_error_on_float_in_k2_file(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    for row, extra in zip(doc["G"], [0, 0, 0, 1, 2]):
        row.append(extra)
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    k2 = tmp_path / "k2.json"
    k2.write_text("[[1, 0, 0.5, 0, 0]]")
    code, out, err = run(
        capsys, "synthesize", "--problem", str(p), "--k2", str(k2), "--x", "0,0,1"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "float literal '0.5'" in err


def test_check_does_not_build_the_feedback_transform(capsys, monkeypatch):
    # check reads k, r and rank G off the controllability indices alone
    import gainchart.cli as cli

    expected = run(capsys, "check", "--problem", str(EXAMPLE), "--format", "machine")

    def refuse(pair):
        raise AssertionError("check built the feedback transform")

    monkeypatch.setattr(cli, "to_p_brunovsky", refuse)
    assert run(capsys, "check", "--problem", str(EXAMPLE), "--format", "machine") == expected


def test_an_uncontrollable_pair_with_an_infeasible_target_fails_as_uncontrollable(capsys, tmp_path):
    # the scan raises before the feasibility test, on every command that needs the pair
    doc = {
        "F": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        "G": [[1], [1], [0]],
        "target": {"real": [{"eigenvalue": 0, "segre": [1, 1, 1]}], "complex": []},
    }
    p = tmp_path / "unc.json"
    p.write_text(json.dumps(doc))
    for argv in (["check"], ["canon"], ["chart"], ["synthesize", "--x", ""]):
        assert run(capsys, *argv, "--problem", str(p)) == (
            3, "", "error: pair is not controllable: controllability matrix has rank 1 < 3\n"
        )


def test_machine_output_is_the_indented_json_of_its_document(capsys, tmp_path):
    # every command's stdout reads back and is written again as json writes it
    code, doc, _ = machine(capsys, "synthesize", "--problem", str(EXAMPLE))
    assert code == 0
    p = tmp_path / "synthesized.json"
    p.write_text(json.dumps(doc["problem"]))
    for command in ("check", "canon", "weyr", "chart", "synthesize", "coords", "verify"):
        code, out, err = run(capsys, command, "--problem", str(p), "--format", "machine")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_synthesize_domain_violation_names_the_first_dependent_column(capsys):
    # at 2,1/2,0 the first dependent row of the member is row 3, its first
    # dependent column is column 4; at 2,1/2,1 both are 4
    for x in ("2,1/2,1", "2,1/2,0"):
        for fmt in ("pretty", "machine"):
            code, out, err = run(
                capsys, "synthesize", "--problem", str(EXAMPLE), "--x", x, "--format", fmt
            )
            assert code == 4
            assert out == ""
            assert err == (
                "error: coordinates leave the chart domain: assembled member is "
                "singular (column 4 dependent)\n"
            )


def test_coords_recovers_the_member_once(capsys, monkeypatch, tmp_path):
    import gainchart.chart as chart_mod

    code, doc, _ = machine(capsys, "synthesize", "--problem", str(EXAMPLE), "--x", "1,2,3")
    assert code == 0
    problem = doc["problem"]
    problem["options"] = {"K": problem["options"]["K"]}  # no multi-index: chart_for_gain picks it
    p = tmp_path / "coords.json"
    p.write_text(json.dumps(problem))
    calls = []
    recover = chart_mod.recover_member
    monkeypatch.setattr(chart_mod, "recover_member", lambda *a: calls.append(a) or recover(*a))
    for extra in ([], ["--multi-index", "2,1;1"]):
        calls.clear()
        code, cdoc, _ = machine(capsys, "coords", "--problem", str(p), *extra)
        assert code == 0
        assert cdoc["result"]["x"] == [1, 2, 3]
        assert len(calls) == 1


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    # the decoder's recursion limit surfaces as exit 2, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "check", "--problem", str(deep))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: nesting too deep\n"

    doc = json.loads(EXAMPLE.read_text())
    for row, extra in zip(doc["G"], [0, 0, 0, 1, 2]):
        row.append(extra)
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "synthesize", "--problem", str(p), "--k2", str(deep), "--x", "0,0,1"
    )
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON in K2 file: nesting too deep\n"
    assert "Traceback" not in err


def test_long_values_are_cut_in_the_error_line(capsys, tmp_path):
    # a deeply nested entry and a huge malformed literal each give one short
    # error line, with the echoed value cut to a prefix
    text = EXAMPLE.read_text()
    doc = json.loads(text)
    doc["F"][0][0] = "7" * 50000 + "x"
    literal = json.dumps(doc)
    nested = text.replace('"F": [\n    [0,', '"F": [\n    [' + "[" * 900 + "0" + "]" * 900 + ",", 1)
    assert nested != text
    for name, body in (("nested", nested), ("literal", literal)):
        p = tmp_path / f"{name}.json"
        p.write_text(body)
        code, out, err = run(capsys, "check", "--problem", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200
        assert "Traceback" not in err
        assert "..." in err


def test_integers_past_the_digit_limit_read_exactly(capsys, tmp_path):
    # Python refuses to convert integer strings of more than 4,300 digits; a
    # long numerator, denominator or bare JSON integer in F is read exactly,
    # and so is a long coordinate, which synthesize writes back digit for digit
    seven = 7 * (10**5000 - 1) // 9
    text = EXAMPLE.read_text()
    doc = json.loads(text)
    bodies = {}
    for name, entry in (("numerator", "7" * 5000), ("denominator", "1/" + "7" * 5000)):
        doc["F"][0][0] = entry
        bodies[name] = json.dumps(doc)
    bodies["bare"] = text.replace('"F": [\n    [0,', '"F": [\n    [' + "7" * 5000 + ",", 1)
    assert bodies["bare"] != text
    for name, body in bodies.items():
        assert parse_problem_text(body).F[0, 0] == (Fraction(1, seven) if name == "denominator" else seven)
        p = tmp_path / f"{name}.json"
        p.write_text(body)
        code, out, err = run(capsys, "check", "--problem", str(p))
        assert (code, err) == (0, "")
        assert "FEASIBLE" in out
    code, sdoc, err = machine(capsys, "synthesize", "--problem", str(EXAMPLE), "--x", "7" * 5000 + ",0,1")
    assert (code, err) == (0, "")
    assert sdoc["result"]["x"] == sdoc["problem"]["options"]["x"] == ["7" * 5000, 0, 1]
    # a long Segre part or row index is read too, and refused in one short
    # line that names no interpreter setting: out of order, too large, out of
    # range; the printed digits are cut short
    for old, new in (('"segre": [2, 1]', '"segre": [1, 1' + "0" * 5000 + "]"),
                     ('"segre": [2, 1]', '"segre": [1' + "0" * 5000 + ", 1]"),
                     ("[[2, 1], [1]]", "[[2, 1" + "0" * 5000 + "], [1]]")):
        p = tmp_path / "count.json"
        p.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "chart", "--problem", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert "set_int_max_str_digits" not in err
    # a long integer where a rational belongs is echoed, cut short, in the
    # message that names the field, as a 50-digit one is
    for zeros in (50, 5000):
        p = tmp_path / "nested.json"
        p.write_text(text.replace('"F": [\n    [0,', '"F": [\n    [[[1' + "0" * zeros + "]],", 1))
        code, out, err = run(capsys, "check", "--problem", str(p))
        assert (code, out) == (2, "")
        assert err == "error: in F: cannot read [[" + "1" + "0" * 37 + "... as a rational\n"


def test_long_rationals_print_exactly_on_every_command(capsys, tmp_path):
    # an eigenvalue 1/D with D of 2,500 digits: the target polynomial and the
    # gain carry 1/D^2, whose 5,000 digits are past the interpreter's limit on
    # integer-to-string conversion; every command prints them exactly
    limit = sys.get_int_max_str_digits()
    D = int("7" * 2500)
    lam, lam2 = f"1/{decimal_digits(D)}", f"1/{decimal_digits(D * D)}"
    chain = ["1", f"s^2 - 2/{decimal_digits(D)}*s + {lam2}"]
    doc = {
        "F": [[0, 1], [0, 0]],
        "G": [[0], [1]],
        "target": {"real": [{"eigenvalue": "1/" + "7" * 2500, "segre": [2]}]},
        "options": {"x": [], "K": [[0, 0]]},
    }
    p = tmp_path / "long.json"
    p.write_text(json.dumps(doc))
    not_in_class = "error: closed-loop matrix does not have the prescribed invariant polynomials\n"
    codes = {"check": 0, "canon": 0, "weyr": 0, "chart": 0, "synthesize": 0, "coords": 5, "verify": 5}
    for cmd, expected in codes.items():
        code, out, err = run(capsys, cmd, "--problem", str(p))
        assert code == expected
        assert err == (not_in_class if cmd == "coords" else "")
        code, mdoc, err = machine(capsys, cmd, "--problem", str(p))
        assert code == expected
        assert err == (not_in_class if cmd == "coords" else "")
        if cmd == "coords":
            continue
        assert mdoc["problem"]["target"]["real"][0]["eigenvalue"] == lam
        res = mdoc["result"]
        if cmd == "weyr":
            assert res["A"] == [[lam, 1], [0, lam]]
            assert res["blocks"][0]["eigenvalue"] == lam
            assert res["invariant_polynomials"] == chain
            assert "invariant polynomials: " + ", ".join(chain) + "\n" in out
            assert f"\n  [ {lam}  " in out
        if cmd == "chart":
            assert res["A"] == [[lam, 1], [0, lam]]
        if cmd == "synthesize":
            K = [["-" + lam2, f"2/{decimal_digits(D)}"]]
            assert res["K"] == mdoc["problem"]["options"]["K"] == K
            assert f"[ -{lam2}  2/{decimal_digits(D)} ]" in out
            # the echoed problem, with its 5,000-digit K, reads back: K is in
            # the class and has the coordinates it was synthesized at
            echoed = tmp_path / "echoed.json"
            echoed.write_text(json.dumps(mdoc["problem"]))
            code, vdoc, err = machine(capsys, "verify", "--problem", str(echoed))
            assert (code, err, vdoc["result"]["match"]) == (0, "", True)
            code, cdoc, err = machine(capsys, "coords", "--problem", str(echoed))
            assert (code, err) == (0, "")
            assert cdoc["result"]["x"] == res["x"]
            assert cdoc["result"]["multi_index"] == res["multi_index"]
        if cmd == "verify":
            assert (res["target"], res["achieved"], res["match"]) == (chain, ["1", "s^2"], False)
            assert out == f"target:   {', '.join(chain)}\nachieved: 1, s^2\nMISMATCH\n"
    assert sys.get_int_max_str_digits() == limit


def test_bad_target_rationals_name_their_field(capsys, tmp_path):
    # a malformed eigenvalue, a or b is reported with its place in the target
    for path, field in (
        (("real", 0, "eigenvalue"), "target.real[0].eigenvalue"),
        (("complex", 0, "a"), "target.complex[0].a"),
        (("complex", 0, "b"), "target.complex[0].b"),
    ):
        doc = json.loads(EXAMPLE.read_text())
        kind, i, key = path
        doc["target"][kind][i][key] = "abc"
        p = tmp_path / f"{kind}-{key}.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--problem", str(p))
        assert (code, out) == (2, "")
        assert err == f"error: in {field}: malformed rational literal 'abc'\n"
        assert "Traceback" not in err


def test_bad_coordinates_name_their_entry(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    doc["options"]["x"] = ["abc", 0, 1]
    p = tmp_path / "bad-x.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "synthesize", "--problem", str(p))
    assert (code, out) == (2, "")
    assert err == "error: in options.x[0]: malformed rational literal 'abc'\n"
    # the same value on the command line names its entry the same way
    code, out, err = run(capsys, "synthesize", "--problem", str(EXAMPLE), "--x", "1,abc,0")
    assert (code, out) == (2, "")
    assert err == "error: in --x[1]: malformed rational literal 'abc'\n"


def test_synthesize_certificate_failure_is_one_error_line(capsys, monkeypatch):
    # a pull-back that misses K P = Q Kp + R by one entry is refused
    from gainchart import RatMatrix
    from gainchart.feedback import BrunovskyData

    real_psi_inv = BrunovskyData.psi_inv

    def off_by_one(self, Kp):
        rows = real_psi_inv(self, Kp).tolists()
        rows[0][0] += 1
        return RatMatrix(rows)

    monkeypatch.setattr(BrunovskyData, "psi_inv", off_by_one)
    code, out, err = run(capsys, "synthesize", "--problem", str(EXAMPLE))
    assert (code, out) == (1, "")
    assert err == "error: synthesized gain failed the invariant-polynomial check\n"


def test_target_size_mismatch_stops_every_command_at_load(capsys, monkeypatch, tmp_path):
    # the size check runs on the parsed target, before any chain or Weyr form
    import gainchart.cli as cli

    def refuse(*args):
        raise AssertionError("size mismatch reached the library")

    monkeypatch.setattr(cli, "invariant_chain", refuse)
    monkeypatch.setattr(cli, "weyr_from_spectral", refuse)
    doc = json.loads(EXAMPLE.read_text())
    doc["target"]["real"][0]["segre"] = [2, 1, 1]
    doc["options"]["K"] = [[0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]
    p = tmp_path / "size.json"
    p.write_text(json.dumps(doc))
    for cmd in ("check", "canon", "weyr", "chart", "synthesize", "coords", "verify"):
        code, out, err = run(capsys, cmd, "--problem", str(p))
        assert (code, out) == (2, "")
        assert err == "error: target class has size 6, state dimension is 5\n"


def test_wrong_shaped_gain_is_one_message_on_every_command(capsys, tmp_path):
    doc = json.loads(EXAMPLE.read_text())
    doc["options"]["K"] = [["1", "2", "3"]]
    p = tmp_path / "k-shape.json"
    p.write_text(json.dumps(doc))
    for cmd in ("verify", "coords", "synthesize"):
        code, out, err = run(capsys, cmd, "--problem", str(p))
        assert (code, out) == (2, "")
        assert err == "error: options.K must be 2 x 5, got 1 x 3\n"


def test_empty_x_is_the_point_of_a_zero_dimensional_chart(capsys, tmp_path):
    # single input: F is the companion of s^3 - 3s^2 - 2s - 1, the chart has
    # dimension 0 and x = () is its only point
    doc = {
        "F": [[0, 1, 0], [0, 0, 1], [1, 2, 3]],
        "G": [[0], [0], [1]],
        "target": {"real": [{"eigenvalue": -e, "segre": [1]} for e in (1, 2, 3)]},
    }
    p = tmp_path / "single.json"
    p.write_text(json.dumps(doc))
    code, sdoc, err = machine(capsys, "synthesize", "--problem", str(p), "--x", "")
    assert (code, err) == (0, "")
    assert sdoc["result"]["x"] == []
    assert sdoc["result"]["K"] == [[-7, -13, -9]]  # closed loop (s+1)(s+2)(s+3)


def test_empty_multi_index_flag_is_not_ignored(capsys):
    code, out, err = run(capsys, "synthesize", "--problem", str(EXAMPLE), "--multi-index", "")
    assert (code, out) == (2, "")
    assert err == "error: empty block in multi-index spec ''\n"


def test_target_lists_name_their_field(capsys, tmp_path):
    for field, value in (("real", 5), ("real", "ab"), ("complex", {"a": 0})):
        doc = json.loads(EXAMPLE.read_text())
        doc["target"][field] = value
        p = tmp_path / "target.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--problem", str(p))
        assert (code, out) == (2, "")
        assert err == f"error: target.{field} must be a list\n"


def _set(path, value):
    """A problem-document edit: the document with the entry at ``path`` set to ``value``."""

    def apply(doc):
        *head, last = path
        entry = doc
        for key in head:
            entry = entry[key]
        entry[last] = value
        return doc

    return apply


# case -> (command, document edit or None, extra argv)
_FUZZ = {
    "ragged-F": ("check", _set(("F", 0), [0, 0, 1, 0]), []),
    "G-rows": ("check", _set(("G",), [[0, 0]] * 4), []),
    "float-x": ("synthesize", None, ["--x", "1/2,0.5,1"]),
    "x-fullwidth-digit": ("synthesize", None, ["--x", "\uff11,0,1"]),
    "segre-size": ("check", _set(("target", "real", 0, "segre"), [2, 1, 1]), []),
    "segre-increasing": ("check", _set(("target", "real", 0, "segre"), [1, 2]), []),
    "segre-negative": ("check", _set(("target", "real", 0, "segre"), [3, -1]), []),
    "pair-b-zero": ("check", _set(("target", "complex", 0, "b"), 0), []),
    "mi-letter": ("chart", None, ["--multi-index=a"]),
    "mi-empty-blocks": ("chart", None, ["--multi-index=;"]),
    "mi-zero": ("chart", None, ["--multi-index=0"]),
    "mi-negative": ("chart", None, ["--multi-index=-1"]),
    "mi-arabic-indic-digit": ("chart", None, ["--multi-index=\u0662,1;1"]),
    "coords-K-shape": ("coords", _set(("options", "K"), [[0, 0, 1]]), []),
    "coords-K-width": ("coords", _set(("options", "K"), [[0] * 6] * 2), []),
    "verify-K-shape": ("verify", _set(("options", "K"), [[0, 0, 1]]), []),
    "target-list": ("check", _set(("target",), []), []),
    "options-list": ("check", _set(("options",), []), []),
    "document-list": ("check", lambda doc: [], []),
}


@pytest.mark.parametrize("case", sorted(_FUZZ))
def test_malformed_inputs_fail_with_one_error_line(capsys, tmp_path, case):
    cmd, edit, extra = _FUZZ[case]
    doc = json.loads(EXAMPLE.read_text())
    doc["options"]["K"] = [[0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(edit(doc) if edit else doc))
    code, out, err = run(capsys, cmd, "--problem", str(p), *extra)
    assert code in range(1, 6)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_parser_is_built_once(capsys, monkeypatch):
    import argparse

    run(capsys, "check", "--problem", str(EXAMPLE))

    def refuse(*args, **kwargs):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    code, out, err = run(capsys, "chart", "--problem", str(EXAMPLE))
    assert (code, err) == (0, "")
    assert "chart dimension" in out


_R = {"eigenvalue": 0, "segre": [2, 1]}
_C = {"a": 0, "b": 1, "segre": [1]}
_REAL_FIELDS = "target.real[0] must have exactly the fields eigenvalue, segre"
_PAIR_FIELDS = "target.complex[0] must have exactly the fields a, b, segre"

# case -> (target, the one error line after "error: ")
_TARGET_ERRORS = {
    "real-entry-not-object": ({"real": [5], "complex": [_C]}, _REAL_FIELDS),
    "complex-entry-not-object": ({"real": [_R], "complex": [[0, 1, [1]]]}, _PAIR_FIELDS),
    "real-missing-field": ({"real": [{"eigenvalue": 0}], "complex": [_C]}, _REAL_FIELDS),
    "complex-missing-field": ({"real": [_R], "complex": [{"a": 0, "segre": [1]}]}, _PAIR_FIELDS),
    "real-extra-field": ({"real": [{**_R, "b": 1}], "complex": [_C]}, _REAL_FIELDS),
    "complex-extra-field": ({"real": [_R], "complex": [{**_C, "eigenvalue": 0}]}, _PAIR_FIELDS),
    "second-entry": (
        {"real": [_R, {"segre": [1]}], "complex": [_C]},
        "target.real[1] must have exactly the fields eigenvalue, segre",
    ),
    "real-eigenvalue": (
        {"real": [{**_R, "eigenvalue": "1/0"}], "complex": [_C]},
        "in target.real[0].eigenvalue: zero denominator in '1/0'",
    ),
    "complex-a": (
        {"real": [_R], "complex": [{**_C, "a": True}]},
        "in target.complex[0].a: expected a rational, got boolean True",
    ),
    "complex-b": (
        {"real": [_R], "complex": [{**_C, "b": "1/x"}]},
        "in target.complex[0].b: malformed rational literal '1/x'",
    ),
    "real-segre-not-list": (
        {"real": [{**_R, "segre": 3}], "complex": [_C]},
        "target.real[0].segre must be a list of integers",
    ),
    "complex-segre-not-list": (
        {"real": [_R], "complex": [{**_C, "segre": ["1"]}]},
        "target.complex[0].segre must be a list of integers",
    ),
    "real-segre-increasing": (
        {"real": [{**_R, "segre": [1, 2]}], "complex": [_C]},
        "in target.real[0].segre: parts must be nonincreasing: [1, 2]",
    ),
    "complex-segre-increasing": (
        {"real": [_R], "complex": [{**_C, "segre": [1, 2]}]},
        "in target.complex[0].segre: parts must be nonincreasing: [1, 2]",
    ),
    "real-segre-empty": (
        {"real": [{**_R, "segre": []}], "complex": [_C]}, "in target: empty Segre partition"
    ),
    "complex-segre-empty": (
        {"real": [_R], "complex": [{**_C, "segre": []}]}, "in target: empty Segre partition"
    ),
    "pair-b-zero": (
        {"real": [_R], "complex": [{**_C, "b": "0/5"}]},
        "in target: complex pair must have nonzero imaginary part",
    ),
    "repeated-eigenvalue": (
        {"real": [_R, {"eigenvalue": "0/3", "segre": [1]}], "complex": [_C]},
        "in target: repeated real eigenvalue",
    ),
    # b is normalised positive, so a - bi written with b = -1 is the same pair
    "repeated-pair": (
        {"real": [_R], "complex": [_C, {**_C, "b": -1}]}, "in target: repeated complex pair"
    ),
    # rational literals are ASCII digits: Arabic-Indic 3/4 and fullwidth 12 are not
    "real-arabic-indic-digits": (
        {"real": [{**_R, "eigenvalue": "\u0663/\u0664"}], "complex": [_C]},
        "in target.real[0].eigenvalue: malformed rational literal '\u0663/\u0664'",
    ),
    "complex-fullwidth-digits": (
        {"real": [_R], "complex": [{**_C, "a": "\uff11\uff12"}]},
        "in target.complex[0].a: malformed rational literal '\uff11\uff12'",
    ),
    "unknown-field-first": ({"real": 5, "imag": []}, "unknown target fields: ['imag']"),
    # both lists are checked before any entry is read
    "lists-before-entries": ({"real": [5], "complex": {"a": 0}}, "target.complex must be a list"),
}


@pytest.mark.parametrize("case", sorted(_TARGET_ERRORS))
def test_target_reader_reports_each_field_path(capsys, tmp_path, case):
    target, message = _TARGET_ERRORS[case]
    doc = json.loads(EXAMPLE.read_text())
    doc["target"] = target
    p = tmp_path / "target.json"
    p.write_text(json.dumps(doc))
    assert run(capsys, "check", "--problem", str(p)) == (2, "", f"error: {message}\n")


_FLOAT_LITERAL = "error: float literal {!r} is not allowed; use \"p/q\" strings\n"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_rejected_like_floats(capsys, tmp_path, token):
    expected = (2, "", _FLOAT_LITERAL.format(token))
    text = EXAMPLE.read_text().rstrip()
    for name, edited in (
        ("ignored", text[:-1].rstrip() + f',\n  "result": {token}\n}}\n'),
        ("F", text.replace("[0, 0, 1, 0, 0]", f"[0, 0, {token}, 0, 0]", 1)),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(edited)
        assert run(capsys, "check", "--problem", str(p)) == expected
    doc = json.loads(text)
    for row, extra in zip(doc["G"], [0, 0, 0, 1, 2]):
        row.append(extra)
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    k2 = tmp_path / "k2.json"
    k2.write_text(f"[[1, 0, {token}, 0, 0]]")
    argv = ("synthesize", "--problem", str(p), "--k2", str(k2), "--x", "0,0,1")
    assert run(capsys, *argv) == expected
    p.write_text(json.dumps(doc).replace("[0, 0, 1, 0, 0]", "[0, 0, 1.5, 0, 0]", 1))
    assert run(capsys, "check", "--problem", str(p)) == (2, "", _FLOAT_LITERAL.format("1.5"))
