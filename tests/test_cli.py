"""Command-line interface: verbs, exit codes, determinism, JSON shape."""

import json
import os
import sys
import time

import pytest

import edimkit
from edimkit.cli import build_parser, main

FIXTURES = os.path.join(os.path.dirname(edimkit.__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariants(capsys):
    code, doc = run(capsys, "invariants", fx("q8.json"), "--field", "Q(zeta_4)")
    assert code == 0
    assert doc["order"] == 8
    assert doc["center_order"] == 2
    assert doc["socle_central"] and doc["socle_abelian"]
    assert doc["k_center_order"] == 2
    assert doc["supports_splitting"]
    assert doc["field"] == "Q(zeta_4)"
    assert isinstance(doc["fingerprint"], str)


@pytest.mark.parametrize("name", ["C1", "S1", "A1", "A2"])
def test_invariants_of_the_trivial_group(capsys, tmp_path, name):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"kind": "named", "name": name}))
    code, doc = run(capsys, "invariants", str(p))
    assert code == 0
    assert doc == {
        "abelian": True, "center_order": 1, "commutator_order": 1,
        "exponent": 1, "feet": [], "field": "Q",
        "fingerprint": "1:337fa11f078dde6f", "k_center_order": 1,
        "k_center_rank": 0, "n_classes": 1, "order": 1, "semi_faithful": True,
        "socle_abelian": True, "socle_central": True, "socle_order": 1,
        "supports_splitting": True}


def test_chartab(capsys):
    code, doc = run(capsys, "chartab", fx("s3.json"), "--no-cache")
    assert code == 0
    assert doc["degrees"] == [1, 1, 2]
    assert doc["class_sizes"] == [1, 3, 2]
    assert "values" not in doc
    code, doc = run(capsys, "chartab", fx("s3.json"), "--no-cache", "--full")
    assert code == 0
    assert len(doc["values"]) == 3


def test_rdim(capsys):
    code, doc = run(capsys, "rdim", fx("q8.json"), "--field", "Q(zeta_4)")
    assert code == 0
    assert doc["value"] == 2
    assert doc["dimension_vector"] == [2]


def test_rdim_out_of_scope_exit_3(capsys):
    code, doc = run(capsys, "rdim", fx("s3.json"), "--field", "Q")
    assert code == 3
    assert doc["error"] == "out_of_scope"
    assert doc["detail"]


def test_edim_and_covdim(capsys):
    code, doc = run(capsys, "edim", fx("klein.json"))
    assert code == 0
    assert (doc["lower"], doc["upper"], doc["exact"]) == (2, 2, True)
    assert any(t.startswith("R3:") and "=>" in t for t in doc["trace"])
    code, doc = run(capsys, "covdim", fx("s3.json"))
    assert code == 0
    assert (doc["lower"], doc["upper"], doc["exact"]) == (2, 2, True)


def test_missing_group_file_exit_2(capsys):
    code, doc = run(capsys, "edim", "/nonexistent/group.json")
    assert code == 2
    assert doc["error"] == "ParseError"


def test_bad_field_exit_2(capsys):
    code, doc = run(capsys, "edim", fx("q8.json"), "--field", "F5")
    assert code == 2


@pytest.mark.parametrize("char,error", [
    # 2^89 - 1 is prime and above the deterministic Miller-Rabin range
    ("618970019642690137449562111", "BackendLimit"),
    # 43^16 is above that range and has no factor below 43
    ("136614025729312093462315201", "ParseError"),
])
def test_huge_characteristic_is_decided_quickly(capsys, char, error):
    t0 = time.perf_counter()
    code, doc = run(capsys, "invariants", fx("s3.json"), "--field",
                    f"algclosed:{char}")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert doc["error"] == error


def test_mhom_homogenize(capsys, tmp_path):
    p = tmp_path / "map.json"
    p.write_text(json.dumps({
        "source_blocks": [1, 1],
        "target_blocks": [1, 1],
        "source_variables": ["x", "y"],
        "numerators": ["x + x*y", "y + x^2"],
    }))
    code, doc = run(capsys, "mhom", "homogenize", str(p), "--lambda", "1,3")
    assert code == 0
    assert doc["H"] == ["x", "x^2"]
    assert doc["M"] == [[1, 2], [0, 0]]
    assert doc["rank"] == 1
    assert doc["zero_columns"] == []


def test_mhom_bad_lambda_exit_2(capsys, tmp_path):
    p = tmp_path / "map.json"
    p.write_text(json.dumps({
        "source_blocks": [1], "target_blocks": [1], "numerators": ["x"],
        "source_variables": ["x"]}))
    code, doc = run(capsys, "mhom", "homogenize", str(p), "--lambda", "a,b")
    assert code == 2


@pytest.mark.parametrize("verb, payload", [
    (["mhom", "homogenize"], {}),
    (["mhom", "homogenize"], []),
    (["invariants"], {"kind": "permutation", "degree": 3, "generators": [5]}),
    (["facts", "show"], {"a": 1}),
    (["facts", "show"], [1]),
    (["facts", "show"], [{"group": "x"}]),
    (["facts", "show"], [{"group": "x", "field": "Q", "lower": "a", "upper": 2}]),
    (["edim", fx("klein.json"), "--facts"], [1]),
])
def test_malformed_input_is_a_parse_error(capsys, tmp_path, verb, payload):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(payload))
    code, doc = run(capsys, *verb, str(p))
    assert code == 2
    assert doc["error"] == "ParseError" and doc["detail"]


@pytest.mark.parametrize("numerator, literal", [
    ("True", "True"), ("False + x", "False"), ("x**True", "True")])
def test_mhom_bool_literal_is_a_parse_error(capsys, tmp_path, numerator, literal):
    p = tmp_path / "map.json"
    p.write_text(json.dumps({
        "source_blocks": [1], "target_blocks": [1], "numerators": [numerator],
        "source_variables": ["x"]}))
    code, doc = run(capsys, "mhom", "homogenize", str(p))
    assert code == 2
    assert doc == {"error": "ParseError",
                   "detail": f"unsupported literal {literal} (at position 0)"}


@pytest.mark.parametrize("numerators, detail", [
    # a key error has no offset in any text, so it prints none
    ("x", "map key 'numerators' must be a list of str"),
    # decimal integers only: 0x10 is the integer 0 run into the name x10
    (["0x10*x"], "bad polynomial expression: invalid syntax (at position 1)"),
])
def test_mhom_parse_error_payloads(capsys, tmp_path, numerators, detail):
    p = tmp_path / "map.json"
    p.write_text(json.dumps({
        "source_blocks": [1], "target_blocks": [1], "numerators": numerators,
        "source_variables": ["x"]}))
    code, doc = run(capsys, "mhom", "homogenize", str(p))
    assert code == 2
    assert doc == {"error": "ParseError", "detail": detail}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
@pytest.mark.parametrize("numerator, coefficient", [
    ("9^5000*x", lambda: 9 ** 5000),
    ("7" * 5000 + "*x", lambda: int("7" * 5000)),
], ids=["power", "literal"])
def test_mhom_integers_past_the_digit_limit(capsys, tmp_path, numerator,
                                            coefficient):
    # Python's str() and int() refuse these; the map is valid all the same
    p = tmp_path / "map.json"
    p.write_text(json.dumps({
        "source_blocks": [1], "target_blocks": [1], "numerators": [numerator],
        "source_variables": ["x"]}))
    code, doc = run(capsys, "mhom", "homogenize", str(p))
    assert code == 0
    text, name = doc["H"][0].split("*")
    assert name == "x" and text[0] != "0" and len(text) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(text) == coefficient()
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
@pytest.mark.parametrize("numerator, error, detail", [
    # an exponent literal past the limit is not read
    ("x^1{ones}", "ParseError",
     "bad polynomial expression: an exponent of more than {limit} digits"),
    # exponents within the limit whose sum, a degree in M, is past it
    ("x^{nines}*y^{nines}", "ValueError", "Exceeds the limit"),
], ids=["exponent", "degree"])
def test_mhom_exponents_past_the_digit_limit_are_json_errors(
        capsys, tmp_path, numerator, error, detail):
    limit = sys.get_int_max_str_digits()
    numerator = numerator.format(ones="1" * limit, nines="9" * limit)
    p = tmp_path / "map.json"
    p.write_text(json.dumps({
        "source_blocks": [2], "target_blocks": [1], "numerators": [numerator],
        "source_variables": ["x", "y"]}))
    code, doc = run(capsys, "mhom", "homogenize", str(p))
    assert code == 2
    assert doc["error"] == error
    assert doc["detail"].startswith(detail.format(limit=limit))


def test_facts_merge_show_and_conflict(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    store = tmp_path / "store.json"
    a.write_text(json.dumps([
        {"group": "fp", "field": "Q", "lower": 2, "upper": 3, "source": "x"}]))
    b.write_text(json.dumps([
        {"group": "fp", "field": "Q", "lower": 1, "upper": 2, "source": "y"}]))
    code, doc = run(capsys, "facts", "merge", str(store), str(a))
    assert code == 0 and doc["merged"] == 1
    code, doc = run(capsys, "facts", "merge", str(store), str(b))
    assert code == 0
    code, doc = run(capsys, "facts", "show", str(store))
    assert code == 0
    assert doc["facts"] == [
        {"group": "fp", "field": "Q", "lower": 2, "upper": 2,
         "source": doc["facts"][0]["source"]}]
    c = tmp_path / "c.json"
    c.write_text(json.dumps([
        {"group": "fp", "field": "Q", "lower": 4, "upper": 5, "source": "z"}]))
    code, doc = run(capsys, "facts", "merge", str(store), str(c))
    assert code == 2
    assert doc["error"] == "FactConflict"


def test_edim_with_facts_file(capsys, tmp_path):
    from edimkit.named import named_group

    fp = named_group("C2xC2").fingerprint()
    f = tmp_path / "facts.json"
    f.write_text(json.dumps([
        {"group": fp, "field": "Q", "lower": 2, "upper": 2, "source": "lit"}]))
    code, doc = run(capsys, "edim", fx("klein.json"), "--facts", str(f))
    assert code == 0 and doc["exact"]


@pytest.mark.parametrize("lower, upper", [(1.9, True), (1, 1.0), (True, 1),
                                          ("1", 1)],
                         ids=["float-and-bool", "float", "bool", "string"])
def test_fact_bounds_must_be_json_integers(capsys, tmp_path, lower, upper):
    # int() would read 1.9 as 1 and true as 1: S3 over Q would print exact 1
    from edimkit.named import named_group

    f = tmp_path / "facts.json"
    f.write_text(json.dumps([
        {"group": named_group("S3").fingerprint(), "field": "Q",
         "lower": lower, "upper": upper, "source": "lit"}]))
    store = tmp_path / "store.json"
    for argv in (["edim", fx("s3.json"), "--facts", str(f)],
                 ["facts", "merge", str(store), str(f)]):
        code, doc = run(capsys, *argv)
        assert code == 2
        assert doc == {"error": "ParseError",
                       "detail": "fact 0 has a non-integer bound"}
    assert not store.exists()


def test_empty_fact_store_computes_no_fingerprint(capsys, tmp_path, monkeypatch):
    # S3 over Q takes no character table (whose cache key is a fingerprint),
    # so every fingerprint here comes from a fact-store lookup
    from edimkit.groups import FiniteGroup
    from edimkit.named import named_group

    fp = named_group("S3").fingerprint()
    calls = []
    real = FiniteGroup.fingerprint

    def spy(g):
        calls.append(g.order)
        return real(g)

    monkeypatch.setattr(FiniteGroup, "fingerprint", spy)
    code, doc = run(capsys, "edim", fx("s3.json"))
    assert code == 0 and doc["exact"]
    assert calls == []
    f = tmp_path / "facts.json"
    f.write_text(json.dumps([
        {"group": fp, "field": "Q", "lower": 1, "upper": 1, "source": "lit"}]))
    code, doc = run(capsys, "edim", fx("s3.json"), "--facts", str(f))
    assert code == 0 and doc["exact"] and doc["lower"] == 1
    assert 6 in calls


def test_a_fact_against_the_rules_is_a_conflict(capsys, tmp_path):
    # S3 over Q is derived exactly 1, so a fact of 5 crosses it
    from edimkit.named import named_group

    f = tmp_path / "facts.json"
    f.write_text(json.dumps([
        {"group": named_group("S3").fingerprint(), "field": "Q",
         "lower": 5, "upper": 5, "source": "wrong"}]))
    code, doc = run(capsys, "edim", fx("s3.json"), "--facts", str(f))
    assert code == 2
    assert doc["error"] == "FactConflict"


def test_cache_path_and_clear(capsys, tmp_path):
    code, doc = run(capsys, "cache", "path", "--cache-dir", str(tmp_path))
    assert code == 0 and doc["cache_dir"] == str(tmp_path)
    code, _ = run(capsys, "chartab", fx("s4.json"), "--cache-dir", str(tmp_path))
    assert code == 0
    assert list(tmp_path.glob("chartab_*.json"))
    code, doc = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0 and doc["removed"] == 1
    assert not list(tmp_path.glob("chartab_*.json"))


def test_output_is_deterministic(capsys):
    out = []
    for _ in range(2):
        code = main(["edim", fx("q8xc3.json"), "--field", "Q(zeta_12)"])
        assert code == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    # compact: single line, no spaces after separators
    assert out[0].count("\n") == 1
    assert ": " not in out[0].split('"trace"')[0]


def test_pretty_flag(capsys):
    code = main(["edim", fx("klein.json"), "--pretty"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("{\n")
    assert json.loads(out)["exact"] is True


def test_version_and_bad_verb(capsys):
    assert main(["--version"]) == 0
    assert main(["no-such-verb"]) == 2
    capsys.readouterr()


# usage and error text of help and malformed command lines, with exit codes:
# building only the named verb's subparser must not change any of it.  The
# text is CPython 3.11's argparse wording at 80 columns.
PARSE_GOLDEN = [
    (["edim", "x.json", "--bogus"], 2,
     "",
     "usage: edimkit [-h] [--version]\n"
     "               {invariants,chartab,rdim,edim,covdim,mhom,facts,cache} ...\n"
     "edimkit: error: unrecognized arguments: --bogus\n"),
    ([], 2,
     "",
     "usage: edimkit [-h] [--version]\n"
     "               {invariants,chartab,rdim,edim,covdim,mhom,facts,cache} ...\n"
     "edimkit: error: the following arguments are required: verb\n"),
    (["-h"], 0,
     "usage: edimkit [-h] [--version]\n"
     "               {invariants,chartab,rdim,edim,covdim,mhom,facts,cache} ...\n"
     "\n"
     "exact representation invariants and essential-dimension bounds for finite\n"
     "groups\n"
     "\n"
     "positional arguments:\n"
     "  {invariants,chartab,rdim,edim,covdim,mhom,facts,cache}\n"
     "    invariants          structural invariants of a group\n"
     "    chartab             exact character table\n"
     "    rdim                minimal faithful representation dimension\n"
     "    edim                essential-dimension interval\n"
     "    covdim              covariant-dimension interval\n"
     "    mhom                multihomogenization of a graded map\n"
     "    facts               manage a facts store\n"
     "    cache               character-table cache admin\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --version             show program's version number and exit\n",
     ""),
    (["bogus"], 2,
     "",
     "usage: edimkit [-h] [--version]\n"
     "               {invariants,chartab,rdim,edim,covdim,mhom,facts,cache} ...\n"
     "edimkit: error: argument verb: invalid choice: 'bogus' (choose from 'invariants', 'chartab', 'rdim', 'edim', 'covdim', 'mhom', 'facts', 'cache')\n"),
    (["edim"], 2,
     "",
     "usage: edimkit edim [-h] [--field FIELD] [--pretty] [--facts FACTS]\n"
     "                    [--subgroups {cyclic,all}]\n"
     "                    group\n"
     "edimkit edim: error: the following arguments are required: group\n"),
    (["mhom", "nope", "f"], 2,
     "",
     "usage: edimkit mhom [-h] [--lambda LAM] [--pretty] {homogenize} file\n"
     "edimkit mhom: error: argument action: invalid choice: 'nope' (choose from 'homogenize')\n"),
    (["--version"], 0,
     edimkit.__version__ + "\n",
     ""),
    (["chartab", "--help"], 0,
     "usage: edimkit chartab [-h] [--full] [--cache-dir CACHE_DIR] [--no-cache]\n"
     "                       [--pretty]\n"
     "                       group\n"
     "\n"
     "positional arguments:\n"
     "  group\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --full                include all values\n"
     "  --cache-dir CACHE_DIR\n"
     "  --no-cache\n"
     "  --pretty\n",
     ""),
    (["edim", "x", "--subgroups", "z"], 2,
     "",
     "usage: edimkit edim [-h] [--field FIELD] [--pretty] [--facts FACTS]\n"
     "                    [--subgroups {cyclic,all}]\n"
     "                    group\n"
     "edimkit edim: error: argument --subgroups: invalid choice: 'z' (choose from 'cyclic', 'all')\n"),
    (["rdim", "a", "b", "c"], 2,
     "",
     "usage: edimkit [-h] [--version]\n"
     "               {invariants,chartab,rdim,edim,covdim,mhom,facts,cache} ...\n"
     "edimkit: error: unrecognized arguments: b c\n"),
    (["cache", "path", "--cache-dir"], 2,
     "",
     "usage: edimkit cache [-h] [--cache-dir CACHE_DIR] [--pretty] {path,clear}\n"
     "edimkit cache: error: argument --cache-dir: expected one argument\n"),
    (["-x"], 2,
     "",
     "usage: edimkit [-h] [--version]\n"
     "               {invariants,chartab,rdim,edim,covdim,mhom,facts,cache} ...\n"
     "edimkit: error: the following arguments are required: verb\n"),
    (["--pretty", "edim", "x"], 2,
     "",
     "usage: edimkit [-h] [--version]\n"
     "               {invariants,chartab,rdim,edim,covdim,mhom,facts,cache} ...\n"
     "edimkit: error: unrecognized arguments: --pretty\n"),
    (["facts", "merge"], 2,
     "",
     "usage: edimkit facts [-h] [--pretty] {merge,show} store [new]\n"
     "edimkit facts: error: the following arguments are required: store\n"),
]


def _parse_outcome(capsys, call):
    code = call()
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse wording differs between Python versions")
@pytest.mark.parametrize("argv, code, out, err", PARSE_GOLDEN,
                         ids=[" ".join(a) or "(none)" for a, *_ in PARSE_GOLDEN])
def test_parse_errors_and_help_are_golden(capsys, monkeypatch, argv, code,
                                          out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_outcome(capsys, lambda: main(argv)) == (code, out, err)


def _full_tree(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0


@pytest.mark.parametrize("argv", [a for a, *_ in PARSE_GOLDEN],
                         ids=[" ".join(a) or "(none)" for a, *_ in PARSE_GOLDEN])
def test_parse_errors_and_help_match_the_full_tree(capsys, monkeypatch, argv):
    # on any Python: main, which builds one verb's subparser when argv names
    # a verb, prints what the parser with every verb prints
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_outcome(capsys, lambda: main(argv)) == \
        _parse_outcome(capsys, lambda: _full_tree(argv))


def test_console_entry_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["edimkit", "edim", fx("klein.json")])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["exact"] is True
    monkeypatch.setattr(sys, "argv", ["edimkit", "edim"])
    assert main() == 2
    assert "required: group" in capsys.readouterr().err



# exact stdout, byte for byte: it changes if the row order or the conversion of
# the tables to tensor-basis coefficients drifts
GOLDEN = [
    (["chartab", "q8.json", "--full", "--no-cache"], (
        '{"class_sizes":[1,2,1,2,2],"conductor":4,"degrees":[1,1,1,1,2],"'
        'n_classes":5,"order":8,"values":[[{"0":"1/1"},{"0":"-1/1"},{"0":'
        '"1/1"},{"0":"-1/1"},{"0":"1/1"}],[{"0":"1/1"},{"0":"-1/1"},{"0":'
        '"1/1"},{"0":"1/1"},{"0":"-1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"'
        '1/1"},{"0":"-1/1"},{"0":"-1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"'
        '1/1"},{"0":"1/1"},{"0":"1/1"}],[{"0":"2/1"},{},{"0":"-2/1"},{},{'
        '}]]}')),
    (["chartab", "heis3.json", "--full", "--no-cache"], (
        '{"class_sizes":[1,1,1,3,3,3,3,3,3,3,3],"conductor":3,"degrees":['
        '1,1,1,1,1,1,1,1,1,3,3],"n_classes":11,"order":27,"values":[[{"0"'
        ':"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1","1":"-1/1"},{"1":"1/'
        '1"},{"0":"-1/1","1":"-1/1"},{"1":"1/1"},{"0":"1/1"},{"1":"1/1"},'
        '{"0":"1/1"},{"0":"-1/1","1":"-1/1"}],[{"0":"1/1"},{"0":"1/1"},{"'
        '0":"1/1"},{"0":"-1/1","1":"-1/1"},{"1":"1/1"},{"0":"1/1"},{"0":"'
        '-1/1","1":"-1/1"},{"1":"1/1"},{"0":"1/1"},{"0":"-1/1","1":"-1/1"'
        '},{"1":"1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1",'
        '"1":"-1/1"},{"1":"1/1"},{"1":"1/1"},{"0":"1/1"},{"0":"-1/1","1":'
        '"-1/1"},{"0":"-1/1","1":"-1/1"},{"1":"1/1"},{"0":"1/1"}],[{"0":"'
        '1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1'
        '","1":"-1/1"},{"0":"-1/1","1":"-1/1"},{"0":"-1/1","1":"-1/1"},{"'
        '1":"1/1"},{"1":"1/1"},{"1":"1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0"'
        ':"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/'
        '1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"}],[{"0":"1/1"},{"0":"1/1"'
        '},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"1":"1/1"},{"1":"1/1"},{"'
        '1":"1/1"},{"0":"-1/1","1":"-1/1"},{"0":"-1/1","1":"-1/1"},{"0":"'
        '-1/1","1":"-1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"1":"1/'
        '1"},{"0":"-1/1","1":"-1/1"},{"0":"-1/1","1":"-1/1"},{"0":"1/1"},'
        '{"1":"1/1"},{"1":"1/1"},{"0":"-1/1","1":"-1/1"},{"0":"1/1"}],[{"'
        '0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"1":"1/1"},{"0":"-1/1","1":"-'
        '1/1"},{"0":"1/1"},{"1":"1/1"},{"0":"-1/1","1":"-1/1"},{"0":"1/1"'
        '},{"1":"1/1"},{"0":"-1/1","1":"-1/1"}],[{"0":"1/1"},{"0":"1/1"},'
        '{"0":"1/1"},{"1":"1/1"},{"0":"-1/1","1":"-1/1"},{"1":"1/1"},{"0"'
        ':"-1/1","1":"-1/1"},{"0":"1/1"},{"0":"-1/1","1":"-1/1"},{"0":"1/'
        '1"},{"1":"1/1"}],[{"0":"3/1"},{"0":"-3/1","1":"-3/1"},{"1":"3/1"'
        '},{},{},{},{},{},{},{},{}],[{"0":"3/1"},{"1":"3/1"},{"0":"-3/1",'
        '"1":"-3/1"},{},{},{},{},{},{},{},{}]]}')),
    (["chartab", "q8xc3.json", "--full", "--no-cache"], (
        '{"class_sizes":[1,1,1,2,2,2,1,1,1,2,2,2,2,2,2],"conductor":12,"d'
        'egrees":[1,1,1,1,1,1,1,1,1,1,1,1,2,2,2],"n_classes":15,"order":2'
        '4,"values":[[{"0":"1/1"},{"0":"-1/1","4":"-1/1"},{"4":"1/1"},{"0'
        '":"-1/1"},{"0":"1/1","4":"1/1"},{"4":"-1/1"},{"0":"1/1"},{"0":"-'
        '1/1","4":"-1/1"},{"4":"1/1"},{"0":"-1/1"},{"0":"1/1","4":"1/1"},'
        '{"4":"-1/1"},{"0":"1/1"},{"0":"-1/1","4":"-1/1"},{"4":"1/1"}],[{'
        '"0":"1/1"},{"0":"-1/1","4":"-1/1"},{"4":"1/1"},{"0":"-1/1"},{"0"'
        ':"1/1","4":"1/1"},{"4":"-1/1"},{"0":"1/1"},{"0":"-1/1","4":"-1/1'
        '"},{"4":"1/1"},{"0":"1/1"},{"0":"-1/1","4":"-1/1"},{"4":"1/1"},{'
        '"0":"-1/1"},{"0":"1/1","4":"1/1"},{"4":"-1/1"}],[{"0":"1/1"},{"0'
        '":"-1/1","4":"-1/1"},{"4":"1/1"},{"0":"1/1"},{"0":"-1/1","4":"-1'
        '/1"},{"4":"1/1"},{"0":"1/1"},{"0":"-1/1","4":"-1/1"},{"4":"1/1"}'
        ',{"0":"-1/1"},{"0":"1/1","4":"1/1"},{"4":"-1/1"},{"0":"-1/1"},{"'
        '0":"1/1","4":"1/1"},{"4":"-1/1"}],[{"0":"1/1"},{"0":"-1/1","4":"'
        '-1/1"},{"4":"1/1"},{"0":"1/1"},{"0":"-1/1","4":"-1/1"},{"4":"1/1'
        '"},{"0":"1/1"},{"0":"-1/1","4":"-1/1"},{"4":"1/1"},{"0":"1/1"},{'
        '"0":"-1/1","4":"-1/1"},{"4":"1/1"},{"0":"1/1"},{"0":"-1/1","4":"'
        '-1/1"},{"4":"1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-'
        '1/1"},{"0":"-1/1"},{"0":"-1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/'
        '1"},{"0":"-1/1"},{"0":"-1/1"},{"0":"-1/1"},{"0":"1/1"},{"0":"1/1'
        '"},{"0":"1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1"'
        '},{"0":"-1/1"},{"0":"-1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},'
        '{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1"},{"0":"-1/1"},{"'
        '0":"-1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0'
        '":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-'
        '1/1"},{"0":"-1/1"},{"0":"-1/1"},{"0":"-1/1"},{"0":"-1/1"},{"0":"'
        '-1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1'
        '/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"}'
        ',{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"}],[{'
        '"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1/1"},{"0":"-1/1"},{"4"'
        ':"-1/1"},{"0":"1/1","4":"1/1"},{"0":"1/1"},{"4":"1/1"},{"0":"-1/'
        '1","4":"-1/1"},{"0":"-1/1"},{"4":"-1/1"},{"0":"1/1","4":"1/1"},{'
        '"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1/1"}],[{"0":"1/1"},{"4'
        '":"1/1"},{"0":"-1/1","4":"-1/1"},{"0":"-1/1"},{"4":"-1/1"},{"0":'
        '"1/1","4":"1/1"},{"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1/1"}'
        ',{"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1/1"},{"0":"-1/1"},{"'
        '4":"-1/1"},{"0":"1/1","4":"1/1"}],[{"0":"1/1"},{"4":"1/1"},{"0":'
        '"-1/1","4":"-1/1"},{"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1/1'
        '"},{"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1/1"},{"0":"-1/1"},'
        '{"4":"-1/1"},{"0":"1/1","4":"1/1"},{"0":"-1/1"},{"4":"-1/1"},{"0'
        '":"1/1","4":"1/1"}],[{"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1'
        '/1"},{"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1/1"},{"0":"1/1"}'
        ',{"4":"1/1"},{"0":"-1/1","4":"-1/1"},{"0":"1/1"},{"4":"1/1"},{"0'
        '":"-1/1","4":"-1/1"},{"0":"1/1"},{"4":"1/1"},{"0":"-1/1","4":"-1'
        '/1"}],[{"0":"2/1"},{"0":"-2/1","4":"-2/1"},{"4":"2/1"},{},{},{},'
        '{"0":"-2/1"},{"0":"2/1","4":"2/1"},{"4":"-2/1"},{},{},{},{},{},{'
        '}],[{"0":"2/1"},{"0":"2/1"},{"0":"2/1"},{},{},{},{"0":"-2/1"},{"'
        '0":"-2/1"},{"0":"-2/1"},{},{},{},{},{},{}],[{"0":"2/1"},{"4":"2/'
        '1"},{"0":"-2/1","4":"-2/1"},{},{},{},{"0":"-2/1"},{"4":"-2/1"},{'
        '"0":"2/1","4":"2/1"},{},{},{},{},{},{}]]}')),
    # conductor 30: three primes, so components expand into p - 1 terms
    (["chartab", "d5xs3.json", "--full", "--no-cache"], (
        '{"class_sizes":[1,3,2,2,6,4,5,15,10,2,6,4],"conductor":30,"degrees'
        '":[1,1,1,1,2,2,2,2,2,2,4,4],"n_classes":12,"order":60,"values":[[{'
        '"0":"1/1"},{"0":"-1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1"},{"0":'
        '"1/1"},{"0":"-1/1"},{"0":"1/1"},{"0":"-1/1"},{"0":"1/1"},{"0":"-1/'
        '1"},{"0":"1/1"}],[{"0":"1/1"},{"0":"-1/1"},{"0":"1/1"},{"0":"1/1"}'
        ',{"0":"-1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1"},{"0":"1/1"},{"0'
        '":"1/1"},{"0":"-1/1"},{"0":"1/1"}],[{"0":"1/1"},{"0":"1/1"},{"0":"'
        '1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"-1/1"},{"0":"-1/1"'
        '},{"0":"-1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"}],[{"0":"1/1"},{'
        '"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1'
        '/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"},{"0":"1/1"}],'
        '[{"0":"2/1"},{},{"0":"-1/1"},{"0":"2/1"},{},{"0":"-1/1"},{"0":"-2/'
        '1"},{},{"0":"1/1"},{"0":"2/1"},{},{"0":"-1/1"}],[{"0":"2/1"},{},{"'
        '0":"-1/1"},{"0":"2/1"},{},{"0":"-1/1"},{"0":"2/1"},{},{"0":"-1/1"}'
        ',{"0":"2/1"},{},{"0":"-1/1"}],[{"0":"2/1"},{"0":"-2/1"},{"0":"2/1"'
        '},{"0":"-1/1","12":"-1/1","18":"-1/1"},{"0":"1/1","12":"1/1","18":'
        '"1/1"},{"0":"-1/1","12":"-1/1","18":"-1/1"},{},{},{},{"12":"1/1","'
        '18":"1/1"},{"12":"-1/1","18":"-1/1"},{"12":"1/1","18":"1/1"}],[{"0'
        '":"2/1"},{"0":"-2/1"},{"0":"2/1"},{"12":"1/1","18":"1/1"},{"12":"-'
        '1/1","18":"-1/1"},{"12":"1/1","18":"1/1"},{},{},{},{"0":"-1/1","12'
        '":"-1/1","18":"-1/1"},{"0":"1/1","12":"1/1","18":"1/1"},{"0":"-1/1'
        '","12":"-1/1","18":"-1/1"}],[{"0":"2/1"},{"0":"2/1"},{"0":"2/1"},{'
        '"0":"-1/1","12":"-1/1","18":"-1/1"},{"0":"-1/1","12":"-1/1","18":"'
        '-1/1"},{"0":"-1/1","12":"-1/1","18":"-1/1"},{},{},{},{"12":"1/1","'
        '18":"1/1"},{"12":"1/1","18":"1/1"},{"12":"1/1","18":"1/1"}],[{"0":'
        '"2/1"},{"0":"2/1"},{"0":"2/1"},{"12":"1/1","18":"1/1"},{"12":"1/1"'
        ',"18":"1/1"},{"12":"1/1","18":"1/1"},{},{},{},{"0":"-1/1","12":"-1'
        '/1","18":"-1/1"},{"0":"-1/1","12":"-1/1","18":"-1/1"},{"0":"-1/1",'
        '"12":"-1/1","18":"-1/1"}],[{"0":"4/1"},{},{"0":"-2/1"},{"0":"-2/1"'
        ',"12":"-2/1","18":"-2/1"},{},{"0":"1/1","12":"1/1","18":"1/1"},{},'
        '{},{},{"12":"2/1","18":"2/1"},{},{"12":"-1/1","18":"-1/1"}],[{"0":'
        '"4/1"},{},{"0":"-2/1"},{"12":"2/1","18":"2/1"},{},{"12":"-1/1","18'
        '":"-1/1"},{},{},{},{"0":"-2/1","12":"-2/1","18":"-2/1"},{},{"0":"1'
        '/1","12":"1/1","18":"1/1"}]]}')),
    (["rdim", "q8xc3.json", "--field", "Q(zeta_12)"], (
        '{"component_rows":[12],"dimension_vector":[2],"path":"B","value"'
        ':2}')),
    # groups above TABLE_LIMIT: a permutation group and a direct product
    (["invariants", "agl1_67.json"], (
        '{"abelian":false,"center_order":1,"commutator_order":67,"exponent'
        '":4422,"feet":[67],"field":"Q","fingerprint":"4422:dd195caa440724'
        '39","k_center_order":1,"k_center_rank":0,"n_classes":67,"order":4'
        '422,"semi_faithful":true,"socle_abelian":true,"socle_central":fal'
        'se,"socle_order":67,"supports_splitting":false}')),
    (["invariants", "s5xa5.json"], (
        '{"abelian":false,"center_order":1,"commutator_order":3600,"expone'
        'nt":60,"feet":[60,60],"field":"Q","fingerprint":"7200:d3cb39e9f8b'
        '8fff9","k_center_order":1,"k_center_rank":0,"n_classes":35,"order'
        '":7200,"semi_faithful":true,"socle_abelian":false,"socle_central"'
        ':false,"socle_order":3600,"supports_splitting":false}')),
]

# golden groups that are not shipped fixtures, written out by the test
GOLDEN_SPECS = {
    "agl1_67.json": {"kind": "permutation", "degree": 67,
                     "generators": [[2 * x % 67 for x in range(67)],
                                    [(x + 1) % 67 for x in range(67)]]},
    "s5xa5.json": {"kind": "named", "name": "S5xA5"},
    "d5xs3.json": {"kind": "named", "name": "D5xS3"},
}


@pytest.mark.parametrize("argv, expected", GOLDEN,
                         ids=[f"{argv[0]}-{argv[1]}" for argv, _ in GOLDEN])
def test_golden_output(capsys, tmp_path, argv, expected):
    path = fx(argv[1])
    if argv[1] in GOLDEN_SPECS:
        path = tmp_path / argv[1]
        path.write_text(json.dumps(GOLDEN_SPECS[argv[1]]))
    assert main([argv[0], str(path), *argv[2:]]) == 0
    assert capsys.readouterr().out == expected + "\n"
