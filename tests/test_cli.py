"""Command-line interface: verbs, exit codes, determinism, JSON shape."""

import json
import os
import time

import pytest

import edimkit
from edimkit.cli import main

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

    fp = named_group("C2xC2").fingerprint(with_generators=False)
    f = tmp_path / "facts.json"
    f.write_text(json.dumps([
        {"group": fp, "field": "Q", "lower": 2, "upper": 2, "source": "lit"}]))
    code, doc = run(capsys, "edim", fx("klein.json"), "--facts", str(f))
    assert code == 0 and doc["exact"]


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
