"""The benchmark's own tests: python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_queries_are_answered_correctly(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("EDIMKIT_CACHE", str(tmp_path / "cache"))
    (tmp_path / "cold").mkdir()
    (tmp_path / "inputs").mkdir()
    queries = [q for q in workloads.build(workload, 7, tmp_path / "inputs",
                                          EXPECTED)
               if q["id"] in workloads.SMOKE[workload]]

    cli = run._import_edimkit()
    records, _ = run.run_passes(cli, queries, {}, workload, 7, 0, tmp_path,
                                EXPECTED["factors"])
    runs = [qid for qid, _, _, _ in records]
    assert sorted(set(runs)) == sorted(workloads.SMOKE[workload])
    assert min(runs.count(qid) for qid in set(runs)) >= run.MIN_PASSES
    assert [why for _, _, _, why in records] == [None] * len(records)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_presentation_not_queries(workload, tmp_path):
    built = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        d.mkdir()
        queries = workloads.build(workload, seed, d, EXPECTED)
        built.append(([(q["id"], q["expect"]) for q in queries],
                      sorted(p.read_text() for p in d.iterdir())))
    assert built[0][0] == built[1][0]
    assert built[0][1] != built[1][1]


def test_wrong_answers_are_failures():
    s4 = {"id": "S4", "expect": {"structure": EXPECTED["structure"]["S4"]}}
    good = dict(EXPECTED["structure"]["S4"], field="Q", semi_faithful=True)
    assert check.verdict(s4, 0, json.dumps(good), {}) is None
    assert check.verdict(s4, 0, json.dumps(dict(good, socle_order=2)), {})
    assert check.verdict(s4, 2, json.dumps({"error": "ParseError"}), {})

    r8 = {"id": "r8_S4xS4", "expect": {"engine": EXPECTED["engine"]["r8_S4xS4"]}}
    interval = {"lower": 1, "upper": 4, "exact": False, "field": "Q", "trace": []}
    assert check.verdict(r8, 0, json.dumps(interval), {}) is None
    assert check.verdict(r8, 0, json.dumps(dict(interval, upper=3)), {})

    oos = {"id": "oos", "expect": {"engine": {"out_of_scope": True}}}
    assert check.verdict(oos, 3, json.dumps({"error": "out_of_scope"}), {}) is None
    assert check.verdict(oos, 0, json.dumps({"value": 2}), {})


def test_character_table_check_catches_a_wrong_value():
    factors = {"S3": EXPECTED["factors"]["S3"]}
    q = {"id": "S3", "expect": {"chartab": ["S3"]}}
    one = {"0": "1/1"}
    table = {"order": 6, "n_classes": 3, "conductor": 6,
             "degrees": [1, 1, 2], "class_sizes": [1, 2, 3],
             "values": [[one, one, one], [one, one, {"0": "-1/1"}],
                        [{"0": "2/1"}, {"0": "-1/1"}, {}]]}
    assert check.verdict(q, 0, json.dumps(table), factors) is None
    table["values"][2][1] = {"0": "1/1"}
    assert check.verdict(q, 0, json.dumps(table), factors)


def test_tracer_rebinds_every_import_site_and_restores():
    cli = run._import_edimkit()
    engine = sys.modules["edimkit.engine"]
    repdim = sys.modules["edimkit.repdim"]
    originals = (repdim.rdim, engine.rdim, cli.rdim)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert repdim.rdim is engine.rdim is cli.rdim
        assert repdim.rdim is not originals[0]
    finally:
        tracer.uninstall()
    assert (repdim.rdim, engine.rdim, cli.rdim) == originals


def test_tail_percentile_leaves_ten_samples():
    for n in (5, 20, 41, 240):
        p = run.tail_percentile(n)
        assert n - run.math.ceil(p / 100 * n) >= 10 or p == 50.0
    assert [run.tail_percentile(n) for n in (41, 240)] == [75.0, 95.0]


def test_tail_mean_averages_the_values_beyond_the_percentile():
    values = list(range(1, 41))   # p75 is the 30th value
    assert run.tail_mean(values, 75.0) == sum(range(31, 41)) / 10


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mhom-maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
