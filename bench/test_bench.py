"""Tests of the benchmark itself: every output check accepts a genuine
output and rejects a corrupted one, the tracer reports every per-layer
metric and restores what it wrapped, and BENCHMARK.json names exactly the
metrics the runner prints.

Run from the root of a checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import finite  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SC = run.load_program(ROOT)


def _cli(tmp_path, argv_tail, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return workloads.run_cli(SC, argv_tail)


def _rng():
    return random.Random(7)


# -- forward -------------------------------------------------------------------

@pytest.fixture(scope="module")
def forward_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fwd")
    images = [[1], [-2]]
    b = {"op": "pullback", "images": images, "region": "lex_nonneg"}
    a = {"op": "union", "args": [{"op": "complement", "arg": b}, {"op": "identity"}]}
    (tmp / "a.json").write_text(json.dumps(a))
    (tmp / "b.json").write_text(json.dumps(b))
    code, text = workloads.run_cli(SC, ["witness", "--model", "heisenberg", "--A",
                                        str(tmp / "a.json"), "--B", str(tmp / "b.json"),
                                        "--radius", "3"])
    meta = {"model": "heisenberg", "images": images, "radius": 3}
    return meta, code, text


def _walk(spec, fn):
    fn(spec)
    for child in spec.get("args", []) + ([spec["arg"]] if "arg" in spec else []):
        _walk(child, fn)


def test_forward_accepts_genuine_witness(forward_case):
    assert checks.check_forward(*forward_case, _rng()) == []


def test_forward_rejects_flipped_cone_region(forward_case):
    meta, code, text = forward_case
    report = json.loads(text)
    flips = {"lex_nonneg": "lex_pos", "lex_pos": "lex_nonneg"}

    def flip(node):
        if node.get("op") == "pullback":
            node["region"] = flips.get(node["region"], node["region"])

    _walk(report["witness"]["cone"], flip)
    assert checks.check_forward(meta, code, json.dumps(report), _rng())


def test_forward_rejects_wrong_kernel_failed_verdict_and_exit_code(forward_case):
    meta, code, text = forward_case
    report = json.loads(text)
    report["witness"]["kernel"] = {"op": "identity"}
    assert checks.check_forward(meta, code, json.dumps(report), _rng())
    report = json.loads(text)
    report["verdicts"]["cone_covers"]["status"] = "counterexample"
    assert checks.check_forward(meta, code, json.dumps(report), _rng())
    assert checks.check_forward(meta, 1, text, _rng())


# -- lemmas --------------------------------------------------------------------

@pytest.fixture(scope="module")
def lemma_case():
    images = [[1, 0], [1, 2]]
    moved = checks.MODELS["free:2"].to_program((1,))
    code, text = workloads.lemma_request(SC, "free:2", images, 3, moved)
    return {"model": "free:2", "images": images, "radius": 3}, code, text


def test_lemmas_accepts_genuine_battery(lemma_case):
    assert checks.check_lemmas(*lemma_case, _rng()) == []


def test_lemmas_rejects_uncaught_fault(lemma_case):
    meta, code, text = lemma_case
    out = json.loads(text)
    for v in list(out["fault"]["verdicts"].values()) + [out["fault"]["coset_saturation"]]:
        v["status"] = "verified"
        v.pop("witness", None)
        v.pop("note", None)
    assert "faulty copy not reported" in checks.check_lemmas(meta, code, json.dumps(out), _rng())


def test_lemmas_rejects_witness_that_breaks_nothing(lemma_case):
    meta, code, text = lemma_case
    out = json.loads(text)
    verdict = out["fault"]["verdicts"]["closed_B"]
    assert verdict["status"] == "counterexample"
    verdict["witness"] = ["1", "1"]
    assert checks.check_lemmas(meta, code, json.dumps(out), _rng())


def test_lemmas_rejects_flipped_reduced_side(lemma_case):
    meta, code, text = lemma_case
    out = json.loads(text)
    _walk(out["reduced"]["B"], lambda n: n.update(region="lex_pos")
          if n.get("op") == "pullback" else None)
    assert checks.check_lemmas(meta, code, json.dumps(out), _rng())


def test_lemmas_accepts_exact_verdicts(lemma_case):
    meta, code, text = lemma_case
    out = json.loads(text)
    for part in ("pullback", "reduced_verdicts"):
        for v in out[part].values():
            v["radius_checked"] = 0
    assert checks.check_lemmas(meta, code, json.dumps(out), _rng()) == []


# -- finite --------------------------------------------------------------------

@pytest.fixture(scope="module")
def finite_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fin")
    path = tmp / "D4.tbl"
    path.write_text(finite.table_text(finite.cayley_table("D4", random.Random(3))))
    code, text = workloads.run_cli(SC, ["sigma", "--table", str(path), "--exhaustive",
                                        "--cap", "16"])
    return {"group": "D4"}, code, text


def _finite_check(meta, code, text):
    return checks.check_finite(meta, code, text, _rng(), facts=finite.FACTS)


def test_finite_accepts_genuine_report(finite_case):
    assert _finite_check(*finite_case) == []


@pytest.mark.parametrize("path, delta", [
    (("sigma_g",), 1), (("sigma_s",), -1), (("census", "closed_subsets"), 1),
    (("two_cover_search", "pairs_checked"), 1),
])
def test_finite_rejects_count_off_by_one(finite_case, path, delta):
    meta, code, text = finite_case
    report = json.loads(text)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    assert _finite_check(meta, code, json.dumps(report))


def test_finite_accepts_pruned_pair_search(finite_case):
    meta, code, text = finite_case
    report = json.loads(text)
    report["two_cover_search"]["pairs_checked"] = 0
    assert _finite_check(meta, code, json.dumps(report)) == []


def test_finite_rejects_reported_cover(finite_case):
    meta, code, text = finite_case
    report = json.loads(text)
    report["two_cover_search"]["covers_found"] = [[[0, 1, 2, 3], [0, 4, 5, 6, 7]]]
    assert _finite_check(meta, code, json.dumps(report))


def test_finite_facts_match_brute_force():
    for name, (order, n_subgroups, sigma) in finite.FACTS.items():
        table = finite.cayley_table(name, random.Random(name))
        assert len(table) == order, name
        assert len(finite.subgroups(table)) == n_subgroups, name
        assert finite.covering_number(table) == sigma, name


# -- backward ------------------------------------------------------------------

@pytest.fixture(scope="module", params=[[[2, -4, 6]], [[2, -4, 6], [1, 1, 3], [0, 3, -1], [5, 0, 2]]])
def backward_case(request, tmp_path_factory):
    rows = request.param
    tmp = tmp_path_factory.mktemp("bwd")
    lines = ["gens: a b c"] + ["rel: " + "".join(f"{g}^{e}" for g, e in zip("abc", row) if e)
                               for row in rows]
    (tmp / "p.fp").write_text("\n".join(lines) + "\n")
    code, text = workloads.run_cli(SC, ["analyze", "--presentation", str(tmp / "p.fp"),
                                        "--radius", "3"])
    return {"rows": rows, "n": 3, "radius": 3}, code, text


def test_backward_accepts_genuine_report(backward_case):
    assert checks.check_backward(*backward_case, _rng()) == []


def test_backward_accepts_exact_verdicts(backward_case):
    meta, code, text = backward_case
    report = json.loads(text)
    for v in [report["verdict"], *report.get("cover_certificate", {}).get("verdicts", {}).values()]:
        v["radius_checked"] = 0
    assert checks.check_backward(meta, code, json.dumps(report), _rng()) == []


def test_backward_rejects_perturbed_diagonal(backward_case):
    meta, code, text = backward_case
    report = json.loads(text)
    report["snf_diagonal"][0] += 1
    assert checks.check_backward(meta, code, json.dumps(report), _rng())


def test_backward_rejects_surjection_that_keeps_a_relator():
    meta = {"rows": [[2, -4, 6]], "n": 3, "radius": 3}
    report = {"exponent_matrix": [[2, -4, 6]], "snf_diagonal": [2], "free_rank": 2,
              "torsion": [2], "z_surjection": [[1, 0], [0, 1], [0, 0]],
              "verdict": {"status": "verified", "radius_checked": 3},
              "cover_certificate": {"verdicts": {"covers": {"status": "verified",
                                                            "radius_checked": 3}}}}
    problems = checks.check_backward(meta, 0, json.dumps(report), _rng())
    assert any("does not map to 0" in p for p in problems)


# -- tracing and the benchmark's declaration ---------------------------------

def test_tracer_reports_every_layer_metric_and_restores(tmp_path):
    cli_main = SC.cli.main
    ball = SC.groups.GroupModel.ball
    reqs = workloads.forward(SC, random.Random(1), tmp_path)[:2]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for req in reqs:
            tracer.begin_request(1.0)
            code, _ = req.run()
            assert code == 0
    finally:
        tracer.uninstall()
    assert SC.cli.main is cli_main and SC.groups.GroupModel.ball is ball
    assert SC.orders.validate_witness is SC.covers.validate_witness
    metrics = tracer.metrics(report_bytes=1000, overhead_ratio=1.5)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["cli.main.s"]["value"] > 0
    assert metrics["orders.validate_witness.calls"]["value"] == 2
    assert metrics["cones.member.calls"]["value"] > 0


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "finite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
