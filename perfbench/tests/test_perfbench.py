"""Self-tests of the benchmark's gates, seeding and spans.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chebsqrt import iterates  # noqa: E402
from chebsqrt.exact import Polynomial, RationalFunction  # noqa: E402
from chebsqrt.iterates import Scheme  # noqa: E402
from mpmath import mpf, workprec  # noqa: E402


@pytest.fixture
def small_build(monkeypatch):
    """A build workload small enough for a unit test, with composition pairs."""
    monkeypatch.setattr(workloads, "BUILD_V_MAX", 8)
    monkeypatch.setattr(workloads, "BUILD_SCHEMES", ((Scheme.newton(2), 3), (Scheme.halley(2), 2)))
    outputs = workloads.build_timed(workloads.build_setup(0), workloads.PassResult())
    return outputs, {"build_digests": workloads.build_digests(outputs)}


def test_build_gate_passes_on_unchanged_outputs(small_build):
    outputs, reference = small_build
    res = workloads.PassResult()
    workloads.build_check(None, outputs, reference, res)
    assert res.failed == 0 and not res.mismatches


def test_build_gate_flags_one_perturbed_coefficient(small_build):
    outputs, reference = small_build
    f = outputs["chain"][5]  # v_5 is no Newton or Halley index, so only the digest can see it
    num = list(f.num.coeffs)
    num[0] += Fraction(1, 2**40)
    outputs["chain"][5] = RationalFunction(Polynomial(num), f.den)
    res = workloads.PassResult()
    workloads.build_check(None, outputs, reference, res)
    assert res.failed == 1
    assert res.mismatches[0].startswith("v_5:")


def test_build_gate_flags_a_broken_composition(small_build):
    outputs, reference = small_build
    outputs["chain"][3] = outputs["chain"][4]  # newton(2) k = 2 must equal v_3
    res = workloads.PassResult()
    workloads.build_check(None, outputs, reference, res)
    assert any("!= v_3" in m for m in res.mismatches)


@pytest.fixture
def small_eval(monkeypatch):
    monkeypatch.setattr(workloads, "EVAL_NS", (8, 9))
    monkeypatch.setattr(workloads, "EVAL_POINTS", 6)
    state = workloads.eval_setup(7)
    return state, workloads.eval_timed(state, workloads.PassResult())


def test_eval_exact_values_match_the_direct_form(small_eval):
    state, outputs = small_eval
    res = workloads.PassResult()
    workloads.eval_check(state, outputs, {}, res)
    assert res.failed == 0
    margins = res.info["margins_bits"]
    assert set(margins) == {workloads.margin_name(layer, n) for n in (8, 9)
                            for layer in workloads.MARGIN_LAYERS}
    assert min(margins.values()) > 0


def test_eval_deviation_above_tolerance_is_a_failed_operation(small_eval):
    state, outputs = small_eval
    ex, hv, pv = outputs[0][2]
    with workprec(workloads.EVAL_WORK):
        outputs[0][2] = (ex, hv + mpf(2) ** (workloads.EVAL_TOL_EXP + 1), pv)
    res = workloads.PassResult()
    workloads.eval_check(state, outputs, {}, res)
    assert res.failed == 1 and res.attempted == 6
    assert res.failed_ops == {"n=8 horner"}
    assert not res.mismatches  # a float miss is counted, not reported as a wrong exact value
    assert res.info["margins_bits"][workloads.margin_name("verify.float_horner", 8)] < 0


def test_eval_gate_flags_a_wrong_exact_value(small_eval):
    state, outputs = small_eval
    ex, hv, pv = outputs[1][0]
    outputs[1][0] = ((ex[0] + Fraction(1, 10**30), ex[1]), hv, pv)
    res = workloads.PassResult()
    workloads.eval_check(state, outputs, {}, res)
    assert res.failed >= 1 and res.mismatches[0].startswith("n=9")


def test_direct_form_matches_the_chain():
    for n in (1, 2, 5, 16):
        f = iterates.v_iterate(n)
        for re, im in ((Fraction(1, 3), Fraction(-2, 7)), (Fraction(-9, 10), Fraction(0))):
            assert workloads.direct_value(n, re, im) == workloads.exact.eval_ratfun_complex(f, re, im)


def test_eval_counts_strategy_runs_not_points(small_eval):
    state, outputs = small_eval
    with workprec(workloads.EVAL_WORK):
        for i, (ex, hv, pv) in enumerate(outputs[0]):  # every point of n = 8 misses
            outputs[0][i] = (ex, hv + mpf(2) ** (workloads.EVAL_TOL_EXP + 1), pv)
    res = workloads.PassResult()
    workloads.eval_check(state, outputs, {}, res)
    assert (res.attempted, res.failed) == (6, 1)
    assert res.info["float_misses"].startswith("6 of 24 ")


def test_seed_changes_eval_points_but_not_build_digest(small_build, monkeypatch):
    assert workloads.eval_points(1) != workloads.eval_points(2)
    assert workloads.eval_points(1) == workloads.eval_points(1)
    digests = []
    for seed in (1, 2):
        out = workloads.build_timed(workloads.build_setup(seed), workloads.PassResult())
        digests.append(workloads.build_digests(out))
    assert digests[0] == digests[1] == small_build[1]["build_digests"]


def test_verify_gate_counts_status_changes():
    reference = workloads.load_reference()
    lines = [json.dumps({"name": n, "params": p, "status": s}) for n, p, s in reference["verify_rows"]]
    log = [(row[0], 0.0) for row in reference["verify_rows"]]
    res = workloads.PassResult()
    workloads.verify_check(None, {"code": 0, "lines": lines, "log": log}, reference, res)
    assert res.failed == 0 and res.attempted == len(reference["verify_rows"])
    bad = json.loads(lines[3])
    bad["status"] = "fail"
    lines[3] = json.dumps(bad)
    res = workloads.PassResult()
    workloads.verify_check(None, {"code": 1, "lines": lines, "log": log}, reference, res)
    assert res.failed == 2 and len(res.mismatches) == 2


def test_span_self_time_never_exceeds_total():
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        from chebsqrt import verify

        iterates._V_CACHE[1:] = []  # make the chain rebuild under the wrappers
        verify.check_head(12)
        verify.check_disk_bound(Scheme.newton(2), 2, verify.DiskGrid(1.0, 2, 4))
    finally:
        restore()
    metrics = spans.layer_metrics(tracer)
    assert metrics["iterates.v_step.calls"] == 12
    assert metrics["exact.poly_gcd.calls"] >= 12
    for name, st in tracer.stats.items():
        assert 0 <= st.self_s <= st.s + 1e-9, name
    assert metrics["verify.check.head.self_s"] < metrics["verify.check.head.s"]


def test_install_restores_every_original():
    from chebsqrt import cli, closedform, verify

    before = (verify.v_iterate, cli.v_iterate, closedform.v_iterate, verify.check_head,
              verify._FloatEvaluator.__call__, closedform.PartialFractionForm.eval)
    restore = spans.install(spans.Tracer())
    assert verify.v_iterate is not before[0] and cli.v_iterate is verify.v_iterate
    restore()
    after = (verify.v_iterate, cli.v_iterate, closedform.v_iterate, verify.check_head,
             verify._FloatEvaluator.__call__, closedform.PartialFractionForm.eval)
    assert after == before


def test_ref_times_scale_by_the_samples_around_each_operation():
    marks = [(0, 0.08), (2, 0.04), (3, 0.04)]
    got = calibrate.ref_times([1.0, 1.0, 1.0], marks)
    assert got == pytest.approx([calibrate.REF_S / 0.06] * 2 + [calibrate.REF_S / 0.04])
    half = calibrate.ref_times([1.0, 1.0, 1.0], marks, exponent=0.5)
    assert half == pytest.approx([v ** 0.5 for v in got])


def test_calibrated_pass_samples_after_every_share_of_operation_time(monkeypatch):
    monkeypatch.setattr(calibrate, "sample", lambda: 0.05)
    res = workloads.PassResult(calibrated=True)
    res.mark(0.05)
    for _ in range(5):
        res.op_done(calibrate.EVERY_S / 2)
    assert [n for n, _ in res.cal_marks] == [0, 2, 4]
    traced = workloads.PassResult()  # traced passes are not calibrated
    traced.op_done(calibrate.EVERY_S * 2)
    assert traced.cal_marks == []


def test_tail_percentile_leaves_ten_operations_beyond():
    ops = list(range(81))
    value, pct = run.tail(ops)
    assert sum(v > value for v in ops) == run.TAIL_BEYOND
    assert pct == pytest.approx(100 * 71 / 81)


def test_benchmark_json_lists_what_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.UNITS[name] for name in run.GATED}
    emitted = list(spans.layer_metrics(spans.Tracer()))
    emitted += [workloads.margin_name(layer, n) for n in workloads.EVAL_NS
                for layer in workloads.MARGIN_LAYERS]
    emitted += ["trace_overhead", "fail_frac"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(emitted)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_results_from_different_backends(tmp_path):
    def output(backend, wall):
        info = {"workload": "eval", "stamp": {"python": "3.11.7", "mpmath": "1.3.0",
                                              "backend": backend, "nproc": 2, "seed": 1}}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
        return json.dumps(info) + "\n" + json.dumps(result) + "\n"

    base, same, other = tmp_path / "base", tmp_path / "same", tmp_path / "other"
    base.write_text(output("python", 2.0))
    same.write_text(output("python", 1.0))
    other.write_text(output("gmpy", 1.0))
    compare = [sys.executable, str(BENCH / "compare.py")]
    ok = subprocess.run(compare + [str(base), str(same)], capture_output=True, text=True)
    assert ok.returncode == 0 and "0.500" in ok.stdout
    refused = subprocess.run(compare + [str(base), str(other)], capture_output=True, text=True)
    assert refused.returncode == 2 and "refused" in refused.stderr
