"""Tests of the benchmark's own logic: inputs, README routing, span and
host-speed arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

import hostspeed
import run
import spans
import workloads

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _polys(workload, seed):
    return [argv[argv.index("--poly") + 1]
            for _, argv, _ in workloads.build_passes(workload, seed, README)]


@pytest.mark.parametrize("workload", ["generic-criterion", "generic-find-eta"])
def test_seed_fixes_the_generated_sections(workload):
    assert _polys(workload, 7) == _polys(workload, 7)
    assert _polys(workload, 7) != _polys(workload, 8)
    polys = _polys(workload, 7)
    assert len(set(polys)) == len(polys)


def test_dense_section_has_every_monomial_once():
    # h0 of a*D1 + b*D2 on p1xp1 is (a+1)(b+1); on hirzebruch:1 with
    # (a, b) = (7, 3) it is 8 + 7 + 6 + 5.
    assert len(workloads._monomials(0, 5, 5)) == 36
    assert len(workloads._monomials(1, 7, 3)) == 26
    text = workloads.dense_section_text(0, 1, 1, random.Random(0))
    terms = text.replace(" - ", " + ").split(" + ")
    assert sorted(t.split("*", 1)[1] for t in terms) == sorted(
        ["x1*x2", "x1*x4", "x2*x3", "x3*x4"])


def test_squarefree():
    assert workloads.squarefree([-2, -3, -4, 2])
    assert workloads.squarefree([3, 7])
    assert not workloads.squarefree([5, -5, -5, 5])   # 5 (1 - t)^2 (1 + t)
    assert not workloads.squarefree([1, 2, 1])


def test_generated_sections_are_squarefree_on_every_edge():
    # Seed 402 once drew a hirzebruch:1 (7,3) section whose x3 = 0 edge
    # polynomial was 5 (1 - t)^2 (1 + t), so the criterion found it degenerate.
    for seed in (1, 402):
        for _, argv, _ in workloads.build_passes("generic-criterion", seed, README):
            terms = argv[argv.index("--poly") + 1].replace(" - ", " + -").split(" + ")
            r = 1 if "hirzebruch" in argv[argv.index("--surface") + 1] else 0
            a, b = map(int, argv[argv.index("--class") + 1].split(","))
            coeffs = {}
            for term in terms:
                c, _, mono = term.partition("*")
                exps = [0] * 4
                for factor in mono.split("*"):
                    var, _, power = factor.partition("^")
                    exps[int(var[1:]) - 1] = int(power or 1)
                coeffs[tuple(exps)] = int(c)
            monomials = workloads._monomials(r, a, b)
            assert sorted(coeffs) == monomials
            for edge in workloads._edges(monomials):
                assert workloads.squarefree([coeffs[m] for m in edge])


def test_readme_extraction_routes_kmax_example_to_saturation():
    examples = workloads.readme_examples(README)
    assert len(examples) == 10
    readme, saturation = workloads.split_readme_examples(examples)
    assert len(readme) == 9
    assert len(saturation) == 1
    argv, expected = saturation[0]
    assert argv[0] == "nondegenerate" and argv[argv.index("--kmax") + 1] == "9"
    assert expected[-1] == "saturation certificate: certified(9)"
    assert all("--kmax" not in argv for argv, _ in readme)


def test_readme_pass_order_depends_only_on_seed():
    keys = [k for k, _, _ in workloads.build_passes("readme", 3, README)]
    assert keys == [k for k, _, _ in workloads.build_passes("readme", 3, README)]
    assert sorted(keys) == sorted(
        k for k, _, _ in workloads.build_passes("readme", 4, README))


def test_criterion_sections_of_one_class_share_an_op_key():
    keys = [k for k, _, _ in workloads.build_passes("generic-criterion", 1, README)]
    assert len(keys) == 5
    assert sorted(set(keys)) == ["criterion hirzebruch:1 7,3", "criterion p1xp1 4,4"]
    keys = [k for k, _, _ in workloads.build_passes("generic-find-eta", 1, README)]
    assert len(set(keys)) == len(keys)


def _fake_cli(*outputs):
    printed = iter(outputs)
    return types.SimpleNamespace(main=lambda argv: print(next(printed), end="") or 0)


def test_runner_fails_an_op_whose_output_differs_under_its_key():
    ops = [("k", [], lambda out: None)] * 3
    runner = run.Runner(_fake_cli("x\n", "x\n", "y\n"), ops, {})
    assert len(runner.run_pass()) == 2
    assert runner.failures == ["k: CheckFailed: output differs from an earlier repeat"]
    runner = run.Runner(_fake_cli("x\n"), ops[:1], {"k": workloads.digest("z\n")})
    assert runner.run_pass() == []
    assert runner.failures == ["k: CheckFailed: output differs from the stored digest"]


def _tree():
    #   0 root [0, 10]
    #   ├─ 1 a [1, 4]    └─ 3 c [2, 3]
    #   ├─ 2 b [4, 6]
    #   └─ 4 a [7, 9]
    return [spans.Span("root", 0.0, 10.0, None, 1),
            spans.Span("a", 1.0, 4.0, 0, 1),
            spans.Span("b", 4.0, 6.0, 0, 1),
            spans.Span("c", 2.0, 3.0, 1, 1),
            spans.Span("a", 7.0, 9.0, 0, 1)]


def test_self_time_subtracts_the_children():
    selfs = spans.self_times(_tree())
    # root: 10 - (3 + 2 + 2) = 3
    assert selfs == pytest.approx([3.0, 2.0, 2.0, 1.0, 2.0])


def test_calibration_drops_the_probes_and_rescales_by_their_speed():
    probe = hostspeed.Probe()
    ref = hostspeed.REFERENCE_S
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (1.5, 4 * ref), (3.0, ref)]
    # Span [1.2, 2.2): one probe inside at 4 ref, one before at 2 ref.
    assert probe.calibrate(1.2, 1.0) == pytest.approx((1.0 - 4 * ref) / 3)
    # A span with no probe inside takes the speed of the last one before.
    assert probe.calibrate(0.2, 0.5) == pytest.approx(0.5)


def test_layer_totals_count_outermost_spans_once():
    tree = _tree() + [spans.Span("a", 2.5, 2.75, 3, 1)]
    calls, self_s, total_s = spans.layer_totals(tree)
    assert calls["a"] == 3
    assert self_s["c"] == pytest.approx(0.75)
    assert total_s["a"] == pytest.approx(3.0 + 2.0)  # the nested "a" is inside one


def test_cache_hits_are_lookups_that_ran_no_elimination():
    tree = [spans.Span("jacobian.j1_piece", 0, 5, None, 1),
            spans.Span("jacobian.j0_piece", 1, 2, 0, 1),
            spans.Span("linalg.kernel", 2, 4, 0, 1),
            spans.Span("linalg.rref", 2, 3, 2, 1),
            spans.Span("jacobian.j0_piece", 6, 7, None, 1)]
    assert spans.cache_hits(tree) == (2, 3)


def test_tracer_records_nesting_and_restores_patches():
    owner = types.SimpleNamespace(inner=lambda x: x * 2)
    owner.outer = lambda x: owner.inner(x) + 1
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    original = owner.inner
    tracer.patch(owner, "outer", "outer")
    tracer.patch(owner, "inner", "inner")
    tracer.op = 5
    assert owner.outer(3) == 7
    tracer.unpatch()
    assert owner.inner is original
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", None, 5), ("inner", 0, 5)]
    assert spans.self_times(tracer.spans) == [2, 1]


def test_fraction_rank():
    assert workloads.fraction_rank([[1, 2], [2, 4]]) == 1
    assert workloads.fraction_rank([[0, 1], [1, 0], [1, 1]]) == 2
    assert workloads.fraction_rank([[Fraction(1, 3), 0, 1]]) == 1
    assert workloads.fraction_rank([]) == 0


def test_find_eta_check_rejects_a_wrong_rank():
    good = '{"found": true, "rank": 2, "genus": 2, "matrix": [["1", "0"], ["0", "1/2"]]}'
    workloads.check_find_eta_output(good)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_find_eta_output(good.replace('"1/2"', '"0"'))

