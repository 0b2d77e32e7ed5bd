"""Tests of the benchmark's own logic: statistics, spans, failures, inputs.

Run with `python -m pytest bench/tests`.
"""

import json

import numpy as np
import pytest

import checks
import inputs
import stats
import worker
from spans import Tracer, self_times
from stats import TAIL_BEYOND, ContractBreak, Tally, WrongResult
from workloads import WORKLOADS, Op, cli_inputs, inputs_text

# ---------------------------------------------------------------- tail rule


def test_tail_has_exactly_ten_samples_beyond_it():
    samples = [float(v) for v in range(1, 21)]
    value, pct = stats.tail(samples)
    assert value == 10.0 and pct == 50.0
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_rises_with_sample_count():
    value, pct = stats.tail(list(range(1000)))
    assert value == 989 and pct == 99.0
    value, pct = stats.tail([5.0] + [1.0] * 10)  # order does not matter
    assert value == 1.0 and pct == pytest.approx(100.0 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


# ---------------------------------------------------------------- self time


def span(sid, parent, t0, t1, name="x"):
    return (sid, parent, 0, name, t0, t1)


def test_self_time_subtracts_union_of_children():
    spans = [span(0, -1, 0.0, 10.0),
             span(1, 0, 1.0, 3.0), span(2, 0, 2.0, 5.0),  # overlapping children
             span(3, 0, 6.0, 7.0),
             span(4, 3, 6.2, 6.7)]                        # grandchild
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.5, 0.5])


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, -1, 0.0, 2.0), span(1, 0, 1.5, 3.0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_nested_calls_and_restores_originals():
    import bbepi
    from bbepi import cli, spectral
    original = spectral.perron
    sir = bbepi.BilinearModel(A=[[-1.0]], A_S=[[-1.0]], B=[[2.0]], P=[[1.0]],
                              Lambda=[1.0])
    tracer = Tracer()
    tracer.install()
    try:
        # `from .model import classify_rank` bindings are patched as well.
        assert cli.classify_rank is bbepi.model.classify_rank
        assert hasattr(cli.classify_rank, "__wrapped__")
        with tracer.span("op.sir"):
            assert bbepi.reproduction_number(sir) == pytest.approx(2.0)
    finally:
        tracer.uninstall()
    assert spectral.perron is original
    names = {rec[3]: rec for rec in tracer.spans}
    root = names["op.sir"][0]
    r0_span = names["equilibrium.reproduction_number"]
    assert r0_span[1] == root
    assert names["spectral.perron"][1] == r0_span[0]
    metrics = tracer.layer_metrics()
    assert metrics["spectral.perron.calls"] == 1.0
    assert metrics["op.sir.wall_s"] > 0.0


# -------------------------------------------------------- failure counting


def test_tally_counts_failures_and_only_passed_ops_as_throughput():
    tally = Tally(frozenset({"break"}))
    for i in range(12):
        tally.record("ok", 0.001 * (i + 1), None)
    tally.record("break", 0.5, ContractBreak("exit 1, README expects 4"))
    tally.record("wrong", 0.5, WrongResult("residual too large"))
    assert (tally.attempted, tally.failed, tally.unexpected) == (14, 2, 1)
    assert tally.failures == {"break": 1, "wrong": 1}
    e2e = tally.end_to_end()
    assert e2e["ok_frac"] == pytest.approx(12 / 14)
    assert e2e["ops_per_s"] == pytest.approx(12 / sum(tally.latencies_s))


def test_only_a_known_label_breaking_the_contract_is_expected():
    tally = Tally(frozenset({"known"}))
    tally.record("known", 0.1, ContractBreak("exit 1, README expects 3"))
    assert tally.unexpected == 0
    tally.record("known", 0.1, WrongResult("siphons differ"))
    tally.record("other", 0.1, ContractBreak("NoConvergence"))
    assert (tally.failed, tally.unexpected) == (3, 2)


def test_execute_classifies_raises_and_bad_outputs():
    def boom():
        raise RuntimeError("solver blew up")

    def wrong(result):
        checks.require(result == 2, "expected 2")

    def unreadable(result):
        return result["missing"]

    tally = Tally(frozenset({"raises", "wrong"}))
    worker.execute(Op("k", "raises", boom, lambda r: None), tally)
    worker.execute(Op("k", "wrong", lambda: 1, wrong), tally)
    worker.execute(Op("k", "unreadable", lambda: {}, unreadable), tally)
    worker.execute(Op("k", "fine", lambda: 2, wrong), tally)
    assert tally.attempted == 4 and tally.failed == 3
    # A raise is a contract break, so only the two wrong outputs are unexpected.
    assert tally.unexpected == 2


def test_cli_cold_known_breaks_are_labels_of_its_pass(tmp_path):
    cli = WORKLOADS["cli-cold"](0, tmp_path)
    _, cli.models, cli.args = cli_inputs(0)
    cli.inputs = tmp_path
    plan = cli.plan()
    assert cli.known_breaks <= {label for _, label, *_ in plan}
    assert len(plan) * cli.min_rounds - TAIL_BEYOND > len(plan)  # tail beyond one pass


# ------------------------------------------------------------ seeded inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name):
    cls = WORKLOADS[name]
    first = inputs_text(cls.generate(7))
    assert inputs_text(cls.generate(7)) == first
    assert inputs_text(cls.generate(8)) != first


def test_generated_models_hit_their_targets():
    rng = np.random.default_rng(0)
    model = inputs.with_r0(inputs.random_model(rng, 3, 4, "general"), 1.7)
    assert inputs.r0(model) == pytest.approx(1.7, rel=1e-12)
    fb = inputs.feedback_model(rng, 3, 4, 2.0)
    assert np.all(fb["C"] >= 0.0) and inputs.r0(fb) == pytest.approx(2.0)


def test_siphon_oracle_on_sirs():
    species, src, out, _ = inputs.parse_network(inputs.SIRS_RXN)
    found = checks.minimal_siphons(src, out)
    assert [sorted(species[i] for i in s) for s in found] == [["i"]]


def test_benchmark_json_matches_the_workloads():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
