"""The benchmark's workloads as a correctness gate: one traced pass each.

``perfbench/run.py`` checks every job's result and, on a traced pass, the
call counts it knows independently (vcdim subsets against ``nodes_used``,
NFL learner calls, Monte Carlo trials).  Its ``results_sha256`` digests
every job's result payload at seed 0.  A change that fixes a wrong answer
changes a digest, and updates its pin here in the same change, saying why;
any other change keeps them.  The traced pass's nonzero counts are pinned
the same way: they repeat exactly, so a change to the work a workload does
shows here as a count, and updates its pin, saying why.
"""

import json
import sys

import pytest

import conftest

RESULTS_SHA256 = {
    "sample": "e380d806d902f7da97299dec79899b3107b8c05117f3cdb6d57a15f7a966bb12",
    "enumerate":
        "1c828ba047c7c8fe979409e135cc314e40988e85d786566b9a6cdfff7056b4c0",
    "oracle": "3c0eaaedb286003f0af22a7a6601eed2b6ab1988ff6bc0dd9d888bf59983bb32",
}
TRACED_COUNTS = {
    "sample": {"harness.trials": 1003,
               "learners.LearningFunction.__call__.calls": 3,
               "model.true_error.calls": 1},
    "enumerate": {"learners.LearningFunction.__call__.calls": 3848,
                  "model.ExplicitSpace.dichotomies.calls": 333,
                  "model.true_error.calls": 9},
    "oracle": {"combinatorics.vc_dimension.subsets": 95,
               "spaces.fm_witness.calls": 8},
}


@pytest.mark.parametrize("workload", sorted(RESULTS_SHA256))
def test_a_traced_pass_is_correct_with_the_pinned_results(
        workload, monkeypatch, tmp_path, capsys):
    """``main`` with ``--seed 0 --seconds 0 --trace 1`` reports
    ``correct: true`` on its last line, the pinned ``results_sha256`` and
    the pinned counts; its inputs and reports go to a temporary
    directory."""
    bench = conftest._bench
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(sys, "path", sys.path[:])
    assert bench.main(["--workload", workload, "--seed", "0",
                       "--seconds", "0", "--trace", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True, captured.err
    assert f"results_sha256 {RESULTS_SHA256[workload]}" in lines
    assert {name: m["value"] for name, m in last["metrics"].items()
            if m["unit"] == "count" and m["value"]} == TRACED_COUNTS[workload]
