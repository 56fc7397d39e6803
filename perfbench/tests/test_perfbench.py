"""Tests of the benchmark's own generator, oracle and job cap.

They import neither ``golomb`` nor the worker, and start no thread or process.
"""

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import oracle  # noqa: E402


def test_generator_is_deterministic():
    for make in (inputs.verify_batch, inputs.cli_script):
        assert json.dumps(make(7)) == json.dumps(make(7))
        assert json.dumps(make(7)) != json.dumps(make(8))


def test_held_out_seed_is_not_a_tuning_seed():
    assert inputs.HELD_OUT_SEED not in range(0, 100)


def test_verify_batch_mix_is_fixed():
    for seed in (1, 2, inputs.HELD_OUT_SEED):
        batch = inputs.verify_batch(seed)
        assert len(batch) == inputs.VERIFY_BATCH_SIZE
        assert sum(s["family"] == "triangular" for s in batch) == len(batch) // 2
        assert all(inputs.VERIFY_MIN_ORDER <= s["order"] <= inputs.VERIFY_MAX_ORDER for s in batch)


def test_cli_script_has_fixed_size_and_big_counterexamples():
    script = inputs.cli_script(3)
    assert len(script) == 40
    big = [c["argv"] for c in script if c["argv"][0] == "counterexample" and int(c["argv"][2]) > 100]
    assert len(big) == 6
    for argv in big:
        assert oracle.quadratic_collision(int(argv[2]), int(argv[4]), int(argv[6]))["n"] == inputs.CLI_BIG_COUNTEREXAMPLE_ORDER


def test_no_workload_asks_for_more_jobs_than_cores():
    cores = os.cpu_count() or 1
    for requested in list(inputs.WORKLOAD_JOBS.values()) + [inputs.FANOUT_JOBS]:
        assert 1 <= inputs.capped_jobs(requested) <= cores
        assert inputs.capped_jobs(requested, cpu_count=1) == 1
    for seed in range(5):
        for cmd in inputs.cli_script(seed):
            if "--jobs" in cmd["argv"]:
                assert int(cmd["argv"][cmd["argv"].index("--jobs") + 1]) <= cores


def _brute_first_duplicate(marks):
    cells = [((i, j), marks[i] - marks[i - j]) for i in range(1, len(marks)) for j in range(1, i + 1)]
    pairs = [(v1, p1, p2) for (p1, v1), (p2, v2) in itertools.combinations(cells, 2) if v1 == v2]
    return min(pairs) if pairs else None


def test_first_duplicate_matches_brute_force():
    for modulus in range(1, 9):
        marks = oracle.triangular_marks(9, modulus)
        assert oracle.first_duplicate(marks) == _brute_first_duplicate(marks)
    assert oracle.first_duplicate((0, 1, 2, 3)) == (1, (1, 1), (2, 1))


def test_oracle_rejects_non_graceful_ruler_reported_graceful():
    marks = oracle.triangular_marks(30, 3)
    dup = oracle.first_duplicate(marks)
    assert dup is not None
    assert oracle.check_report(marks, True, None)
    assert oracle.check_report(marks, False, dup) == []
    value, first, second = dup
    assert oracle.check_report(marks, False, (value, second, first))


def test_oracle_rejects_non_optimal_length():
    best = oracle.OPTIMAL_RULERS[10]
    assert oracle.check_search(10, best, 55, True) == []
    assert oracle.check_search(10, (0, 1, 6, 10, 23, 26, 34, 41, 53, 56), 56, True)
    assert oracle.check_search(10, tuple(55 - m for m in reversed(best)), 55, True)


def test_oracle_checks_cli_output_and_exit_code():
    argv = ["search", "--n", "8", "--format", "json"]
    good = {"schema": "golomb/1", "n": 8, "marks": list(oracle.OPTIMAL_RULERS[8]), "length": 34,
            "optimal": True, "nodes": 5, "elapsed_s": 0.1}
    assert oracle.check_cli(argv, None, 0, json.dumps(good).encode()) == []
    assert oracle.check_cli(argv, None, 3, json.dumps(good).encode())
    assert oracle.check_cli(argv, None, 0, json.dumps(dict(good, schema="golomb/2")).encode())
    wrong = dict(good, marks=[0, 1, 4, 9, 15, 22, 32, 35], length=35)
    assert oracle.check_cli(argv, None, 0, json.dumps(wrong).encode())
    usage = ["construct", "--method", "triangular", "--n", "10"]
    assert oracle.check_cli(usage, None, 2, b"") == []
    assert oracle.check_cli(usage, None, 0, b"")
