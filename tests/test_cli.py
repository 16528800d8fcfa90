import argparse
import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from branchkit import (
    BranchEngine,
    SubalgebraType,
    all_types,
    cli,
    fundamental,
    iter_dominant_weights,
    oracle,
    partition_to_omega,
)
from branchkit.cli import main
from test_subalgebra import assert_sl2_brackets


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_branch_json_known_values(capsys):
    code, out, _ = run(
        capsys, "branch", "--n", "5", "--type", "3,2", "--weight", "2,0,1,0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicities"]["1"] == 5
    assert payload["dimension"] == "126"
    assert payload["lambda_partition"] == [3, 1, 1]
    assert payload["type"] == [3, 2]


def test_json_round_trips_byte_identical(capsys):
    code, out, _ = run(
        capsys, "branch", "--n", "5", "--type", "5", "--weight", "2,0,1,0",
        "--format", "json",
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    assert "." not in json.loads(out)["dimension"]  # no floats anywhere


def test_branch_trivial_weight(capsys):
    code, out, _ = run(
        capsys, "branch", "--n", "5", "--type", "5", "--weight", "0,0,0,0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["multiplicities"] == {"0": 1}


def test_branch_seven_term_example(capsys):
    code, out, _ = run(
        capsys, "branch", "--n", "7", "--type", "4,3", "--weight", "0,0,1,0,0,0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["multiplicities"] == {
        "0": 1, "1": 1, "2": 2, "3": 2, "4": 1, "5": 1, "6": 1
    }


def test_branch_accepts_partition_form(capsys):
    code_w, out_w, _ = run(
        capsys, "branch", "--n", "5", "--type", "3,2", "--weight", "2,0,1,0",
        "--format", "json",
    )
    code_p, out_p, _ = run(
        capsys, "branch", "--n", "5", "--type", "3,2", "--partition", "3,1,1",
        "--format", "json",
    )
    assert code_w == code_p == 0
    assert out_w == out_p


def test_invalid_inputs_exit_2(capsys):
    cases = [
        ("branch", "--n", "5", "--type", "4,2", "--weight", "2,0,1,0"),  # not a partition of 5
        ("branch", "--n", "5", "--type", "3,2", "--weight", "2,0,1"),  # wrong length
        ("branch", "--n", "5", "--type", "3,2", "--weight", "2,0,-1,0"),  # not dominant
        ("branch", "--n", "5", "--type", "3,2"),  # no weight at all
        ("branch", "--n", "5", "--type", "3,2", "--weight", "0,0,0,0", "--partition", "1"),
        ("branch", "--n", "5", "--type", "1,1,1,1,1", "--weight", "1,0,0,0"),  # zero nilpotent
        ("branch", "--n", "4", "--type", "4", "--partition", "3,2,1,1"),  # too many parts
        ("pieri", "--n", "4", "--weight", "0,2,1", "--k", "4"),  # strip size out of range
        ("fundamental", "--n", "5", "--type", "5", "--k", "0"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err


FORMATS = ("pretty", "json", "csv", "latex")
# (option strings, default, required, type, choices) of every subcommand's
# options, as declared when each subcommand spelled out its own
SUBCOMMAND_OPTIONS = {
    "branch": [
        (("--cache",), None, False, None, None),
        (("--format",), "pretty", False, None, FORMATS),
        (("--n",), None, True, int, None),
        (("--partition",), None, False, None, None),
        (("--stats",), False, False, None, None),
        (("--type",), None, True, None, None),
        (("--weight",), None, False, None, None),
    ],
    "fundamental": [
        (("--format",), "pretty", False, None, FORMATS),
        (("--k",), None, True, int, None),
        (("--n",), None, True, int, None),
        (("--type",), None, True, None, None),
        (("--verify",), False, False, None, None),
    ],
    "table": [
        (("--format",), "pretty", False, None, FORMATS),
        (("--n",), None, True, int, None),
        (("--type",), None, True, None, None),
    ],
    "pieri": [
        (("--k",), None, True, int, None),
        (("--n",), None, True, int, None),
        (("--weight",), None, True, None, None),
    ],
    "triple": [
        (("--n",), None, True, int, None),
        (("--type",), None, True, None, None),
    ],
    "verify": [
        (("--budget",), 10_000_000, False, int, None),
        (("--jobs",), 1, False, int, None),
        (("--max-boxes",), 6, False, int, None),
        (("--n",), None, True, int, None),
        (("--types",), "all", False, None, None),
    ],
}


def test_subcommand_options_are_pinned():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(
            (tuple(a.option_strings), a.default, a.required, a.type, a.choices)
            for a in p._actions
            if a.dest != "help"
        )
        for name, p in sub.choices.items()
    }
    assert got == SUBCOMMAND_OPTIONS


def test_pieri_lists_example_members(capsys):
    code, out, _ = run(capsys, "pieri", "--n", "4", "--weight", "0,2,1", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "0,3,1  (4,4,1)",
        "1,1,2  (4,3,2)",
        "1,2,0  (3,2)",
        "0,1,1  (2,2,1)",
    ]


def test_fundamental_latex(capsys):
    code, out, _ = run(
        capsys, "fundamental", "--n", "5", "--type", "5", "--k", "2",
        "--format", "latex",
    )
    assert code == 0
    assert out.strip() == "F_{2}\\oplus F_{6}"


def test_fundamental_csv(capsys):
    code, out, _ = run(
        capsys, "fundamental", "--n", "5", "--type", "3,2", "--k", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["j,multiplicity", "0,1", "1,1", "2,1", "3,1"]


def test_fundamental_verify_flag(capsys):
    code, _, _ = run(
        capsys, "fundamental", "--n", "7", "--type", "4,3", "--k", "3", "--verify",
    )
    assert code == 0


def test_fundamental_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(fundamental, "mult_strict_count", lambda n, k, j: int(j == 0))
    code, _, err = run(capsys, "fundamental", "--n", "5", "--type", "5", "--k", "2", "--verify")
    assert code == 1
    assert err.startswith("error: closed form strict-count disagrees")
    assert "Traceback" not in err


@pytest.mark.parametrize("blocks, k, form", [("5,1,1,1", "3", "hook"), ("5,3", "3", "two-blocks")])
def test_fundamental_verify_multi_block_mismatch_exits_1(capsys, monkeypatch, blocks, k, form):
    # one copy of the top F_j of the queried (type, k) moves up to F_{j+1}
    real = fundamental._fundamental

    def moved(t, m):
        result = dict(real(t, m))
        if t.blocks == tuple(map(int, blocks.split(","))) and m == int(k):
            top = max(result)
            result[top] -= 1
            result[top + 1] = 1
        return result

    monkeypatch.setattr(fundamental, "_fundamental", moved)
    code, _, err = run(capsys, "fundamental", "--n", "8", "--type", blocks, "--k", k, "--verify")
    assert code == 1
    assert err.startswith(f"error: closed form {form} disagrees")
    assert "Traceback" not in err


def test_fundamental_beyond_old_rank_cap(capsys):
    code, out, _ = run(
        capsys, "fundamental", "--n", "40", "--type", "40", "--k", "20", "--verify",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == str(137846528820)  # C(40, 20)


def test_fundamental_verify_at_rank_600(capsys):
    # the closed forms read q-binomial rows that no recursion limit bounds
    argv = ["fundamental", "--n", "600", "--type", "600", "--k", "2", "--format", "json"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, checked, err = run(capsys, *argv, "--verify")
    assert code == 0, err
    assert checked == plain


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    class Broken(BranchEngine):
        def branch(self, t, w):
            raise KeyError(w)

    monkeypatch.setattr(cli, "BranchEngine", Broken)
    code, _, err = run(capsys, "branch", "--n", "2", "--type", "2", "--partition", "1000")
    assert code == 3
    assert err.startswith("error: internal error: KeyError")
    assert "Traceback" not in err


def test_branch_a_thousand_steps_deep(capsys):
    code, out, err = run(capsys, "branch", "--n", "2", "--type", "2", "--partition", "1000")
    assert code == 0, err
    assert "1000  1" in out.splitlines()


def test_pieri_at_rank_1200(capsys):
    weight = ",".join(["0"] * 1198 + ["1"])  # omega_1199, the partition (1, ..., 1)
    code, out, err = run(capsys, "pieri", "--n", "1200", "--weight", weight, "--k", "1")
    assert code == 0, err
    assert out.splitlines() == [
        ",".join(["1"] + ["0"] * 1197 + ["1"]) + "  (2" + ",1" * 1198 + ")",
        ",".join(["0"] * 1199) + "  ()",
    ]


def test_pieri_prints_the_coefficients_of_each_member(capsys):
    # each line's coefficients are those of the member's DominantWeight,
    # full columns taken off, on every weight of sl_2 .. sl_6 up to 4 boxes
    for n in range(2, 7):
        for w in iter_dominant_weights(n, 4):
            for k in range(1, n):
                code, out, err = run(capsys, "pieri", "--n", str(n),
                                     "--weight", ",".join(map(str, w.coeffs)), "--k", str(k))
                assert code == 0, err
                for line in out.splitlines():
                    omega, parts = line.split("  ")
                    mu = tuple(int(x) for x in parts.strip("()").split(",") if x)
                    assert omega == ",".join(map(str, partition_to_omega(mu, n).coeffs)), line


@pytest.mark.parametrize("n, k", [(24, 12), (180, 3)])
def test_pieri_refuses_a_set_past_its_cap_before_building_it(capsys, monkeypatch, n, k):
    # C(24, 12) = 2704156 members, past PIERI_MAX_MEMBERS; C(180, 3) = 955860
    # members of 180 parts, past PIERI_MAX_PARTS
    def building(lam, k):
        raise AssertionError("pieri_set ran")

    monkeypatch.setattr(cli, "pieri_set", building)
    code, out, err = run(capsys, "pieri", "--n", str(n), "--weight", ",".join(["1"] * (n - 1)),
                         "--k", str(k))
    assert code == 2
    assert out == ""
    assert err.startswith("error: pieri lists at most 1000000 members")


def test_table_runs_the_wedge_recurrence_once_per_pair_k_and_n_minus_k(capsys, monkeypatch):
    calls = []
    real = fundamental.wedge_character
    monkeypatch.setattr(fundamental, "wedge_character",
                        lambda t, k, w: (calls.append(k), real(t, k, w))[1])
    fundamental._fundamental.cache_clear()
    code, out, _ = run(capsys, "table", "--n", "60", "--type", "60", "--format", "json")
    assert code == 0
    assert sorted(calls) == list(range(1, 31))
    table = json.loads(out)["table"]
    assert all(table[str(k)] == table[str(60 - k)] for k in range(1, 60))


def test_branch_at_rank_1200(capsys):
    # the Pieri leaf stacks no frame per row, and the Weyl checks are linear in n
    code, out, err = run(capsys, "branch", "--n", "1200", "--type", "1200", "--partition", "2",
                         "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["dimension"] == "720600"  # C(1201, 2)
    assert payload["highest"] == 2398


def test_branch_omega_1199_at_rank_1200(capsys):
    # Weyl's product skips the pairs of equal rows, so its 1199 rows cost
    # 1199 factors
    weight = ",".join(["0"] * 1198 + ["1"])
    code, out, err = run(capsys, "branch", "--n", "1200", "--type", "1200", "--weight", weight,
                         "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["multiplicities"] == {"1199": 1}
    assert payload["dimension"] == "1200"
    assert payload["highest"] == 1199


def test_fundamental_k_1199_at_rank_1200(capsys):
    # the wedge kernel runs at n - k = 1
    code, out, err = run(capsys, "fundamental", "--n", "1200", "--type", "1200", "--k", "1199",
                         "--format", "latex")
    assert code == 0, err
    assert out.strip() == "F_{1199}"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n", "5", "--type", "3,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["table"]) == ["1", "2", "3", "4"]
    assert payload["table"]["2"] == {"0": 1, "1": 1, "2": 1, "3": 1}


TABLE_5_32 = {
    "pretty": [
        "k=1: F_1 + F_2  (dim 5)",
        "k=2: F_0 + F_1 + F_2 + F_3  (dim 10)",
        "k=3: F_0 + F_1 + F_2 + F_3  (dim 10)",
        "k=4: F_1 + F_2  (dim 5)",
    ],
    "csv": [
        "k,j,multiplicity",
        "1,1,1", "1,2,1",
        "2,0,1", "2,1,1", "2,2,1", "2,3,1",
        "3,0,1", "3,1,1", "3,2,1", "3,3,1",
        "4,1,1", "4,2,1",
    ],
    "latex": [
        "L(\\omega_{1}): F_{1}\\oplus F_{2}",
        "L(\\omega_{2}): F_{0}\\oplus F_{1}\\oplus F_{2}\\oplus F_{3}",
        "L(\\omega_{3}): F_{0}\\oplus F_{1}\\oplus F_{2}\\oplus F_{3}",
        "L(\\omega_{4}): F_{1}\\oplus F_{2}",
    ],
}


@pytest.mark.parametrize("fmt", sorted(TABLE_5_32))
def test_table_text_formats(capsys, fmt):
    code, out, _ = run(capsys, "table", "--n", "5", "--type", "3,2", "--format", fmt)
    assert code == 0
    assert out.splitlines() == TABLE_5_32[fmt]


def test_triple_export_brackets(capsys):
    code, out, _ = run(capsys, "triple", "--n", "7", "--type", "4,3")
    assert code == 0
    payload = json.loads(out)
    H = payload["H"]
    assert [H[i][i] for i in range(7)] == [3, 1, -1, -3, 2, 0, -2]
    assert_sl2_brackets(H, payload["X"], payload["Y"])


def test_triple_refuses_a_rank_past_its_cap_before_building(capsys, monkeypatch):
    def no_build(t):
        raise AssertionError(f"no triple may be built for {t}")

    monkeypatch.setattr(cli, "build_triple", no_build)
    n = str(cli.TRIPLE_MAX_N + 1)
    for argv in (("--n", n, "--type", n), ("--n", "100000", "--type", "100000")):
        code, out, err = run(capsys, "triple", *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and str(cli.TRIPLE_MAX_N) in err
        assert out == ""


def test_triple_at_its_cap(capsys):
    n = str(cli.TRIPLE_MAX_N)
    code, out, _ = run(capsys, "triple", "--n", n, "--type", n)
    assert code == 0
    assert len(json.loads(out)["H"]) == cli.TRIPLE_MAX_N


def test_triple_streams_its_json():
    # CPython 3.11: json.dumps(indent=2) held a traced peak of 23.7 MiB at
    # n = 300, the blocks written one by one about 4.5 MiB
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert main(["triple", "--n", "2", "--type", "2"]) == 0  # first use, untraced
        tracemalloc.start()
        try:
            assert main(["triple", "--n", "300", "--type", "300"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 12 * 2**20


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--max-boxes", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "OK"
    assert any(line.startswith("type [3]") for line in lines)
    assert any(line.startswith("type [2,1]") for line in lines)


def test_verify_reports_a_mismatch(capsys, monkeypatch):
    real = oracle.oracle_branch

    def wrong_oracle(t, w, budget):
        want = real(t, w, budget=budget)
        return {**want, 0: want.get(0, 0) + 1} if t.blocks == (3,) and w.coeffs == (1, 0) else want

    monkeypatch.setattr(oracle, "oracle_branch", wrong_oracle)
    code, out, _ = run(capsys, "verify", "--n", "3", "--max-boxes", "2")
    assert code == 1
    assert out.splitlines() == [
        "type [3]: 1 MISMATCH of 4",
        "  key (3, (3,), (1,))",
        "    recursion: {2: 1}",
        "    oracle:    {2: 1, 0: 1}",
        "type [2,1]: 4 weights ok",
        "FAILED: 1 mismatches",
    ]


def test_verify_type_list_and_jobs(capsys, monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so the clamp keeps --jobs 2
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--types", "4;2,2", "--max-boxes", "2",
        "--jobs", "2",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "OK"
    assert len(pools) == 1  # one pool serves every type of the sweep


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("no pool may be built for an invalid --jobs")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run(capsys, "verify", "--n", "3", "--max-boxes", "2", "--jobs", jobs)
    assert code == 2
    assert err.startswith("error: --jobs must be at least 1")
    assert out == ""


@pytest.mark.parametrize("option, value", [("--max-boxes", "-2"), ("--budget", "-1")])
def test_verify_rejects_a_negative_size_before_any_work(capsys, monkeypatch, option, value):
    def no_task(task):
        raise AssertionError(f"no weight may be checked under {option} {value}")

    monkeypatch.setattr(cli, "_verify_task", no_task)
    # the last --max-boxes given wins
    code, out, err = run(capsys, "verify", "--n", "3", "--max-boxes", "2", option, value)
    assert code == 2
    assert err.startswith(f"error: {option} must be at least 0, got {value}")
    assert out == ""


@pytest.mark.parametrize(
    "cpus, jobs, workers",
    [(2, "16", [2]), (8, "3", [3]), (1, "4", []), (None, "3", [])],
)
def test_verify_jobs_clamped_to_cpu_count(capsys, monkeypatch, cpus, jobs, workers):
    built = []

    class SerialPool:  # records the pool size and spawns nothing
        def __init__(self, max_workers, mp_context):
            built.append(max_workers)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "verify", "--n", "3", "--max-boxes", "2", "--jobs", jobs)
    assert code == 0
    assert out.strip().splitlines()[-1] == "OK"
    assert built == workers  # clamped to the CPU count; one CPU runs serially


def test_import_cli_does_not_load_process_pool():
    # only verify --jobs > 1 needs a pool; every other command skips the import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, branchkit.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_verify_budget_exceeded_exits_4(capsys):
    code, _, err = run(capsys, "verify", "--n", "3", "--max-boxes", "2", "--budget", "1")
    assert code == 4
    assert "error:" in err


def test_verify_lists_a_one_row_sweep_of_the_full_cap(capsys):
    # sl_2 up to 99999 boxes is 10^5 pairs, which the cap admits: the weights
    # are listed in linear time, and then the first oracle call trips the budget
    code, _, err = run(
        capsys, "verify", "--n", "2", "--types", "2", "--max-boxes", "99999", "--budget", "0"
    )
    assert code == 4
    assert "error:" in err


def test_verify_exits_3_when_the_oracle_fails_its_count_check(capsys, monkeypatch):
    # a tableau count of 1 for every shape: () passes, (1,) with 3 tableaux does not
    monkeypatch.setattr(oracle, "_tableau_count", lambda shape, n: 1)
    code, out, err = run(capsys, "verify", "--n", "3", "--max-boxes", "2")
    assert code == 3
    assert err.startswith("error: 3 tableaux of shape (1,)")
    assert out == ""


def test_verify_keeps_each_mismatch_with_its_type(capsys, monkeypatch):
    real = oracle.oracle_branch
    wrong = {((3,), (1, 0)), ((3,), (0, 1)), ((2, 1), (2, 0))}

    def wrong_oracle(t, w, budget):
        want = real(t, w, budget=budget)
        return {**want, 99: 1} if (t.blocks, w.coeffs) in wrong else want

    monkeypatch.setattr(oracle, "oracle_branch", wrong_oracle)
    code, out, _ = run(capsys, "verify", "--n", "3", "--max-boxes", "2")
    assert code == 1
    assert out.splitlines() == [
        "type [3]: 2 MISMATCH of 4",
        "  key (3, (3,), (1,))",
        "    recursion: {2: 1}",
        "    oracle:    {2: 1, 99: 1}",
        "  key (3, (3,), (1, 1))",
        "    recursion: {2: 1}",
        "    oracle:    {2: 1, 99: 1}",
        "type [2,1]: 1 MISMATCH of 4",
        "  key (3, (2, 1), (2,))",
        "    recursion: {0: 1, 1: 1, 2: 1}",
        "    oracle:    {0: 1, 1: 1, 2: 1, 99: 1}",
        "FAILED: 3 mismatches",
    ]


def test_verify_prints_the_same_bytes_with_two_jobs(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so the clamp keeps --jobs 2
    argv = ("verify", "--n", "5", "--types", "all", "--max-boxes", "4")
    code, one, _ = run(capsys, *argv, "--jobs", "1")
    assert code == 0
    code, two, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert two == one


def test_verify_refuses_a_sweep_past_its_cap_before_listing(capsys, monkeypatch):
    def no_listing(*args):
        raise AssertionError(f"nothing may be listed for {args}")

    monkeypatch.setattr(cli, "all_types", no_listing)
    monkeypatch.setattr(cli, "iter_dominant_weights", no_listing)
    cap = cli.VERIFY_MAX_PAIRS
    for argv in (("--n", "100", "--types", "all"),  # p(100) - 1 types of 30 weights
                 ("--n", str(10**9), "--types", "all"),
                 ("--n", "2", "--max-boxes", str(cap)),  # cap + 1 weights of one type
                 ("--n", "3", "--max-boxes", str(10**15)),  # refused before any count
                 ("--n", "9", "--types", "9;8,1", "--max-boxes", "40")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and str(cap) in err, argv
        assert out == ""
    # a sweep of exactly cap pairs goes on to list its weights
    code, _, err = run(capsys, "verify", "--n", "2", "--types", "2", "--max-boxes", str(cap - 1))
    assert code == 3 and "nothing may be listed for (2, 99999)" in err


def test_verify_refuses_a_huge_rank_before_listing(capsys, monkeypatch):
    def no_listing(*args):
        raise AssertionError(f"nothing may be listed for {args}")

    monkeypatch.setattr(cli, "all_types", no_listing)
    monkeypatch.setattr(cli, "iter_dominant_weights", no_listing)
    cap = cli.VERIFY_MAX_COEFFS
    # a type of rank 10^9, refused where it is parsed (past TYPE_MAX_N), and
    # 4 pairs (weights of at most 2 boxes) of cap / 4 + 1 coefficients each,
    # just past the cap
    for argv in (("--n", str(10**9), "--types", str(10**9), "--max-boxes", "3", "--budget", "0"),
                 ("--n", str(cap // 4 + 2), "--types", str(cap // 4 + 2), "--max-boxes", "2")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and str(cap) in err, argv
        assert out == ""
    # a sweep of exactly cap coefficients goes on to list its weights
    n = cap // 4 + 1
    code, _, err = run(capsys, "verify", "--n", str(n), "--types", str(n), "--max-boxes", "2")
    assert code == 3 and f"nothing may be listed for ({n}, 2)" in err


@pytest.mark.parametrize("command, extra", [
    ("branch", ("--partition", "1")),
    ("fundamental", ("--k", "1")),
    ("table", ()),
])
def test_a_type_past_the_rank_cap_is_refused_before_any_tuple_of_n(capsys, monkeypatch,
                                                                   command, extra):
    def n_long(*args):
        raise AssertionError(f"an n-long tuple was built from {args}")

    for name in ("partition_to_omega", "DominantWeight", "fundamental_branching"):
        monkeypatch.setattr(cli, name, n_long)
    for n in (cli.TYPE_MAX_N + 1, 999999999999):
        code, out, err = run(capsys, command, "--n", str(n), "--type", str(n), *extra)
        assert code == 2, (command, n, err)
        assert err.startswith("error: ") and str(cli.TYPE_MAX_N) in err
        assert out == ""


def test_ranks_up_to_the_cap_are_parsed():
    for n in (1200, cli.VERIFY_MAX_COEFFS // 4 + 2, cli.TYPE_MAX_N):
        assert cli._parse_type(f"{n - 1},1", n) == SubalgebraType((n - 1, 1))


def test_verify_counts_the_pairs_it_lists():
    for n in range(2, 9):
        types = cli._partition_counts(n, n, lambda counts: False)[-1] - 1
        assert types == len(all_types(n)), n
        for boxes in range(9):
            weights = sum(cli._partition_counts(boxes, n - 1, lambda counts: False))
            assert weights == len(list(iter_dominant_weights(n, boxes))), (n, boxes)


@pytest.mark.parametrize("n", ["1", "0", "-1", "-7"])
def test_verify_names_a_rank_below_two(capsys, n):
    code, out, err = run(capsys, "verify", "--n", n)
    assert code == 2
    assert err == f"error: rank must be >= 2, got {n}\n"
    assert out == ""


def test_cache_round_trip_and_warm_stats(tmp_path, capsys):
    cache = tmp_path / "memo.json"
    argv = [
        "branch", "--n", "5", "--type", "3,2", "--weight", "2,0,1,0",
        "--format", "json", "--cache", str(cache), "--stats",
    ]
    code1, out1, err1 = run(capsys, *argv)
    assert code1 == 0 and cache.exists()
    data = json.loads(cache.read_text())
    assert data["version"] == 1
    assert "5|3,2|3,1,1" in data["entries"]
    assert data["entries"]["5|3,2|3,1,1"]["1"] == 5

    code2, out2, err2 = run(capsys, *argv)
    assert code2 == 0
    assert out2 == out1
    assert "computed=0" in err2
    assert "computed=0" not in err1
    assert err1.strip().endswith("cache_saved=1")
    assert err2.strip().endswith("cache_saved=0")


BRANCH_5 = ["branch", "--n", "5", "--type", "3,2", "--partition", "3,2,1", "--format", "json"]


def test_stats_count_the_memo_without_decoding_it(capsys, monkeypatch):
    engines, unpacked = [], []

    class Recorded(BranchEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

        def _unpack(self, p):
            unpacked.append(p)
            return super()._unpack(p)

    monkeypatch.setattr(cli, "BranchEngine", Recorded)
    code, out, err = run(capsys, *BRANCH_5, "--stats")
    assert code == 0, err
    assert len(engines) == 1 and len(unpacked) == 1  # the answer alone
    (engine,) = engines
    assert len(engine) == len(engine.cache) > 1
    assert f"cache_entries={len(engine.cache)} cache_saved=0" in err


def test_warm_run_leaves_cache_file_untouched(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "memo.json"
    code1, out1, _ = run(capsys, *BRANCH_5, "--cache", str(cache))
    assert code1 == 0
    before, mtime = cache.read_bytes(), cache.stat().st_mtime_ns

    def no_save(path, memo):
        raise AssertionError("a run that computed nothing must not save")

    monkeypatch.setattr(cli, "save_cache", no_save)
    code2, out2, err2 = run(capsys, *BRANCH_5, "--cache", str(cache), "--stats")
    assert code2 == 0, err2
    assert out2 == out1
    assert "computed=0" in err2 and "cache_saved=0" in err2
    assert cache.read_bytes() == before
    assert cache.stat().st_mtime_ns == mtime


def test_a_cache_file_holds_the_dual_that_was_solved(tmp_path, capsys):
    # (20^6, 18) of sl_8 has 138 boxes and its dual (20, 2) 22: a cold run
    # solves and writes the dual's entries, which a warm run answers from
    cache = tmp_path / "memo.json"
    argv = ["branch", "--n", "8", "--type", "3,3,2", "--partition", "20,20,20,20,20,20,18",
            "--cache", str(cache), "--stats"]
    code1, out1, err1 = run(capsys, *argv)
    assert code1 == 0, err1
    assert "cache_entries=130 cache_saved=1" in err1
    before = cache.read_bytes()
    entries = json.loads(before)["entries"]
    assert len(entries) == 130 and "8|3,3,2|20,2" in entries
    assert not any(key.startswith("8|3,3,2|20,20") for key in entries)
    code2, out2, err2 = run(capsys, *argv)
    assert code2 == 0, err2
    assert out2 == out1
    assert "computed=0 " in err2 and "cache_saved=0" in err2
    assert cache.read_bytes() == before


def test_triple_runs_without_numpy(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy fails
    code, out, err = run(capsys, "triple", "--n", "7", "--type", "4,3")
    assert code == 0, err
    payload = json.loads(out)
    assert_sl2_brackets(payload["H"], payload["X"], payload["Y"])


def test_cache_file_is_compact_sorted_version_1(tmp_path, capsys):
    cache = tmp_path / "memo.json"
    code, _, _ = run(capsys, *BRANCH_5, "--cache", str(cache))
    assert code == 0
    text = cache.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert data["version"] == 1
    engine = BranchEngine()
    engine.branch(SubalgebraType((3, 2)), partition_to_omega((3, 2, 1), 5))
    assert data["entries"] == {
        cli._cache_key_str(key): {str(j): m for j, m in mv.items()}
        for key, mv in engine.cache.items()
    }
    # two types; keys 2|2|9 and 2|2|10, and components 9 and 10 in one entry,
    # sort one way as ints and the other as strings
    engine = BranchEngine()
    engine.branch(SubalgebraType((2,)), partition_to_omega((10,), 2))
    engine.branch(SubalgebraType((2, 1)), partition_to_omega((10,), 3))
    memo = engine.cache
    assert memo[2, (2,), (10,)] == {10: 1} and {9, 10} <= memo[3, (2, 1), (10,)].keys()
    payload = {"version": 1, "entries": {
        cli._cache_key_str(key): {str(j): m for j, m in mv.items()} for key, mv in memo.items()
    }}
    cli.save_cache(cache, memo)
    assert cache.read_text() == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert cli.load_cache(cache, SubalgebraType((2, 1))) == memo


def test_save_cache_holds_no_copy_of_the_memo_or_the_text(tmp_path):
    # 2000 entries of 40 components, about 1 MB of file: the file's text and a
    # copy of the memo with string keys held a traced peak of about 10 MiB
    memo = {
        (3, (3,), (a + 41, a % 41)): {j: 10**6 + j for j in range(a % 2, 80, 2)}
        for a in range(2000)
    }
    cache = tmp_path / "memo.json"
    tracemalloc.start()
    try:
        cli.save_cache(cache, memo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.stat().st_size > 2**20
    assert peak < 2 * 2**20


def test_indented_cache_file_still_loads(tmp_path, capsys):
    # files written with indent=2, as before the compact format, stay readable
    cache = tmp_path / "memo.json"
    code1, out1, _ = run(capsys, *BRANCH_5, "--cache", str(cache))
    assert code1 == 0
    indented = json.dumps(json.loads(cache.read_text()), indent=2, sort_keys=True) + "\n"
    cache.write_text(indented)
    code2, out2, err2 = run(capsys, *BRANCH_5, "--cache", str(cache), "--stats")
    assert code2 == 0
    assert out2 == out1
    assert "computed=0" in err2
    assert cache.read_text() == indented


def test_cache_keys_have_no_trailing_zeros(tmp_path, capsys):
    # the engine works on padded partitions (2, 1, 0); the file keeps the
    # canonical (2, 1), so files written before and after stay interchangeable
    cache = tmp_path / "memo.json"
    argv = [
        "branch", "--n", "3", "--type", "3", "--partition", "2,1",
        "--cache", str(cache), "--stats",
    ]
    code1, _, err1 = run(capsys, *argv)
    assert code1 == 0
    entries = json.loads(cache.read_text())["entries"]
    assert "3|3|2,1" in entries
    assert "3|3|" in entries  # the trivial weight
    for key in entries:
        lam = key.split("|")[2]
        assert lam == "" or all(int(x) > 0 for x in lam.split(",")), key
    code2, _, err2 = run(capsys, *argv)
    assert code2 == 0
    assert "computed=0" in err2
    assert "computed=0" not in err1


def test_cache_env_var_default(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env-cache.json"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    code, _, _ = run(capsys, "branch", "--n", "4", "--type", "4", "--weight", "1,0,0")
    assert code == 0
    assert cache.exists()


def test_cache_version_mismatch_exits_2(tmp_path, capsys):
    cache = tmp_path / "bad.json"
    cache.write_text(json.dumps({"version": 99, "entries": {}}))
    code, _, err = run(
        capsys, "branch", "--n", "4", "--type", "4", "--weight", "1,0,0",
        "--cache", str(cache),
    )
    assert code == 2
    assert "version" in err


MALFORMED_CACHES = {
    "not json": "{",
    "top level a list": [],
    "no entries": {"version": 1},
    "entries not an object": {"version": 1, "entries": [1, 2]},
    "key with two fields": {"version": 1, "entries": {"4|4": {"0": 1}}},
    "key with four fields": {"version": 1, "entries": {"4|4|1|1": {"0": 1}}},
    "key not integers": {"version": 1, "entries": {"4|four|1": {"0": 1}}},
    "vector not an object": {"version": 1, "entries": {"4|4|1": [3]}},
    "component not an integer": {"version": 1, "entries": {"4|4|1": {"x": 1}}},
    "fractional multiplicity": {"version": 1, "entries": {"4|4|1": {"3": 1.5}}},
    "string multiplicity": {"version": 1, "entries": {"4|4|1": {"3": "1"}}},
    "boolean multiplicity": {"version": 1, "entries": {"4|4|1": {"3": True}}},
    "zero multiplicity": {"version": 1, "entries": {"4|4|1": {"3": 0}}},
    "negative multiplicity": {"version": 1, "entries": {"4|4|1": {"3": -1}}},
    "negative component": {"version": 1, "entries": {"4|4|1": {"-1": 1, "3": 1}}},
    "empty multiplicity vector": {"version": 1, "entries": {"4|4|1": {}}},
    "key type of another rank": {"version": 1, "entries": {"4|3|1": {"2": 1}}},
    "key type of unit blocks": {"version": 1, "entries": {"4|1,1,1,1|1": {"0": 4}}},
    "key blocks not sorted": {"version": 1, "entries": {"6|2,4|1": {"1": 1, "3": 1}}},
    # lambdas the engine never looks up
    "key lambda not decreasing": {"version": 1, "entries": {"4|4|1,2": {"0": 1}}},
    "key lambda with n parts": {"version": 1, "entries": {"4|4|1,1,1,1": {"5": 3}}},
    "key lambda trailing zero": {"version": 1, "entries": {"4|4|1,0": {"3": 1}}},
    "key lambda negative part": {"version": 1, "entries": {"4|4|1,-1": {"0": 1}}},
    # j = 8 above the top weight 6 of (2): a j of 10**12 would take 10**12 bytes to pack
    "component above the top weight": {"version": 1, "entries": {"4|4|2": {"2": 1, "8": 1}}},
    # versions equal to 1 that are not the int 1
    "version true": {"version": True, "entries": {}},
    "version float": {"version": 1.0, "entries": {}},
    # two spellings of one component or key, which would load as one
    "component spelled twice": {"version": 1, "entries": {"4|4|2": {"2": 5, "02": 1, "6": 1}}},
    "key spelled twice": {
        "version": 1, "entries": {"4|4|2": {"2": 1, "6": 1}, "4|4|02": {"2": 1, "6": 1}},
    },
    # one key written twice in the text, which a plain json.load keeps the last of
    "component written twice": '{"version": 1, "entries": {"4|4|2": {"2": 1, "6": 1, "2": 3}}}',
    "key written twice": (
        '{"version": 1, "entries": {"4|4|2": {"2": 1, "6": 1}, "4|4|2": {"2": 3, "6": 1}}}'
    ),
    # deeper than the JSON parser's recursion limit
    "nested too deeply": "[" * 200_000 + "]" * 200_000,
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_CACHES))
def test_malformed_cache_exits_2(tmp_path, capsys, shape):
    content = MALFORMED_CACHES[shape]
    cache = tmp_path / "bad.json"
    cache.write_text(content if isinstance(content, str) else json.dumps(content))
    code, _, err = run(
        capsys, "branch", "--n", "4", "--type", "4", "--weight", "1,0,0",
        "--cache", str(cache),
    )
    assert code == 2, err
    assert err.startswith("error: ")
    assert err.startswith(f"error: cache {cache}")
    assert "internal error" not in err


# a well-formed entry with wrong multiplicities: for the weight itself (the
# final dimension check fails), for a sub-weight the recursion uses (the
# dimension check fails), one that drives a subtraction negative, and trivial
# and fundamental entries, which are checked on load even when the dimension
# works out
WRONG_ENTRIES = {
    "top level": ({"4|4|1": {"0": 5}}, ["--weight", "1,0,0"]),
    "fundamental, right dimension": ({"4|4|1": {"1": 2}}, ["--weight", "1,0,0"]),
    "fundamental, unused": ({"4|4|1": {"3": 1}, "4|4|1,1,1": {"1": 2}}, ["--weight", "1,0,0"]),
    "trivial": ({"4|4|": {"0": 2}}, ["--weight", "1,0,0"]),
    "sub-weight, wrong dimension": ({"4|4|1,1": {"0": 1}}, ["--partition", "2"]),
    "sub-weight, negative multiplicity": ({"4|4|1,1": {"8": 1}}, ["--partition", "2"]),
    # neither trivial nor fundamental, so only the re-run without the file finds them
    "top level, not fundamental": ({"4|4|3": {"0": 5}}, ["--partition", "3"]),
    "sub-weight, not fundamental": ({"4|4|2": {"6": 1}}, ["--partition", "3"]),
}


@pytest.mark.parametrize("case", sorted(WRONG_ENTRIES))
def test_wrong_cache_entry_exits_2(tmp_path, capsys, case):
    entries, weight = WRONG_ENTRIES[case]
    cache = tmp_path / "memo.json"
    cache.write_text(json.dumps({"version": 1, "entries": entries}))
    before = cache.read_bytes()
    code, out, err = run(
        capsys, "branch", "--n", "4", "--type", "4", *weight, "--cache", str(cache)
    )
    assert code == 2, err
    assert err.startswith(f"error: cache {cache} holds a wrong entry")
    assert out == ""
    assert cache.read_bytes() == before


@pytest.mark.parametrize("case", ["top level, not fundamental", "sub-weight, not fundamental"])
def test_wrong_cache_entry_blamed_by_rerun(tmp_path, capsys, case):
    entries, weight = WRONG_ENTRIES[case]
    cache = tmp_path / "memo.json"
    cache.write_text(json.dumps({"version": 1, "entries": entries}))
    code, _, err = run(
        capsys, "branch", "--n", "4", "--type", "4", *weight, "--cache", str(cache)
    )
    assert code == 2, err
    assert "fails its consistency checks with it and passes them without it" in err


@pytest.mark.xfail(strict=True, reason="only the dimension of a non-fundamental entry is checked")
def test_wrong_entry_of_the_right_dimension_is_not_trusted(tmp_path, capsys):
    # principal sl_4: Res L(2) = Sym^2 F_3 = F_2 + F_6, of dimension 10, and
    # the entry 3 F_0 + F_6 has dimension 10 as well, and the top weight 6; a
    # check of the final answer against an independent route (Jacobi-Trudi)
    # would see it
    cache = tmp_path / "memo.json"
    cache.write_text(json.dumps({"version": 1, "entries": {"4|4|2": {"6": 1, "0": 3}}}))
    code, out, err = run(
        capsys, "branch", "--n", "4", "--type", "4", "--partition", "2", "--cache", str(cache)
    )
    if code == 0:
        assert out.startswith("j  multiplicity\n2  1\n6  1\n")
    else:
        assert code == 2 and "holds a wrong entry" in err


def test_load_checks_only_the_query_type(tmp_path, capsys, monkeypatch):
    # a file shared across queries: the entries of other types are kept as they
    # are, and their fundamentals are not recomputed on load
    entries = {
        "4|4|": {"0": 1},
        "4|4|1": {"3": 1},
        "7|5,2|1,1": {"0": 99},
        "3|3|1": {"1": 2},
    }
    cache = tmp_path / "memo.json"
    cache.write_text(json.dumps({"version": 1, "entries": entries}))
    calls = []
    real = cli.fundamental_branching
    monkeypatch.setattr(
        cli, "fundamental_branching", lambda t, k: calls.append((t.blocks, k)) or real(t, k)
    )
    code, out, err = run(
        capsys, "branch", "--n", "4", "--type", "4", "--weight", "1,0,0", "--cache", str(cache)
    )
    assert code == 0, err
    assert out.startswith("j  multiplicity\n3  1\n")
    assert calls == [((4,), 1)]


def test_consistency_failure_without_cache_keeps_exit_3(tmp_path, capsys, monkeypatch):
    # the run without the file fails too, so the file is not to blame
    cache = tmp_path / "memo.json"
    code, _, _ = run(capsys, "branch", "--n", "4", "--type", "4", "--partition", "2",
                     "--cache", str(cache))
    assert code == 0
    monkeypatch.setattr(cli, "dim_irrep", lambda w: 0)
    code, _, err = run(capsys, "branch", "--n", "4", "--type", "4", "--partition", "2",
                       "--cache", str(cache))
    assert code == 3
    assert err.startswith("error: dimension mismatch")


def test_cache_save_failure_prints_no_answer(tmp_path, capsys):
    cache = tmp_path / "missing" / "memo.json"
    code, out, err = run(capsys, "branch", "--n", "4", "--type", "4", "--partition", "2",
                         "--cache", str(cache))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not cache.parent.exists()


def test_a_failed_cache_write_names_the_cache_path(tmp_path, capsys):
    # not the temporary file beside it, which the user never named
    cache = tmp_path / "missing" / "memo.json"
    code, _, err = run(capsys, "branch", "--n", "3", "--type", "3", "--partition", "2",
                       "--cache", str(cache))
    assert code == 2
    assert err == f"error: cannot write cache {cache}: No such file or directory\n"


def test_save_cache_failure_keeps_old_file(tmp_path, monkeypatch):
    cache = tmp_path / "memo.json"
    cli.save_cache(cache, {(4, (4,), (1,)): {3: 1}})
    before = cache.read_text()

    def broken(payload, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli.json, "dumps", broken)
    with pytest.raises(RuntimeError):
        cli.save_cache(cache, {(4, (4,), (2,)): {6: 1}})
    assert cache.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.json"]  # no temp file left
    assert cli.load_cache(cache, SubalgebraType((4,))) == {(4, (4,), (1,)): {3: 1}}


INT_LISTS = st.lists(st.integers(-2, 6), max_size=4).map(lambda xs: ",".join(map(str, xs)))
ODD_LISTS = st.sampled_from(["", ",", "a", "1,,2", "2;3"])
LISTS = st.one_of(INT_LISTS, ODD_LISTS)


def int_lists(size):
    """Lists of `size` entries from -2 to 6, as a command line spells them."""
    return st.lists(st.integers(-2, 6), min_size=size, max_size=size).map(
        lambda xs: ",".join(map(str, xs)))


@st.composite
def command_lines(draw):
    """An argv of the six commands, each option present or not; ranks up to
    8 or past the cap on types, lists of at most 4 entries, or a type of sl_n
    (two at a rank past the cap) or a weight of up to sl_5 as often, and
    verify sweeps up to 4 boxes on one job."""
    command = draw(st.sampled_from(["branch", "fundamental", "table", "pieri", "triple", "verify"]))
    n = draw(st.integers(-1, 10))
    if n > 8:  # one rank in six
        n = (cli.TYPE_MAX_N + 1, 999999999999)[n - 9]
        types = [str(n), f"{n - 1},1"]
    else:
        types = [",".join(map(str, t.blocks)) for t in all_types(n)] if n >= 2 else [""]
    argv = [command, "--n", str(n)]
    type_lists = st.one_of(LISTS, st.sampled_from(types))
    weights = st.one_of(LISTS, int_lists(n - 1)) if 2 <= n <= 5 else LISTS

    def option(name, values):  # present three times in four
        if draw(st.integers(0, 3)):
            argv.extend([name, draw(values)])

    if command in ("branch", "fundamental", "table", "triple"):
        option("--type", type_lists)
    if command in ("branch", "pieri"):
        option("--weight", weights)
    if command == "branch":
        option("--partition", LISTS)
    if command in ("fundamental", "pieri"):
        option("--k", st.integers(-3, 10).map(str))
    if command == "fundamental" and draw(st.booleans()):
        argv.append("--verify")
    if command in ("branch", "fundamental", "table"):
        option("--format", st.sampled_from(FORMATS))
    if command == "verify":
        option("--types", st.one_of(st.just("all"), ODD_LISTS,
                                    st.lists(type_lists, min_size=1, max_size=3).map(";".join)))
        option("--budget", st.integers(-1, 20).map(str))
        argv += ["--max-boxes", str(draw(st.integers(-1, 4))), "--jobs", "1"]
    return argv


@settings(max_examples=250, deadline=None)
@given(command_lines())
def test_every_command_line_exits_0_2_or_4_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
