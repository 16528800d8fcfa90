import os
import pickle
import subprocess
import sys
from operator import mul

import pytest

import branchkit
from branchkit import DominantWeight, SubalgebraType, all_types, build_triple, h_diagonal
from branchkit.subalgebra import is_principal


def bracket(a, b):
    """[a, b] = ab - ba of square matrices given as sequences of rows."""
    a_cols, b_cols = list(zip(*a)), list(zip(*b))
    return [[sum(map(mul, a_row, b_col)) - sum(map(mul, b_row, a_col))
             for a_col, b_col in zip(a_cols, b_cols)]
            for a_row, b_row in zip(a, b)]


def assert_sl2_brackets(H, X, Y):
    """[H, X] = 2X, [H, Y] = -2Y and [X, Y] = H, in plain integers."""
    assert bracket(H, X) == [[2 * x for x in row] for row in X]
    assert bracket(H, Y) == [[-2 * y for y in row] for row in Y]
    assert bracket(X, Y) == [list(row) for row in H]


def test_import_does_not_load_numpy():
    # no module needs numpy, and only verify needs the oracle; importing the
    # package and the CLI loads neither, nor dataclasses (with inspect, ast and
    # dis), and the oracle's exported names still resolve
    src = os.path.dirname(os.path.dirname(branchkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, branchkit, branchkit.cli\n"
        "print([m for m in ('numpy', 'dataclasses', 'branchkit.oracle') if m in sys.modules])\n"
        "from branchkit import oracle_branch, ssyt_count\n"
        "from branchkit import oracle\n"
        "assert oracle_branch is oracle.oracle_branch and ssyt_count is oracle.ssyt_count\n"
        "assert branchkit.oracle_branch is oracle.oracle_branch\n"
        "assert branchkit.BudgetExceededError is oracle.BudgetExceededError\n"
        "names = {}\n"
        "exec('from branchkit import *', names)\n"
        "assert set(branchkit.__all__) <= names.keys()\n"
        "assert names['oracle_branch'] is oracle.oracle_branch\n"
        "assert not hasattr(branchkit, 'no_such_name')\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.split("\n") == ["[]", "ok", ""]


def test_h_diagonal_examples():
    assert h_diagonal(SubalgebraType((4, 3))) == (3, 1, -1, -3, 2, 0, -2)
    assert h_diagonal(SubalgebraType((3, 2))) == (2, 0, -2, 1, -1)
    for n in range(2, 9):
        assert h_diagonal(SubalgebraType((n,))) == tuple(range(n - 1, -n, -2))


def test_h_diagonal_traceless():
    for n in range(2, 9):
        for t in all_types(n):
            h = h_diagonal(t)
            assert len(h) == n
            assert sum(h) == 0


def test_blocks_are_canonicalized():
    assert SubalgebraType((2, 3, 1)).blocks == (3, 2, 1)
    assert SubalgebraType((3, 2)) == SubalgebraType((2, 3))


def test_rank_is_stored_and_the_blocks_alone_make_the_type():
    t = SubalgebraType((2, 3, 1))
    assert t.n == 6
    assert repr(t) == "SubalgebraType(blocks=(3, 2, 1))"
    assert t == SubalgebraType((1, 2, 3))
    assert hash(t) == hash(((3, 2, 1),))  # the hash of the blocks alone
    assert t.__reduce_ex__(2)[2] == {"blocks": (3, 2, 1)}  # pickles as before
    u = pickle.loads(pickle.dumps(t))
    assert u == t and u.n == 6
    with pytest.raises(AttributeError):
        t.n = 7


# (value, an equal one built another way, an unequal one, its repr, the tuple it hashes as)
VALUES = [
    (SubalgebraType((2, 3, 1)), SubalgebraType(blocks=[1, 2, 3]), SubalgebraType((3, 3)),
     "SubalgebraType(blocks=(3, 2, 1))", ((3, 2, 1),)),
    (DominantWeight(4, (1, 0, 2)), DominantWeight(rank=4, coeffs=[1, 0, 2]),
     DominantWeight(4, (1, 0, 1)), "DominantWeight(rank=4, coeffs=(1, 0, 2))", (4, (1, 0, 2))),
]


@pytest.mark.parametrize("value, same, other, text, fields", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_value_classes_compare_hash_show_pickle_and_stay_frozen(value, same, other, text, fields):
    assert value == same and hash(value) == hash(same) == hash(fields)
    assert value != other and value != fields
    assert repr(value) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value) and copy == value and repr(copy) == text
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same and repr(value) == text


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        SubalgebraType((1, 1, 1))  # zero nilpotent
    with pytest.raises(ValueError):
        SubalgebraType((2, 0))
    with pytest.raises(ValueError):
        SubalgebraType(())


def test_block_sizes_must_be_integers():
    for blocks in ((2.7, 1), (2.0,), ("3",), (3, 1.5)):
        with pytest.raises(TypeError):
            SubalgebraType(blocks)
    # integer types that are not int still read exactly, as plain ints
    class Three:
        def __index__(self):
            return 3

    t = SubalgebraType((Three(), True))
    assert t.blocks == (3, 1) and all(type(d) is int for d in t.blocks)


def test_is_principal():
    assert is_principal(SubalgebraType((5,)))
    assert not is_principal(SubalgebraType((3, 2)))
    assert not is_principal(SubalgebraType((4, 3)))


def test_all_types_counts():
    # partitions of n minus the all-ones one
    assert [str(t) for t in all_types(4)] == ["[4]", "[3,1]", "[2,2]", "[2,1,1]"]
    assert len(all_types(5)) == 6
    assert len(all_types(8)) == 21


def test_standard_triple_size_two():
    assert build_triple(SubalgebraType((2,))) == (
        ((1, 0), (0, -1)),
        ((0, 1), (0, 0)),
        ((0, 0), (1, 0)),
    )


def test_triple_size_three_subdiagonal():
    H, X, Y = build_triple(SubalgebraType((3,)))
    assert Y[1][0] == 2 and Y[2][1] == 2  # 1*(3-1), 2*(3-2)
    assert bracket(X, Y) == [list(row) for row in H]


def test_triple_two_two_is_block_doubled():
    H, X, Y = build_triple(SubalgebraType((2, 2)))
    for two, four in zip(build_triple(SubalgebraType((2,))), (H, X, Y)):
        assert four == tuple(row + (0, 0) for row in two) + tuple((0, 0) + row for row in two)


def test_triple_bracket_identities_all_types():
    for n in range(2, 9):
        for t in all_types(n):
            H, X, Y = build_triple(t)
            assert_sl2_brackets(H, X, Y)
            assert tuple(H[i][i] for i in range(n)) == h_diagonal(t), t
            assert all(type(x) is int for m in (H, X, Y) for row in m for x in row), t
