import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub.cli import parse_and_dispatch


def run(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qmul_text(capsys):
    code, out, _ = run(capsys, "qmul", "G(2,4)", "2", "1,1")
    assert code == 0
    assert out == "q*1\n"


def test_qmul_json_matches_text(capsys):
    code, text_out, _ = run(capsys, "qmul", "G(2,4)", "1", "2,1")
    assert code == 0
    code, json_out, _ = run(capsys, "qmul", "G(2,4)", "1", "2,1", "--json")
    assert code == 0
    doc = json.loads(json_out)
    assert doc["schema"] == 1
    assert doc["command"] == "qmul"
    assert doc["space"]["notation"] == "G(2,4)"
    assert doc["result"]["terms"] == [
        {"q": 0, "partition": "2,2", "coeff": 1},
        {"q": 1, "partition": "0", "coeff": 1},
    ]
    # the text rendering is derived from exactly these terms
    assert text_out == "s[2,2] + q*1\n"


def test_count_output(capsys):
    code, out, _ = run(capsys, "count", "G(1,3)", "-d", "3", *(["2"] * 8))
    assert code == 0
    assert out == "GW = 12, r = 0, curves = 12\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "G(1,3)", "-d", "2", "1", *(["2"] * 5), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"gw": 2, "r": 1, "count": 1}


def test_gw_command(capsys):
    code, out, _ = run(capsys, "gw", "G(2,4)", "-d", "1", "1", "2,2", "2,1")
    assert code == 0
    assert out == "1\n"


def test_gw_degree_zero_three_point(capsys):
    code, out, _ = run(capsys, "gw", "G(2,4)", "-d", "0", "1", "1", "1,1")
    assert code == 0
    assert out == "1\n"


def test_lr_command(capsys):
    code, out, _ = run(capsys, "lr", "2,1", "2,1", "3,2,1")
    assert code == 0
    assert out == "2\n"


def test_nd_single_and_table(capsys):
    code, out, _ = run(capsys, "nd", "4")
    assert (code, out) == (0, "620\n")
    code, out, _ = run(capsys, "nd", "--upto", "4")
    assert code == 0
    assert out == "1: 1\n2: 1\n3: 12\n4: 620\n"


def test_nd_prints_integers_past_the_str_digit_limit(capsys, monkeypatch):
    from qschub import cli

    big = 7 * 10**4999 + 1
    monkeypatch.setattr(cli, "kontsevich_nd", lambda d: big)
    code, out, err = run(capsys, "nd", "5")
    assert (code, err) == (0, "")
    assert out == f"{big}\n"
    code, out, err = run(capsys, "nd", "5", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["value"] == big


def test_nd_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "nd")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "nd", "3", "--upto", "5")
    assert code == 2 and err.startswith("error:")


def test_basis_order(capsys):
    code, out, _ = run(capsys, "basis", "G(2,4)")
    assert code == 0
    assert out.splitlines() == ["0", "1", "2", "1,1", "2,1", "2,2"]


def test_info_type_a(capsys):
    code, out, _ = run(capsys, "info", "G(2,4)", "--json")
    doc = json.loads(out)
    assert code == 0
    result = doc["result"]
    assert result["dimension"] == 4
    assert result["c1_degree"] == 4
    assert result["critical_degree"] == 2
    assert result["basis_size"] == 6
    assert result["kernel_span"] == [
        {"d": 1, "kernel": 1, "span": 3},
        {"d": 2, "kernel": 0, "span": 4},
    ]


def run_child(env, *argv):
    return subprocess.run(
        [sys.executable, "-m", "qschub", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )


def test_closed_stdout_exits_2_with_one_line(child_env):
    # started as `qschub nd 5 >&-`: sys.stdout is None, and the write fails
    # like a broken pipe, not with an AttributeError traceback
    launcher = ("import os, sys; os.close(1); "
                "os.execv(sys.executable, [sys.executable, '-m', 'qschub', 'nd', '5'])")
    proc = subprocess.run([sys.executable, "-c", launcher], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=child_env, timeout=10)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: standard output is closed\n"


def test_info_basis_size_of_a_large_space(child_env):
    proc = run_child(child_env, "info", "G(40,80)", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["basis_size"] == comb(80, 40)


def test_info_isotropic(capsys):
    code, out, _ = run(capsys, "info", "OG(2,8)", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["k"] == 2
    assert result["critical_degree"] == 2


def test_pt_alias(capsys):
    code, out, _ = run(capsys, "qmul", "G(2,4)", "pt", "pt")
    assert code == 0
    assert out == "q^2*1\n"


def test_parse_errors_exit_2(capsys):
    for argv in (
        ["qmul", "G(2;4)", "1", "1"],
        ["qmul", "G(2,4)", "x", "1"],
        ["lr", "1,2", "1", "1"],
        ["unknowncmd"],
        ["info", "OG(1,2)"],
        ["gw", "G(2,4)", "-d", "-1", "2,2", "1,1", "2"],
        ["nd", "0"],
        ["nd", "--upto", "0"],
        ["nd", "--upto", "-3"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert len(err.strip().splitlines()) == 1, argv


@pytest.mark.parametrize("space, rule", [
    ("G(1,1)", "G(m,n) needs 1 <= m <= n-1"),
    ("G(0,0)", "G(m,n) needs 1 <= m <= n-1"),
    ("G(1,0)", "G(m,n) needs 1 <= m <= n-1"),
    ("OG(1,0)", "OG(m,N) with N even needs 1 <= m <= N/2"),
    ("OG(1,1)", "OG(m,N) with N odd needs 1 <= m <= (N-1)/2"),
    ("IG(1,0)", "IG(m,N) needs 1 <= m <= N/2"),
])
def test_a_space_with_no_valid_m_is_named_as_typed(capsys, space, rule):
    # no m fits, so the error names the space and its rule, not an empty
    # range of the internal n
    code, out, err = run(capsys, "info", space)
    assert (code, out, err) == (2, "", f"error: {space} names no space: {rule}\n")


def test_negative_degree_names_the_input(capsys):
    code, _, err = run(capsys, "gw", "G(2,4)", "-d", "-1", "2,2", "1,1", "2")
    assert (code, err) == (2, "error: degree must be >= 0, got -1\n")


def test_an_internal_check_failure_exits_1_with_one_line(capsys, monkeypatch):
    # one Seidel step too many trips quantum's grading guard; the command
    # line reports it in one stderr line, with no traceback and no answer
    from qschub import quantum

    lightest = quantum._lightest

    def one_step_late(lam, m, n):
        p, steps = lightest(lam, m, n)
        return p, steps + 1

    monkeypatch.setattr(quantum, "_lightest", one_step_late)
    quantum.clear_cache()
    try:
        code, out, err = run(capsys, "qmul", "G(2,5)", "1", "2,1")
    finally:
        quantum.clear_cache()
    assert (code, out) == (1, "")
    assert err.startswith("error: internal check failed: Seidel relabel of s[")
    assert err.endswith("; this is a bug\n") and err.count("\n") == 1
    assert "Traceback" not in err


def test_nd_over_the_work_limit_exits_4(capsys):
    from qschub.plane_curves import MAX_ND_DEGREE

    over = str(MAX_ND_DEGREE + 1)
    points = ["pt"] * (3 * (MAX_ND_DEGREE + 1) - 1)
    for argv in (
        ["nd", over],
        ["nd", "--upto", over],
        ["gw", "G(1,3)", "-d", over, *points],
        ["count", "G(1,3)", "-d", over, *points],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv[:3]
        assert err == f"error: N_d is computed for d <= 500 (work limit), got {over}\n"


def test_qtable_over_the_work_limit_exits_4(child_env):
    from qschub.cli import MAX_QTABLE_BASIS

    assert MAX_QTABLE_BASIS == 324
    proc = run_child(child_env, "qtable", "G(2,26)")
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: qtable is computed for basis size <= 324 (work limit), got 325\n"


def test_qmul_over_the_work_limit_exits_4(child_env):
    # about 14 s of LR expansion without the bound
    from qschub.cli import MAX_QMUL_BASIS

    proc = run_child(
        child_env, "qmul", "G(10,20)", "10,10,10,10,10,5,5,5,5,5", "10,9,8,7,6,5,4,3,2,1"
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        f"error: qmul is computed for basis size <= {MAX_QMUL_BASIS} (work limit), "
        f"got {comb(20, 10)}\n"
    )


def test_basis_over_the_work_limit_exits_4(child_env):
    from qschub.cli import MAX_BASIS

    assert MAX_BASIS == 200_000
    proc = run_child(child_env, "basis", "G(12,24)")
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        f"error: basis is computed for basis size <= 200000 (work limit), got {comb(24, 12)}\n"
    )


def test_basis_over_the_cell_limit_exits_4(child_env):
    # within MAX_BASIS, but about 16 s of listing without this bound
    from qschub.cli import MAX_BASIS_CELLS

    assert MAX_BASIS_CELLS == 4_000_000
    proc = run_child(child_env, "basis", "G(400,402)")
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        "error: basis is computed for basis size x rows <= 4000000 (work limit), "
        f"got {comb(402, 2) * 400}\n"
    )


def test_gw_and_count_over_the_work_limit_exit_4(child_env):
    # without the bound the gw call ran past 20 s and the count took 6 s
    from qschub.cli import MAX_QMUL_BASIS

    for argv in (
        ["gw", "G(10,20)", "-d", "0", "9,8,7,6,5,4,3,2,1", "9,8,7,6,5,4,3,2,1",
         "1,1,1,1,1,1,1,1,1,1"],
        ["count", "G(10,20)", "-d", "1", "10,10,10,10,10,5,5,5,5,5", "9,8,7,6,5,4,3,2", "1"],
    ):
        proc = run_child(child_env, *argv)
        assert (proc.returncode, proc.stdout) == (4, ""), argv[0]
        assert proc.stderr == (
            f"error: {argv[0]} is computed for basis size <= {MAX_QMUL_BASIS} (work limit), "
            f"got {comb(20, 10)}\n"
        )


def test_lr_over_the_work_limit_exits_4(child_env):
    # 9,8,...,1 squared onto twice itself takes about 20 s without the bound
    from qschub.cli import MAX_LR_CELLS

    assert MAX_LR_CELLS == 50
    stair = ",".join(str(k) for k in range(9, 0, -1))
    proc = run_child(child_env, "lr", stair, stair, ",".join(str(2 * k) for k in range(9, 0, -1)))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: lr is computed for |nu| <= 50 (work limit), got 90\n"


@pytest.mark.parametrize("argv, limit", [
    (["qmul", "G(1000000,2000000)", "1", "1"], 2000),
    (["basis", "G(1000000,2000000)"], 200000),
    (["gw", "G(1000000,2000000)", "-d", "1", "1", "1"], 2000),
    (["count", "G(1000000,2000000)", "-d", "1", "1", "1"], 2000),
    (["qtable", "G(1000000,2000000)"], 324),
])
def test_work_limit_of_a_huge_space_skips_the_full_binomial(child_env, argv, limit):
    # the exact C(2000000, 1000000) took 41 s to compute and 6 s more to print
    proc = run_child(child_env, *argv)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        f"error: {argv[0]} is computed for basis size <= {limit} (work limit), "
        "got more than 10^18\n"
    )
    assert len(proc.stderr.encode()) < 200


# the one message shape every work limit raises, on exactly one line
_WORK_LIMIT = re.compile(r"error: \S+ is computed for [^\n]+ <= \d+ \(work limit\), got [^\n]+\n")


@pytest.mark.parametrize("argv, got", [
    (["info", "G(20001,40002)"], "20001"),
    (["info", "IG(20001,40002)"], "20001"),
    (["info", "OG(40002,80005)"], "20001"),
    (["info", "G(20000,2337364)"], "50001"),
    (["basis", "G(8,21)"], "203490"),
    (["basis", "G(2000,2001)"], "4002000"),
    (["lr", "1", "50", "51"], "51"),
    (["qmul", "G(5,14)", "1", "1"], "2002"),
    (["gw", "G(5,14)", "-d", "1", "1", "1"], "2002"),
    (["count", "G(5,14)", "-d", "1", "1", "1"], "2002"),
    (["qtable", "G(2,26)"], "325"),
    (["nd", "501"], "501"),
    (["nd", "--upto", "501"], "501"),
])
def test_every_bounded_command_refuses_just_past_its_limit_at_once(child_env, argv, got):
    start = time.perf_counter()
    proc = run_child(child_env, *argv)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (4, "")
    assert _WORK_LIMIT.fullmatch(proc.stderr), proc.stderr
    assert proc.stderr.endswith(f", got {got}\n")
    assert elapsed < 1


def test_info_at_both_of_its_limits_answers(child_env):
    # 20,000 kernel/span lines and a C(n, m) of 50,000 digits
    proc = run_child(child_env, "info", "G(20000,2337363)", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)["result"]
    assert result["basis_size"] == comb(2337363, 20000)
    assert len(result["kernel_span"]) == 20000


def test_info_decides_its_digit_limit_on_the_exact_size(capsys):
    # C(n, 2) has 50,000 digits, though its float log sum rounds up to 50,000
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as the CLI does, to write n's 25,001 digits
    n = isqrt(2 * 10**50000)
    assert len(str(comb(n, 2))) == 50000
    code, out, err = run(capsys, "info", f"G(2,{n})", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["basis_size"] == comb(n, 2)
    code, out, err = run(capsys, "info", f"G(2,{n + 2})")
    assert (code, out) == (4, "")
    assert err == "error: info is computed for digits of C(n, m) <= 50000 (work limit), got 50001\n"


def test_gw_and_count_decide_their_digit_limit_on_d_to_the_r(capsys):
    # each s[1] multiplies the invariant by d, so 49,999 of them at d = 10
    # give a d^r of 50,000 digits and one more gives 50,001
    from qschub.plane_curves import kontsevich_nd

    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as the CLI does, to write the invariant
    points = ["2"] * 29
    code, out, err = run(capsys, "count", "G(1,3)", "-d", "10", *points, *["1"] * 49_999)
    assert (code, err) == (0, "")
    n10 = kontsevich_nd(10)
    assert out == f"GW = {10**49_999 * n10}, r = 49999, curves = {n10}\n"
    code, out, err = run(capsys, "count", "G(1,3)", "-d", "10", *points, *["1"] * 50_000)
    assert (code, out) == (4, "")
    assert err == "error: count is computed for digits of d^r <= 50000 (work limit), got 50001\n"
    # (10^20 - 1)^2500 has 50,000 digits, though its float logarithm is 50,000
    # exactly; past the digit limit the query is unbalanced
    for d, expected in ((10**20 - 1, 3), (10**20 + 1, 4)):
        code, out, err = run(capsys, "gw", "G(2,4)", "-d", str(d), *["1"] * 2500)
        assert (code, out) == (expected, ""), d
        assert ("digits of d^r" in err) == (expected == 4), err


@pytest.mark.parametrize("command, degree", [("qmul", []), ("gw", ["-d", "1"]),
                                             ("count", ["-d", "1"])])
def test_input_errors_come_before_the_basis_size_limit(capsys, command, degree):
    # G(10,20) is past MAX_QMUL_BASIS, yet a class out of its box, or one
    # that does not parse, is what gets reported
    for bad, expected in (
        ("11", (3, "error: partition 11 does not fit the 10x10 box of G(10,20)\n")),
        ("1,x", (2, "error: bad partition syntax: '1,x'\n")),
    ):
        code, out, err = run(capsys, command, "G(10,20)", *degree, "1", bad)
        assert (code, out, err) == (expected[0], "", expected[1]), (command, bad)


def test_info_of_a_huge_space_exits_4_at_once(child_env):
    for argv, err in (
        (["info", "G(1000000,2000000)"], "kernel/span lines <= 20000 (work limit), got 1000000"),
        (["info", "OG(200000,400001)"], "kernel/span lines <= 20000 (work limit), got 100000"),
        (["info", "G(100,1" + "0" * 600 + ")"], "digits of C(n, m) <= 50000 (work limit), got 59843"),
    ):
        start = time.perf_counter()
        proc = run_child(child_env, *argv)
        assert time.perf_counter() - start < 1, argv[1][:20]
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == f"error: info is computed for {err}\n"


def test_info_reads_each_kernel_span_pair_once(capsys, monkeypatch):
    from qschub.spaces import Grassmannian

    calls = []
    original = Grassmannian.kernel_span_dims

    def counted(self, d):
        calls.append(d)
        return original(self, d)

    monkeypatch.setattr(Grassmannian, "kernel_span_dims", counted)
    code, out, _ = run(capsys, "info", "G(3,7)")
    assert code == 0
    assert calls == [1, 2, 3]
    assert out.splitlines()[-3:] == [
        "kernel/span dims at d=1: (2, 4)",
        "kernel/span dims at d=2: (1, 5)",
        "kernel/span dims at d=3: (0, 6)",
    ]


def test_work_limits_share_one_check():
    from pathlib import Path

    import qschub
    from qschub.errors import NotComputableError, require_within

    require_within("x", "y", 5, 5)
    with pytest.raises(NotComputableError) as info:
        require_within("x", "y", 5, 6)
    assert str(info.value) == "x is computed for y <= 5 (work limit), got 6"
    package = Path(qschub.__file__).parent
    assert sum(p.read_text().count("(work limit)") for p in package.glob("*.py")) == 1


def test_gw_degree_zero_past_three_insertions_is_zero(capsys):
    # balanced: the integrand is pulled back from the space, past its dimension
    for argv in (
        ["gw", "G(2,4)", "-d", "0", "2,2", "1", "0", "0"],
        ["gw", "G(2,4)", "-d", "0", "2,2", "1", "1", "0", "0"],
        ["gw", "G(3,6)", "-d", "0", "3,3,3", "1", "1", "1", "0", "0"],
        ["gw", "G(1,3)", "-d", "0", "pt", "1", "0", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "0\n", ""), argv
    code, out, _ = run(capsys, "gw", "G(2,4)", "-d", "0", "2,2", "1", "0", "0", "--json")
    assert json.loads(out)["result"] == {"degree": 0, "insertions": ["2,2", "1", "0", "0"],
                                         "value": 0}


def test_gw_degree_zero_keeps_its_refusals(capsys):
    for argv, expected in (
        (["gw", "G(2,4)", "-d", "0", "1", "1", "1", "1"],
         (3, "error: codimensions sum to 4, moduli dimension is 5\n")),
        (["gw", "G(2,4)", "-d", "0", "1", "1"],
         (4, "error: degree-0 invariants are computed for at least 3 insertions\n")),
        (["gw", "G(10,20)", "-d", "0", "1", "1", "1", "1"],
         (4, f"error: gw is computed for basis size <= 2000 (work limit), got {comb(20, 10)}\n")),
        (["gw", "G(2,4)", "-d", "0", "3", "1", "1", "1"],
         (3, "error: partition 3 does not fit the 2x2 box of G(2,4)\n")),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (expected[0], "", expected[1]), argv


def test_deep_boxes_answer_or_exit_4(child_env):
    def ones(k):
        return ",".join(["1"] * k)

    proc = run_child(child_env, "qmul", "G(1999,2000)", "1", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "s[1,1]\n", "")
    # computed on G(1,2000), where it is s[1000] * s[999] = s[1999]; it ran past
    # 60 s on the 1999-row box itself
    proc = run_child(child_env, "qmul", "G(1999,2000)", ones(1000), ones(999))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"s[{ones(1999)}]\n", "")
    proc = run_child(child_env, "gw", "G(1999,2000)", "-d", "0", "1", "1", ones(1997))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
    for argv in (["basis", "G(1999,2000)"], ["lr", "1", ones(1998), ones(1999)]):
        proc = run_child(child_env, *argv)
        assert proc.returncode in (0, 4), argv[0]
        assert len(proc.stderr.splitlines()) <= 1, argv[0]
        assert "Traceback" not in proc.stderr, argv[0]


def test_box_violation_exits_3(capsys):
    code, _, err = run(capsys, "qmul", "G(2,4)", "3", "1")
    assert code == 3
    assert "does not fit" in err


def test_unbalanced_exits_3(capsys):
    code, _, err = run(capsys, "gw", "G(2,4)", "-d", "1", "1", "1", "1")
    assert code == 3
    assert "moduli dimension" in err


def test_isotropic_exits_4(capsys):
    code, _, err = run(capsys, "gw", "IG(2,6)", "-d", "1", "1", "1", "1")
    assert code == 4
    assert err == "error: isotropic quantum products out of scope\n"


def test_not_computable_exits_4(capsys):
    code, _, err = run(capsys, "count", "G(2,4)", "-d", "2", "2,2", "2,2", "2,1", "2")
    assert code == 4
    assert "out of scope" in err


def test_byte_identical_repeat(capsys):
    first = run(capsys, "qtable", "G(2,4)")
    second = run(capsys, "qtable", "G(2,4)")
    assert first == second


def test_qtable_row_order(capsys):
    code, out, _ = run(capsys, "qtable", "G(1,3)", "--json")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [(r["left"], r["right"]) for r in rows[:4]] == [
        ("0", "0"),
        ("0", "1"),
        ("0", "2"),
        ("1", "0"),
    ]
    by_pair = {(r["left"], r["right"]): r["terms"] for r in rows}
    assert by_pair[("2", "2")] == [{"q": 1, "partition": "1", "coeff": 1}]


def qtable_by_payload(space, as_json):
    """qtable's output built as it was before rows were streamed: a payload
    of every row with its _terms_json terms, then one json.dumps(doc,
    indent=2) of the whole document, or one text line per row."""
    from qschub.cli import SCHEMA_VERSION, _terms_json
    from qschub.partitions import format_partition
    from qschub.quantum import QuantumClass, product_table

    rows = [
        {"left": format_partition(lam), "right": format_partition(mu),
         "terms": _terms_json(QuantumClass(space, terms))}
        for lam, row in product_table(space) for mu, terms in row.items()
    ]
    if as_json:
        doc = {"schema": SCHEMA_VERSION, "command": "qtable", "space": space.to_json(),
               "result": {"rows": rows}}
        return json.dumps(doc, indent=2) + "\n"
    return qtable_text(rows)


def qtable_text(rows):
    """The text qtable prints for the rows of its decoded --json document."""
    from qschub.quantum import format_terms

    return "".join(
        f"s[{row['left']}] * s[{row['right']}] = "
        f"{format_terms((t['q'], t['partition'], t['coeff']) for t in row['terms'])}\n"
        for row in rows
    )


# every G(m,n) with C(n,m) <= 20, then the benchmark's two spaces
STREAMED_SPACES = [(m, n) for n in range(2, 21) for m in range(1, n) if comb(n, m) <= 20]
STREAMED_SPACES += [(3, 8), (5, 8)]


@pytest.mark.parametrize("mode", ["text", "json", "file"])
def test_qtable_streams_the_bytes_of_the_whole_document(tmp_path, capsys, mode):
    from qschub.spaces import grassmannian

    assert len(STREAMED_SPACES) == 45
    target = tmp_path / "table.json"
    for m, n in STREAMED_SPACES:
        argv = ["qtable", f"G({m},{n})"]
        if mode != "text":
            argv.append("--json")
        if mode == "file":
            argv += ["-o", str(target)]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        expected = qtable_by_payload(grassmannian(m, n), mode != "text")
        if mode == "file":
            assert out == ""
            out = target.read_bytes().decode("utf-8")
        assert out == expected, argv


def test_qtable_past_its_limit_opens_no_output_file(tmp_path, capsys):
    from qschub.cli import MAX_QTABLE_BASIS

    target = tmp_path / "table.json"
    for space in ("G(1000000,2000000)", "G(2,26)"):
        code, out, err = run(capsys, "qtable", space, "--json", "-o", str(target))
        assert (code, out) == (4, ""), space
        assert err.startswith(f"error: qtable is computed for basis size <= {MAX_QTABLE_BASIS} ")
        assert not target.exists()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_qtable_unwritable_output_exits_2_with_the_os_error(tmp_path, capsys, where):
    if where == "missing":
        target, reason = tmp_path / "no" / "x.json", "[Errno 2] No such file or directory"
    else:
        target, reason = tmp_path, "[Errno 21] Is a directory"
    code, out, err = run(capsys, "qtable", "G(2,4)", "--json", "-o", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {reason}: '{target}'\n"


def test_json_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "nd", "3", "--json", "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"] == {"d": 3, "value": 12}


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "x.json" if where == "missing" else tmp_path
    code, out, err = run(capsys, "basis", "G(2,4)", "--json", "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(target) in err
    assert len(err.splitlines()) == 1


def test_output_flag_requires_json(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, err = run(capsys, "nd", "3", "-o", str(target))
    assert code == 2
    assert "requires --json" in err
    assert not target.exists()


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "qschub" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "G(2,4)"],
        ["info", "OG(3,9)"],
        ["basis", "G(2,5)"],
        ["lr", "2,1", "2,1", "3,2,1"],
        ["qmul", "G(2,4)", "1", "2,1"],
        ["qtable", "G(1,3)"],
        ["gw", "G(2,4)", "-d", "1", "2,2", "1,1", "2"],
        ["count", "G(1,3)", "-d", "2", "1", "2", "2", "2", "2", "2"],
        ["nd", "5"],
        ["nd", "--upto", "3"],
        ["selfcheck", "quick"],
    ],
)
def test_json_and_text_encode_identical_data(capsys, argv):
    from qschub.cli import render_text

    text_code, text_out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, *argv, "--json")
    assert text_code == json_code
    doc = json.loads(json_out)
    if doc["command"] == "qtable":  # streamed, so the CLI keeps no renderer for the document
        rebuilt = qtable_text(doc["result"]["rows"])
    else:
        rebuilt = "".join(line + "\n" for line in render_text(doc["command"], doc["result"]))
    assert rebuilt == text_out


_FUZZ_SPACES = st.sampled_from(
    ["G(2,4)", "G(1,3)", "G(3,3)", "G(0,3)", "G(4,2)", "IG(2,5)", "IG(2,6)", "OG(1,2)",
     "OG(3,9)", "G(2", "H(2,4)", "x"]
)
_FUZZ_CLASSES = st.lists(
    st.sampled_from(["pt", "0", "1", "2", "1,1", "2,1", "1,2", "2,2", "a", "-1", ""]), max_size=4
)
_FUZZ_DEGREES = st.integers(-1, 3).map(str)
_FUZZ_ARGV = st.one_of(
    st.tuples(st.sampled_from(["info", "basis", "qtable"]), _FUZZ_SPACES).map(list),
    st.tuples(st.just("lr"), _FUZZ_CLASSES).map(lambda t: [t[0], *t[1]]),
    st.tuples(st.just("qmul"), _FUZZ_SPACES, _FUZZ_CLASSES).map(lambda t: [t[0], t[1], *t[2]]),
    st.tuples(st.sampled_from(["gw", "count"]), _FUZZ_SPACES, _FUZZ_DEGREES, _FUZZ_CLASSES).map(
        lambda t: [t[0], t[1], "-d", t[2], *t[3]]
    ),
    st.tuples(st.sampled_from([[], ["--upto"]]), _FUZZ_DEGREES).map(lambda t: ["nd", *t[0], t[1]]),
    st.just(["nd"]),
    st.sampled_from([["selfcheck"], ["selfcheck", "quick"], ["selfcheck", "paranoid"]]),
)


@settings(max_examples=200, deadline=None)
@given(_FUZZ_ARGV, st.booleans())
def test_every_argv_exits_with_a_defined_code_and_one_error_line(argv, as_json):
    argv = argv + ["--json"] if as_json else argv
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = parse_and_dispatch(argv)
    assert code in {0, 2, 3, 4} or (code, argv[0]) == (1, "selfcheck"), argv
    assert len(err.getvalue().splitlines()) <= 1, argv
    if code in {2, 3, 4}:
        assert out.getvalue() == "", argv


@pytest.mark.parametrize("argv, err", [
    (("lr", "1_0", "1", "1_1"), "error: bad partition syntax: '1_0'\n"),
    (("qmul", "G(2,4)", "1_0", "1"), "error: bad partition syntax: '1_0'\n"),
    (("qmul", "G(2,4)", "١", "1"), "error: bad partition syntax: '١'\n"),
    (("qmul", "G(2,4)", "1,２", "1"), "error: bad partition syntax: '1,２'\n"),
    (("qmul", "G(2,4)", "+1", "1"), "error: bad partition syntax: '+1'\n"),
    (("gw", "G(2,4)", "-d", "1", "2,2", "1,1", "٢"), "error: bad partition syntax: '٢'\n"),
    (("qmul", "G(٢,٤)", "1", "1"), "error: bad space syntax: 'G(٢,٤)'\n"),
    (("qtable", "G(2,４)"), "error: bad space syntax: 'G(2,４)'\n"),
    (("gw", "G(2,4)", "-d", "0_1", "1", "1", "2"),
     "error: argument -d/--degree: invalid int value: '0_1'\n"),
    (("gw", "G(2,4)", "-d", "+1", "2,2", "1,1", "2"),
     "error: argument -d/--degree: invalid int value: '+1'\n"),
    (("count", "G(2,4)", "-d", "١", "2,2", "1,1", "2"),
     "error: argument -d/--degree: invalid int value: '١'\n"),
    (("nd", "٣"), "error: argument D: invalid int value: '٣'\n"),
    (("nd", "--upto", "1_0"), "error: argument --upto: invalid int value: '1_0'\n"),
    (("nd", "--upto", "-٣"), "error: argument --upto: invalid int value: '-٣'\n"),
])
def test_partition_and_space_text_take_ascii_digits_only(capsys, argv, err):
    # int() alone reads "1_0" as 10, "+1" as 1 and other scripts' digits as
    # digits; each is a syntax error, exit 2 with one line, in a partition,
    # a space or an integer option
    assert run(capsys, *argv) == (2, "", err)


def test_partition_pieces_may_be_padded_with_spaces(capsys):
    assert run(capsys, "qmul", "G(2,4)", " 1 , 1 ", "1") == (0, "s[2,1]\n", "")
