import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eulerlab import series
from eulerlab.cli import COMMANDS, MAX_N, MAX_ORDER, main, parse_n_range, record_to_plain
from eulerlab.partitions import PartitionClass
from eulerlab.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- count


def test_count_single(capsys):
    code, out, _ = run(capsys, "count", "--class", "C", "--n", "7")
    assert code == 0
    assert out == "7 C 4\n"


def test_count_weight_zero(capsys):
    code, out, _ = run(capsys, "count", "--class", "A", "--n", "0")
    assert code == 0
    assert out == "0 A 1\n"


def test_count_range_matches_enumeration(capsys):
    code, out, _ = run(capsys, "count", "--class", "D", "--n", "2..8", "--method", "enumeration")
    assert code == 0
    got = [int(line.split()[2]) for line in out.splitlines()]
    assert got == [2, 2, 4, 4, 6, 8, 10]
    code, out2, _ = run(capsys, "count", "--class", "D", "--n", "2..8")
    assert [int(line.split()[2]) for line in out2.splitlines()] == got


def test_count_bad_range(capsys):
    code, _, err = run(capsys, "count", "--class", "A", "--n", "8..2")
    assert code == 2
    assert "error" in err


def test_parse_n_range():
    assert parse_n_range("7") == (7,)
    assert parse_n_range("2..5") == (2, 3, 4, 5)


def test_count_n_limit(capsys):
    code, out, _ = run(capsys, "count", "--class", "A", "--n", f"{MAX_N - 1}..{MAX_N}")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [str(MAX_N - 1), str(MAX_N)]
    for n in (str(MAX_N + 1), f"0..{MAX_N + 1}", "0..1000000000"):
        code, out, err = run(capsys, "count", "--class", "A", "--n", n)
        assert code == 2, n
        assert out == ""
        assert f"at most {MAX_N}" in err


def test_count_class_c_at_n_limit(capsys):
    # The default dynamic program against the series coefficients.
    n = f"{MAX_N - 1}..{MAX_N}"
    code, out, _ = run(capsys, "count", "--class", "C", "--n", n)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [str(MAX_N - 1), str(MAX_N)]
    code, by_series, _ = run(
        capsys, "count", "--class", "C", "--n", n, "--method", "series-coefficient"
    )
    assert code == 0
    assert out == by_series


# int() would read each of these as a number: "٣" and "١٠" are
# Arabic-Indic 3 and 10, "1_0" is 10.
NOT_ASCII_INTS = ["٣", "١٠", "1_0"]
INT_OPTIONS = [
    ("count", "--class", "A", "--n", "3", "--method", "enumeration", "--cutoff"),
    ("enumerate", "--class", "A", "--n", "3", "--cutoff"),
    ("verify", "--identity", "euler_AB", "--order"),
    ("series", "--class", "A", "--order"),
    ("map", "--bijection", "d-lift", "5+1", "--bit"),
]


@pytest.mark.parametrize("text", NOT_ASCII_INTS + ["1_0..12", "3..٥", " 7"])
def test_n_accepts_only_ascii_digits(capsys, text):
    for sub in ("count", "enumerate"):
        code, out, err = run(capsys, sub, "--class", "A", "--n", text)
        assert code == 2, sub
        assert out == ""
        assert f"bad n range {text!r}" in err


@pytest.mark.parametrize("text", NOT_ASCII_INTS)
@pytest.mark.parametrize("argv", INT_OPTIONS, ids=lambda argv: argv[-1].lstrip("-"))
def test_int_options_accept_only_ascii_digits(capsys, argv, text):
    code, out, err = run(capsys, *argv, text)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-1]}: invalid int value: {text!r}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("count", "--class", "A", "--n", "-3"), "error: empty or negative n range '-3'"),
        (("count", "--class", "A", "--n", "x"), "error: bad n range 'x'"),
        (("verify", "--identity", "euler_AB", "--order", "ten"), "invalid int value: 'ten'"),
        (("verify", "--identity", "euler_AB", "--order", "-5"), f"must be in 1..{MAX_ORDER}"),
    ],
)
def test_bad_integer_messages_are_kept(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


# ------------------------------------------------------------- enumerate


def test_enumerate_d7_matches_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "D", "--n", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert set(lines) == {
        "0+0+7",
        "0+0+6+1",
        "0+0+5+2",
        "0+0+4+3",
        "0+0+4+2+1",
        "1+1+5",
        "1+1+2+3",
        "2+2+3",
    }


def test_enumerate_simple(capsys):
    assert run(capsys, "enumerate", "--class", "A", "--n", "1")[1] == "1\n"
    assert run(capsys, "enumerate", "--class", "C", "--n", "2")[1] == "2\n"


def test_enumerate_cutoff_exit_2(capsys):
    code, out, err = run(capsys, "enumerate", "--class", "A", "--n", "99")
    assert code == 2
    assert out == ""  # refused before any partition is printed
    assert "cutoff" in err


def test_enumerate_rejects_range(capsys):
    code, _, _ = run(capsys, "enumerate", "--class", "A", "--n", "2..4")
    assert code == 2


def test_cutoff_flag_is_capped(capsys):
    code, _, err = run(capsys, "enumerate", "--class", "A", "--n", "5", "--cutoff", "500")
    assert code == 2
    assert "cutoff" in err


# ------------------------------------------------------------------- map


@pytest.mark.parametrize(
    "bijection,text,expected",
    [
        ("c2b", "2+2+2+1", "1+1+1+1+1+1"),
        ("glaisher", "6", "3+3"),
        ("glaisher-inv", "3+1+1+1", "3+2+1"),
        ("b2c", "3+1+1+1", "4+2+1"),
    ],
)
def test_map_examples(capsys, bijection, text, expected):
    code, out, _ = run(capsys, "map", "--bijection", bijection, text)
    assert code == 0
    assert out == expected + "\n"


def test_map_d_reduce_reports_case_and_bit(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "d-reduce", "0+0+7")
    assert code == 0
    assert out == "6 (case 1, bit 0)\n"
    code, out, _ = run(capsys, "map", "--bijection", "d-reduce", "1+1+5")
    assert out == "5+1 (case 3, bit 1)\n"


def test_map_d_lift_renders_class_d(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "d-lift", "--bit", "1", "5+1")
    assert code == 0
    assert out == "1+1+5\n"
    code, out, _ = run(capsys, "map", "--bijection", "d-lift", "--bit", "0", "6")
    assert out == "0+0+7\n"


# The json-lines record of each bijection, d-reduce once per case.
MAP_RECORDS = [
    (["glaisher", "6"], {"input": [6], "parts": [3, 3], "output_class": "B"}),
    (["glaisher-inv", "3+1+1+1"], {"input": [3, 1, 1, 1], "parts": [3, 2, 1], "output_class": "A"}),
    (
        ["d-reduce", "0+0+7"],
        {
            "input": [7],
            "parts": [6],
            "output_class": "A",
            "case": "single_part",
            "case_number": 1,
            "bit": 0,
        },
    ),
    (
        ["d-reduce", "2+2+3"],
        {
            "input": [3, 2, 2],
            "parts": [3, 2, 1],
            "output_class": "A",
            "case": "smallest_above_one",
            "case_number": 2,
            "bit": 0,
        },
    ),
    (
        ["d-reduce", "1+1+5"],
        {
            "input": [5, 1, 1],
            "parts": [5, 1],
            "output_class": "A",
            "case": "smallest_equals_one",
            "case_number": 3,
            "bit": 1,
        },
    ),
    (["d-lift", "--bit", "0", "5+1"], {"input": [5, 1], "parts": [5, 2], "output_class": "D"}),
    (["d-lift", "--bit", "1", "5+1"], {"input": [5, 1], "parts": [5, 1, 1], "output_class": "D"}),
    (["c2b", "2+2+2+1"], {"input": [2, 2, 2, 1], "parts": [1] * 6, "output_class": "B"}),
    (["b2c", "3+1+1+1"], {"input": [3, 1, 1, 1], "parts": [4, 2, 1], "output_class": "C"}),
]


@pytest.mark.parametrize("argv,fields", MAP_RECORDS, ids=[" ".join(a) for a, _ in MAP_RECORDS])
def test_map_json_lines_record(capsys, argv, fields):
    code, out, err = run(capsys, "map", "--bijection", *argv, "--format", "json-lines")
    record = {"type": "map", "bijection": argv[0], **fields}
    assert (code, out, err) == (0, json.dumps(record, sort_keys=True) + "\n", "")


BIT_IGNORED = [argv for argv, _ in MAP_RECORDS if argv[0] != "d-lift"]


@pytest.mark.parametrize("argv", BIT_IGNORED, ids=[" ".join(argv) for argv in BIT_IGNORED])
@pytest.mark.parametrize("fmt", ["plain", "json-lines"])
def test_map_ignores_bit_except_for_d_lift(capsys, argv, fmt):
    without = run(capsys, "map", "--bijection", *argv, "--format", fmt)
    assert without[0] == 0
    for bit in ("0", "1"):
        assert run(capsys, "map", "--bijection", *argv, "--bit", bit, "--format", fmt) == without


def test_map_class_violation_exit_1(capsys):
    code, _, err = run(capsys, "map", "--bijection", "c2b", "3+3")
    assert code == 1
    assert "class C" in err


def test_map_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "map", "--bijection", "c2b", "x+3")
    assert code == 2
    assert "bad part" in err


@pytest.mark.parametrize("text", ["\u0663+1", "\u00b2", "3+\uff11"])
def test_map_non_ascii_digits_exit_2(capsys, text):
    code, out, err = run(capsys, "map", "--bijection", "glaisher", text)
    assert code == 2
    assert out == ""
    assert "bad part" in err


def test_map_zero_parts_only_for_d_input(capsys):
    code, _, _ = run(capsys, "map", "--bijection", "glaisher", "0+0+6")
    assert code == 2


def test_map_d_lift_needs_bit(capsys):
    code, _, err = run(capsys, "map", "--bijection", "d-lift", "5+1")
    assert code == 2
    assert "--bit" in err


def test_map_weight_at_limit(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "glaisher", str(MAX_N))
    assert code == 0
    assert out == "+".join(["125"] * 8) + "\n"  # 1000 = 2^3 * 125


@pytest.mark.parametrize(
    "bijection,text",
    [
        ("glaisher", str(MAX_N + 1)),
        ("d-reduce", f"0+0+{MAX_N + 1}"),
        ("glaisher", str(2**40)),
        ("c2b", f"{2**40}+{2**40}"),
    ],
)
def test_map_weight_above_limit_exit_2(capsys, bijection, text):
    # Glaisher's split makes 2^k parts of the part 2^k: unbounded, 2^40 ran
    # out of memory.
    code, out, err = run(capsys, "map", "--bijection", bijection, text)
    assert code == 2
    assert out == ""
    assert err == f"error: partition weight must be at most {MAX_N}\n"


# ---------------------------------------------------------------- verify


def test_verify_pass_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "euler_AB", "--order", "50")
    assert code == 0
    assert out == "euler_AB order=50 PASS\n"


def test_verify_half_d_tiny_order(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "half_D", "--order", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_thm_all(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "thm_all", "--order", "40")
    assert code == 0


def test_verify_unknown_identity_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--identity", "everything")
    assert code == 2


def test_verify_bad_order_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--identity", "euler_AB", "--order", "0")
    assert code == 2


def test_order_limit(capsys):
    code, out, _ = run(capsys, "series", "--class", "A", "--order", str(MAX_ORDER))
    assert code == 0
    assert len(out.splitlines()) == MAX_ORDER + 1
    for argv in (
        ("series", "--class", "A"),
        ("verify", "--identity", "thm_all"),
    ):
        code, out, err = run(capsys, *argv, "--order", str(MAX_ORDER + 1))
        assert code == 2, argv
        assert out == ""
        assert f"1..{MAX_ORDER}" in err


# ---------------------------------------------------------------- series


def test_series_dump_golden(capsys):
    code, out, _ = run(capsys, "series", "--class", "C", "--order", "7")
    assert code == 0
    assert out == "0\t1\n1\t0\n2\t1\n3\t1\n4\t2\n5\t2\n6\t3\n7\t4\n"


def test_series_form_and_stage(capsys):
    code, out, _ = run(capsys, "series", "--form", "odd_poch_ratio", "--order", "4")
    assert code == 0
    assert out.splitlines()[0] == "0\t1"
    code, out, _ = run(capsys, "series", "--stage", "final", "--order", "4")
    assert code == 0
    assert out.splitlines()[0] == "0\t2"  # stages are doubled


def test_series_requires_exactly_one_source(capsys):
    code, _, _ = run(capsys, "series", "--order", "5")
    assert code == 2
    code, _, _ = run(capsys, "series", "--class", "A", "--form", "odd_poch_ratio")
    assert code == 2


# ------------------------------------------------------- output contracts


def test_determinism_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "enumerate", "--class", "D", "--n", "9", "--format", "json-lines")
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--class", "C", "--n", "5..9"),
        ("enumerate", "--class", "D", "--n", "7"),
        ("enumerate", "--class", "A", "--n", "0"),
        ("map", "--bijection", "d-reduce", "2+2+3"),
        ("map", "--bijection", "b2c", "3+3"),
        ("verify", "--identity", "shift_BC", "--order", "30"),
        ("series", "--class", "B", "--order", "6"),
        ("selftest", "--only", "golden_table"),
    ],
)
def test_json_lines_round_trip_to_plain(capsys, argv):
    code_plain, plain, _ = run(capsys, *argv, "--format", "plain")
    code_json, jsonl, _ = run(capsys, *argv, "--format", "json-lines")
    assert code_plain == code_json
    regenerated = [record_to_plain(json.loads(line)) for line in jsonl.splitlines()]
    assert regenerated == plain.splitlines()


def test_failing_verify_round_trips_to_plain(capsys, monkeypatch):
    original = series.gf_class

    def perturbed(cls, order):
        result = original(cls, order)
        if cls is not PartitionClass.C:
            return result
        coeffs = list(result.coeffs)
        coeffs[5] += 1
        return TruncatedSeries(coeffs, result.order)

    monkeypatch.setattr(series, "gf_class", perturbed)
    argv = ("verify", "--identity", "half_D", "--order", "30")
    code_plain, plain, _ = run(capsys, *argv, "--format", "plain")
    code_json, jsonl, _ = run(capsys, *argv, "--format", "json-lines")
    assert code_plain == code_json == 1
    record = json.loads(jsonl)
    assert record["context"]
    assert record_to_plain(record) + "\n" == plain
    # Keys beyond the verify fields are ignored.
    assert record_to_plain({**record, "elapsed_s": 0.5}) + "\n" == plain


def test_selftest_single_criterion(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "golden_table")
    assert code == 0
    assert out == "[PASS] golden_table\n"


def test_usage_error_exit_2(capsys):
    assert run(capsys, "count", "--class", "Z", "--n", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_empty_class_exit_2(capsys):
    # The choices are the four letters, not the string "ABCD", so argparse
    # rejects its substrings, "" among them, with its own usage message.
    for text in ("", "AB"):
        invalid = f"invalid choice: {text!r} (choose from 'A', 'B', 'C', 'D')\n"
        for argv in (("count", "--n", "3"), ("enumerate", "--n", "3"), ("series",)):
            code, out, err = run(capsys, *argv, "--class", text)
            assert (code, out) == (2, "")
            assert err.startswith(f"usage: eulerlab {argv[0]} ")
            assert err.endswith(f"eulerlab {argv[0]}: error: argument --class: {invalid}")


# ------------------------------------------------------------ edge cases

# stdout, stderr and exit code of each call, recorded when every call still
# constructed all six subcommand parsers and built the arguments of all six.
# Help and usage text is argparse's, at 80 columns, as Python 3.11 formats
# it.  The argv of "-x count ..." and "--format count count ..." reach the
# count subcommand although argv[0] does not name it.
EDGE_CASES = json.loads((Path(__file__).parent / "cli_edge_cases.json").read_text("utf-8"))


def edge_case_id(case: dict) -> str:
    return ("tuple " if case["tuple"] else "") + (" ".join(case["argv"]) or "[]")


def replay(capsys, case: dict) -> tuple[int, str, str]:
    argv = tuple(case["argv"]) if case["tuple"] else case["argv"]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def recorded(case: dict) -> tuple[int, str, str]:
    return case["exit"], case["stdout"], case["stderr"]


@pytest.mark.parametrize("case", EDGE_CASES, ids=edge_case_id)
def test_edge_case_output_is_kept(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert replay(capsys, case) == recorded(case)


def test_edge_cases_replay_in_one_process(capsys, monkeypatch):
    # No call may leave state behind that changes a later call's output,
    # whatever came before it: the cases run forwards, then backwards.
    monkeypatch.setenv("COLUMNS", "80")
    for case in EDGE_CASES + EDGE_CASES[::-1]:
        assert replay(capsys, case) == recorded(case), edge_case_id(case)


# How many ArgumentParser objects one main call constructs: the top-level
# parser, and a subcommand's own only once argparse dispatches to it.
PARSERS_CONSTRUCTED = [([name, "--help"], 2) for name in COMMANDS] + [
    (["count", "--class", "A", "--n", "3"], 2),
    (["count", "--class", "A"], 2),
    (["count", "--class", "Z", "--n", "3"], 2),
    (["count", "--class", "A", "--n", "3", "--bogus"], 2),
    (["-x", "count", "--class", "B", "--n", "2"], 2),
    (["verify", "--identity", "euler_AB", "--order", "5", "--format", "json-lines"], 2),
    ([], 1),
    (["--help"], 1),
    (["-h", "count"], 1),
    (["bogus"], 1),
    (["cou", "--class", "A", "--n", "1"], 1),
    (["-1"], 1),
]


@pytest.mark.parametrize(
    "argv,constructed",
    PARSERS_CONSTRUCTED,
    ids=[" ".join(argv) or "[]" for argv, _ in PARSERS_CONSTRUCTED],
)
def test_a_call_constructs_only_the_dispatched_parser(capsys, monkeypatch, argv, constructed):
    init = argparse.ArgumentParser.__init__
    parsers = []

    def counting_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    main(argv)
    capsys.readouterr()
    assert len(parsers) == constructed


# ------------------------------------------------------------ cold start

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by(code: str) -> set[str]:
    """Modules that a fresh interpreter adds to sys.modules while running code."""
    script = f"import sys\nbefore = set(sys.modules)\n{code}\n"
    script += "print(*sorted(set(sys.modules) - before))"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_cold_count_loads_no_series_maps_or_acceptance():
    count = "from eulerlab.cli import main\nmain(['count', '--class', 'A', '--n', '1'] + {})"
    loaded = loaded_by(count.format([]))
    assert "eulerlab.partitions" in loaded
    forbidden = {"eulerlab.series", "eulerlab.acceptance", "eulerlab.maps", "dataclasses", "json"}
    assert not loaded & forbidden
    assert "json" in loaded_by(count.format(["--format", "json-lines"]))


def test_cold_verify_loads_series_only():
    loaded = loaded_by(
        "from eulerlab.cli import main\nmain(['verify', '--identity', 'euler_AB', '--order', '5'])"
    )
    assert "eulerlab.series" in loaded
    assert not loaded & {"eulerlab.acceptance", "eulerlab.maps"}


def test_no_module_loads_dataclasses():
    paths = (SRC / "eulerlab").glob("*.py")
    modules = sorted(f"eulerlab.{path.stem}" for path in paths if path.stem != "__init__")
    loaded = loaded_by(f"import {', '.join(modules)}")
    assert set(modules) <= loaded
    assert "dataclasses" not in loaded
