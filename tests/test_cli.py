"""Tests for the command line front end."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import affinesl2
from affinesl2.cli import run
from affinesl2.qseries import character, numeric_eval


def _capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out.splitlines()


def test_genus_prints_the_value(capsys):
    code, lines = _capture(capsys, ["genus", "--prime", "7"])
    assert code == 0 and lines == ["601"]


def test_genus_rejects_bad_primes(capsys):
    assert run(["genus", "--prime", "12"]) == 2
    assert run(["genus", "--prime", "13"]) == 2


def test_eval_level_one_s_matrix(capsys):
    """rho(S) at level 1 is (1/sqrt 2) [[1, 1], [1, -1]], exact and float."""
    code, lines = _capture(capsys, ["eval", "--level", "1", "--matrix", "[[0,-1],[1,0]]"])
    assert code == 0
    assert "dispatch theorem1" in lines
    exact = {}
    floats = {}
    for line in lines:
        if line.startswith("rho_float "):
            _, i, j, val = line.split()
            floats[(int(i), int(j))] = val
        elif line.startswith("rho "):
            _, i, j, rest = line.split(maxsplit=3)
            exact[(int(i), int(j))] = json.loads(rest)
    assert len(exact) == 4 and len(floats) == 4
    root_half = 0.7071067811865476
    for (i, j), d in exact.items():
        sign = -1 if (i, j) == (2, 2) else 1
        approx = complex(d["approx"][0], d["approx"][1])
        assert abs(approx - sign * root_half) < 1e-12
        assert d["order"] == 24
    assert floats[(1, 1)].startswith("+7.071067811865e-01")
    assert floats[(2, 2)].startswith("-7.071067811865e-01")


def test_eval_paths_agree(capsys):
    """--path closed and --path word print the same rho lines, also for T^5 and -T^-3, words with no odd S."""
    for level, matrix, fmt in (
        ("2", "[[2,1],[7,4]]", "exact"),
        ("3", "[[1,5],[0,1]]", "both"),
        ("3", "[[-1,3],[0,-1]]", "both"),
    ):
        outs = []
        for path in ("closed", "word"):
            code, lines = _capture(
                capsys, ["eval", "--level", level, "--matrix", matrix, "--path", path, "--format", fmt]
            )
            assert code == 0
            outs.append([l for l in lines if l.startswith("rho ")])
        assert outs[0] == outs[1] and len(outs[0]) == (int(level) + 1) ** 2, matrix


def test_eval_usage_errors(capsys):
    assert run(["eval", "--level", "1", "--matrix", "[[1,1],[1,1]]"]) == 2
    assert run(["eval", "--level", "1", "--matrix", "nonsense"]) == 2
    assert run(["eval", "--level", "2", "--matrix", "[[1,0],[16,1]]", "--path", "theorem1"]) == 2
    assert run(["eval", "--level", "1"]) == 2
    assert run(["frobnicate"]) == 2


def test_eval_shape_error_under_optimize():
    """Under python -O a matrix of the wrong shape is still a shape error, not a determinant error."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affinesl2.__file__)))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "affinesl2", "eval", "--level", "3", "--matrix", "[[1,2,3],[3,4]]"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "bad --matrix: expected [[a,b],[c,d]]" in done.stderr, done.stderr


def test_st_matrices_exact_records(capsys):
    code, lines = _capture(capsys, ["st-matrices", "--level", "1", "--format", "exact"])
    assert code == 0
    assert lines[0] == "level 1" and lines[1] == "n 3" and lines[2] == "conductor 24"
    s_lines = [l for l in lines if l.startswith("S ")]
    t_lines = [l for l in lines if l.startswith("T ")]
    assert len(s_lines) == 4 and len(t_lines) == 4
    d = json.loads(t_lines[0].split(maxsplit=3)[3])
    assert d["order"] == 24


def test_kernel_report_level_two(capsys):
    code, lines = _capture(capsys, ["kernel", "--level", "2", "--list", "--check-lists"])
    assert code == 0
    assert "kernel_size 8" in lines
    assert "known_list_check pass" in lines
    assert sum(1 for l in lines if l.startswith("kernel_element")) == 8


def test_bound_is_an_unrecognized_argument(capsys):
    for argv in (
        ["kernel", "--level", "3", "--bound", "8"],
        ["image-order", "--level", "1", "--bound", "64"],
        ["verify-all", "--level", "1", "--samples", "2", "--bound", "64"],
    ):
        assert run(argv) == 2
        assert "unrecognized arguments: --bound" in capsys.readouterr().err


def test_kernel_runs_above_the_old_size_limit(capsys):
    """N = 488 at level 59: the kernel has the known 16 elements."""
    code, lines = _capture(capsys, ["kernel", "--level", "59", "--check-lists"])
    assert code == 0
    assert "kernel_size 16" in lines
    assert "known_list_check pass" in lines


def test_workers_is_an_unrecognized_argument(capsys):
    for argv in (
        ["kernel", "--level", "2", "--workers", "1"],
        ["image-order", "--level", "1", "--workers", "2"],
        ["verify-all", "--level", "1", "--samples", "2", "--workers", "1"],
    ):
        assert run(argv) == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_image_order(capsys):
    code, lines = _capture(capsys, ["image-order", "--level", "1"])
    assert code == 0 and lines == ["144"]
    code, lines = _capture(capsys, ["image-order", "--level", "29"])
    assert code == 0 and lines == ["714240"]


def test_characters_table(capsys):
    code, lines = _capture(capsys, ["characters", "--level", "1", "--terms", "9"])
    assert code == 0
    assert "chi 1 exponent -1/24" in lines
    assert "chi 1 coeffs 1 3 4 7 13 19 29 43 62 90" in lines
    assert "chi 2 coeffs 2 2 6 8 14 20 34 46 70 96" in lines
    series = [l for l in lines if l.startswith("chi 1 series")]
    assert series and "q^(-1/24) * (1 + 3 q^1" in series[0]


def test_characters_table_at_level_four(capsys):
    """Weights whose lead exceeds 7/8 still print terms + 1 coefficients."""
    code, lines = _capture(capsys, ["characters", "--level", "4", "--terms", "9"])
    assert code == 0
    coeffs = [l.split()[3:] for l in lines if l.split()[2:3] == ["coeffs"]]
    assert len(coeffs) == 5 and all(len(c) == 10 for c in coeffs)


def test_characters_numeric(capsys):
    code, lines = _capture(capsys, ["characters", "--level", "1", "--terms", "40", "--numeric", "1j"])
    assert code == 0
    numeric = [l for l in lines if l.startswith("chi 1 numeric")]
    assert len(numeric) == 1
    assert run(["characters", "--level", "1", "--terms", "5", "--numeric", "1-1j"]) == 2


def test_characters_match_the_per_weight_records(capsys):
    """The shared-1/eta^3 route prints what character and numeric_eval give weight by weight."""
    tau = 0.1234 + 0.9876j
    for level in range(1, 11):
        n = level + 2
        want = [f"level {level}", f"n {n}"]
        for lam in range(1, n):
            s = character(lam, n, 60)
            lead = s.leading_exponent()
            z = numeric_eval(s, tau)
            want += [
                f"chi {lam} exponent {lead.numerator}/{lead.denominator}",
                f"chi {lam} coeffs " + " ".join(map(str, s.coeffs[:61])),
                f"chi {lam} series {s}",
                f"chi {lam} numeric {z.real:+.12e}{z.imag:+.12e}j",
            ]
        code, lines = _capture(capsys, ["characters", "--level", str(level), "--terms", "60", "--numeric=0.1234+0.9876j"])
        assert (code, lines) == (0, want), level


def test_characters_numeric_rejects_non_finite_tau(capsys):
    for tau in ("0.1+nanj", "nan+1j", "inf+1j", "0.1+infj"):
        code, lines = _capture(capsys, ["characters", "--level", "1", "--terms", "3", "--numeric", tau])
        assert (code, lines) == (2, []), tau


def test_verify_identities(capsys):
    code, lines = _capture(capsys, ["verify-identities", "--level", "1", "--terms", "20"])
    assert code == 0
    assert "k1_identity pass" in lines
    assert "t_parametrization pass" in lines
    assert "all pass" in lines


def test_verify_all_level_one(capsys):
    code, lines = _capture(capsys, ["verify-all", "--level", "1", "--samples", "25", "--seed", "9"])
    assert code == 0
    assert "all pass" in lines
    assert any(l.startswith("closed_vs_word") and l.endswith("pass") for l in lines)


def test_verify_all_checks_the_kernel_above_the_old_size_limit(capsys):
    """N = 72 at level 16: the kernel checks run."""
    code, lines = _capture(capsys, ["verify-all", "--level", "16", "--samples", "2", "--seed", "1"])
    assert code == 0
    assert "kernel size=4 image=62208 pass" in lines
    assert "kernel_known_list pass" in lines


@pytest.mark.parametrize("level, prefix", [(1, "671cc33c73e59b2c"), (10, "328091d09b342e59")])
def test_verify_all_stdout_matches_the_pinned_digest(capsys, level, prefix):
    """verify-all --level L --samples 20 --seed 1 prints, byte for byte, the stdout pinned here by its sha256 prefix."""
    assert run(["verify-all", "--level", str(level), "--samples", "20", "--seed", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == prefix


def test_verify_all_is_deterministic(capsys):
    argv = ["verify-all", "--level", "1", "--samples", "10", "--seed", "4"]
    _, first = _capture(capsys, argv)
    _, second = _capture(capsys, argv)
    assert first == second


def test_out_writes_a_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = run(["genus", "--prime", "11", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "2461\n"


def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    """A missing directory or a directory as --out exits 2 with a one-line error and empty stdout."""
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        assert run(["genus", "--prime", "7", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("affinesl2: error: cannot write --out ") and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
