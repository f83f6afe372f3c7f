import argparse
import shlex
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from irslab.analysis import fingerprint_plan
from irslab.cli import LISTS, OPTIONS, build_parser, main
from irslab.encoding import PsiOracle, SubshiftSpace
from irslab.oracles import FiniteAction, ball
from irslab.randomness import STREAM_VERSION
from irslab.sgr import emit_sgr, parse_sgr
from irslab.words import word_to_str, words_upto

INDEX2_TEXT = """\
schreier r=2
root A
A s1 B
B s1 A
A s2 A
B s2 B
"""

SUBSHIFT_TEXT = """\
alphabet 2
points 2
perm s1: (0 1)
perm s2: id
label 0 1
label 1 2
basepoint 0
"""


@pytest.fixture
def index2_file(tmp_path):
    path = tmp_path / "index2.sgr"
    path.write_text(INDEX2_TEXT)
    return str(path)


@pytest.fixture
def subshift_file(tmp_path):
    path = tmp_path / "period2.sub"
    path.write_text(SUBSHIFT_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ball_trivial(capsys):
    code, out, _ = run(capsys, "ball", "--base", "trivial", "--radius", "1")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0] == "schreier r=2"
    assert body[1] == "root e"
    tokens = {l.split()[1] for l in body if l.startswith("boundary")}
    assert tokens == {"s1", "s1^-1", "s2", "s2^-1"}


def test_ball_over_a_rank_1_normalizer(capsys):
    code, out, _ = run(capsys, "ball", "--base", "normalizer:trivial",
                       "--rank", "1", "--p", "1/2", "--seed", "3",
                       "--radius", "2")
    assert code == 0
    view = parse_sgr(out)
    assert view.rank == 1 and view.radius == 2
    assert {label for _, label, _ in view.edges} == {1}


def test_ball_header_echoes_config(capsys):
    code, out, _ = run(capsys, "ball", "--base", "trivial", "--radius", "1",
                       "--seed", "7")
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("# irslab ball")
    assert "seed=7" in head


def test_ball_edgelist(capsys):
    code, out, _ = run(capsys, "ball", "--base", "trivial", "--radius", "1",
                       "--format", "edgelist")
    assert code == 0
    assert "e s1 label=s1" in out


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run(capsys, "ball", "--nonsense")
    assert code == 1


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_metric(capsys, index2_file):
    code, out, _ = run(capsys, "metric", "--base", "trivial",
                       "--other", f"file:{index2_file}", "--max-radius", "5")
    assert code == 0
    assert "d = 1/1" in out
    code, out, _ = run(capsys, "metric", "--base", "trivial",
                       "--other", "trivial", "--max-radius", "5")
    assert "d = 0 (<= 1/7)" in out


def test_fingerprint(capsys, index2_file):
    code, out, _ = run(capsys, "fingerprint", "--base", f"file:{index2_file}",
                       "--radius", "2")
    assert code == 0
    words = [l for l in out.splitlines() if not l.startswith("#")]
    assert words[0] == "e"
    assert "s2" in words and "s1*s1" in words
    assert len(words) == 7


def test_aut(capsys, index2_file):
    code, out, _ = run(capsys, "aut", "--graph", index2_file)
    assert code == 0
    assert out.strip() == "2"


def test_sample_normalizer_deterministic(capsys, index2_file):
    args = ("sample-normalizer", "--base", f"file:{index2_file}",
            "--p", "1/2", "--seed", "3", "--radius", "2")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "schreier r=2" in out1


def test_sample_poulsen(capsys):
    code, out, _ = run(capsys, "sample-poulsen", "--base", "trivial",
                       "--p", "1/5", "--seed", "1", "--radius", "2")
    assert code == 0
    assert "root p(|e)" in out


@pytest.mark.parametrize("alias, head", [("sample-normalizer", "normalizer:"),
                                         ("sample-poulsen", "poulsen:")])
def test_sample_alias_is_ball(capsys, alias, head):
    common = ("--p", "1/2", "--seed", "5", "--radius", "3")
    code, alias_out, _ = run(capsys, alias, "--base", "trivial", *common)
    assert code == 0
    _, ball_out, _ = run(capsys, "ball", "--base", head + "trivial", *common)

    def body(out):
        return [l for l in out.splitlines() if not l.startswith("#")]

    assert body(alias_out) == body(ball_out)


def test_enumerate_normalizer_invariance(capsys, index2_file):
    code, out, _ = run(capsys, "enumerate-normalizer",
                       "--base", f"file:{index2_file}", "--p", "1/2",
                       "--check-invariance", "--radius", "2")
    assert code == 0
    assert "exact invariance: PASS" in out
    assert "total 1" in out
    # an exact law reads no draw, so its header names no stream version
    assert "stream=" not in out.splitlines()[0]


def test_enumerate_requires_exact_p(capsys, index2_file):
    code, _, err = run(capsys, "enumerate-normalizer",
                       "--base", f"file:{index2_file}", "--p", "nope")
    assert code == 1


def test_ball_rejects_p_outside_the_open_interval(capsys):
    code, out, err = run(capsys, "ball", "--base", "normalizer:trivial",
                         "--p", "2", "--seed", "1", "--radius", "1")
    assert (code, out) == (1, "")
    assert err == "error: p must lie strictly between 0 and 1\n"


def test_poulsen_ball_rejects_p_outside_the_open_interval(capsys):
    code, out, err = run(capsys, "ball", "--base", "poulsen:trivial",
                         "--p", "1", "--radius", "2")
    assert (code, out) == (1, "")
    assert err == "error: p must lie strictly between 0 and 1\n"


@pytest.mark.parametrize("base", ["trivial", "normalizer:trivial"])
def test_enumerate_needs_a_finite_point_base(capsys, base):
    code, _, err = run(capsys, "enumerate-normalizer", "--base", base,
                       "--p", "1/2")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["encode", "--subshift", "{subshift}", "--radius", "2"], "--seed"),
    (["enumerate-normalizer", "--base", "file:{graph}", "--p", "1/2"],
     "--seed"),
    (["enumerate-normalizer", "--base", "file:{graph}", "--p", "1/2"],
     "--rank"),
], ids=["encode-seed", "enumerate-seed", "enumerate-rank"])
def test_options_that_did_nothing_are_gone(capsys, index2_file, subshift_file,
                                           argv, flag):
    argv = [a.format(graph=index2_file, subshift=subshift_file) for a in argv]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, flag, "3")
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {flag}" in err


def test_a_huge_declared_rank_is_refused_without_building_it(capsys, tmp_path):
    path = tmp_path / "rank.sgr"
    path.write_text("schreier r=1000000\nroot A\nA s1 A\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "aut", "--graph", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "") and err.startswith("error:")
    assert peak < 1_000_000


@pytest.mark.parametrize("edges", ["", "A s1 A\n", "A s1000000 A\n"],
                         ids=["root-only", "label-s1", "label-s1000000"])
def test_a_huge_declared_rank_is_read_without_a_cell_per_label(edges):
    text = "schreier r=1000000\nroot A\n" + edges
    tracemalloc.start()
    try:
        view = parse_sgr(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert view.rank == 1000000 and view.vertices == ("A",)
    assert peak < 1_000_000


def test_decoding_a_huge_declared_rank_exits_1(capsys, tmp_path):
    # decoding fails at the identity, before a word of a letter is made
    path = tmp_path / "rank.sgr"
    path.write_text("schreier r=1000000\nroot A\nA s1 A\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "decode", "--graph", str(path),
                             "--radius", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ("error: walk left the stored graph while decoding: walk "
                   "left the stored ball at 'A' (letter 2); provide a larger "
                   "ball\n")
    assert peak < 1_000_000


def test_encode_decode_roundtrip(capsys, tmp_path, subshift_file):
    out_path = str(tmp_path / "encoded.sgr")
    code, _, _ = run(capsys, "encode", "--subshift", subshift_file,
                     "--radius", "8", "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "decode", "--graph", out_path, "--radius", "4")
    assert code == 0
    assert "x(e) = 1" in out
    assert "x(s1) = 2" in out
    # one line per word of length <= 2, in shortlex order
    lines = [l.split(" = ")[0] for l in out.splitlines()[1:]]
    assert lines == [f"x({word_to_str(w)})" for w in words_upto(2, 2)]


def test_decode_not_encoding_exits_1(capsys, tmp_path):
    path = tmp_path / "plain.sgr"
    from irslab.oracles import CayleyOracle

    path.write_text(emit_sgr(ball(CayleyOracle(2), 6)))
    code, _, err = run(capsys, "decode", "--graph", str(path), "--radius", "4")
    assert code == 1
    assert "error" in err


def test_decode_boundary_at_the_root_exits_1(capsys, tmp_path, subshift_file):
    path = tmp_path / "encoded.sgr"
    code, _, _ = run(capsys, "encode", "--subshift", subshift_file,
                     "--radius", "8", "--out", str(path))
    assert code == 0
    text = path.read_text()
    root = next(l.split()[1] for l in text.splitlines() if l.startswith("root "))
    path.write_text(text + f"boundary {root}\n")
    code, out, err = run(capsys, "decode", "--graph", str(path), "--radius", "4")
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_check_equivariance(capsys, subshift_file):
    code, out, _ = run(capsys, "check-equivariance", "--subshift",
                       subshift_file, "--trials", "20")
    assert code == 0
    assert "PASS" in out


def test_upsilon_roundtrip(capsys, tmp_path, subshift_file):
    # conjugated encoding comes back into the encoded set
    space = SubshiftSpace(FiniteAction(2, ((1, 0), (0, 1))), (1, 2), 2)
    from irslab.oracles import conjugate

    moved = conjugate(PsiOracle(space.point(0)), (-1,))
    path = tmp_path / "moved.sgr"
    path.write_text(emit_sgr(ball(moved, 12)))
    code, out, _ = run(capsys, "upsilon", "--graph", str(path),
                       "--subshift", subshift_file, "--radius", "3")
    assert code == 0
    assert "translate" in out


def test_upsilon_not_in_Y_exits_1(capsys, tmp_path, subshift_file):
    from irslab.oracles import CayleyOracle

    path = tmp_path / "plain.sgr"
    path.write_text(emit_sgr(ball(CayleyOracle(2), 10)))
    code, _, err = run(capsys, "upsilon", "--graph", str(path),
                       "--subshift", subshift_file, "--radius", "3")
    assert code == 1


def test_upsilon_past_the_budget_exits_2(capsys, tmp_path, subshift_file):
    from irslab.oracles import CayleyOracle

    path = tmp_path / "plain.sgr"
    path.write_text(emit_sgr(ball(CayleyOracle(2), 10)))
    for budget in ("100", "10"):  # --budget bounds the walk of translates
        code, out, err = run(capsys, "upsilon", "--graph", str(path),
                             "--subshift", subshift_file, "--radius", "3",
                             "--budget", budget)
        assert (code, out) == (2, "")
        assert err == f"error: translate balls exceeded budget {budget}\n"


def test_lambda(capsys, subshift_file):
    code, out, _ = run(capsys, "lambda", "--subshift", subshift_file)
    assert code == 0
    assert "conjugation invariance: PASS" in out


ONE_POINT_TEXT = """\
alphabet 40
points 1
perm s1: id
perm s2: id
label 0 40
basepoint 0
"""


def traced_run(capsys, *argv):
    """run(), and the tracemalloc peak of the command."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (*result, peak)


@pytest.mark.parametrize("text, atoms", [
    (SUBSHIFT_TEXT.replace("alphabet 2", "alphabet 40"), "atoms 5 total 5/2"),
    (ONE_POINT_TEXT, "atoms 41 total 41"),
], ids=["two-points-alphabet-40", "one-point-label-40"])
def test_lambda_answers_from_the_finite_quotient(capsys, tmp_path, text,
                                                 atoms):
    path = tmp_path / "big.sub"
    path.write_text(text)
    code, out, err, peak = traced_run(capsys, "lambda", "--subshift", str(path))
    assert (code, err) == (0, "")
    assert atoms + "\n" in out and out.endswith("invariance: PASS\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("text, message", [
    (SUBSHIFT_TEXT.replace("alphabet 2", "alphabet 9100"),
     "translate count has more than 640 digits"),
    (SUBSHIFT_TEXT.replace("alphabet 2", "alphabet 1" + "0" * 600),
     "translate count has more than 640 digits"),
    (ONE_POINT_TEXT.replace("40", "1000001"),
     "points + labels exceed budget 1000000"),
], ids=["alphabet-9100", "alphabet-600-zeros", "label-1000001"])
def test_lambda_past_its_declared_size_exits_2(capsys, tmp_path, text,
                                               message):
    path = tmp_path / "big.sub"
    path.write_text(text)
    code, out, err, peak = traced_run(capsys, "lambda", "--subshift", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert peak < 1_000_000


def test_stab_law_cli(capsys, tmp_path):
    path = tmp_path / "act.txt"
    path.write_text("points 2\nperm s1: (0 1)\nperm s2: id\n")
    code, out, _ = run(capsys, "stab-law", "--action", str(path))
    assert code == 0
    assert "atoms 1 total 1" in out


def test_tnf_cli(capsys, tmp_path):
    path = tmp_path / "act.txt"
    path.write_text("points 3\nperm s1: (0 1)\nperm s2: (1 2)\n")
    code, out, _ = run(capsys, "tnf-check", "--action", str(path))
    assert code == 0
    assert "totally-nonfree: true" in out


def test_first_return_cli(capsys, tmp_path):
    path = tmp_path / "act.txt"
    path.write_text("points 5\nperm s1: (0 1 2 3 4)\nperm s2: id\n")
    code, out, _ = run(capsys, "first-return", "--action", str(path),
                       "--gen", "1", "--subset", "0,2")
    assert code == 0
    assert "0 -> 2" in out and "2 -> 0" in out


@pytest.mark.parametrize("subset", ["0,x", ",", "0,", "0,-1", "0,7",
                                    "0," + "9" * 640],
                         ids=["point-x", "bare-comma", "trailing-comma",
                              "negative", "out-of-range", "640-nines"])
def test_first_return_bad_subset_exits_1(capsys, tmp_path, subset):
    path = tmp_path / "act.txt"
    path.write_text("points 5\nperm s1: (0 1 2 3 4)\nperm s2: id\n")
    code, out, err = run(capsys, "first-return", "--action", str(path),
                         "--gen", "1", "--subset", subset)
    assert code == 1
    assert out == "" and err.startswith("error:") and len(err.encode()) < 200


@pytest.mark.parametrize("extra", [
    ("--trials", "0"),
    ("--trials", "-2"),
    ("--trials", "3", "--max-word-len", "0"),
], ids=["no-trials", "negative-trials", "no-words"])
def test_check_equivariance_bad_counts_exit_1(capsys, subshift_file, extra):
    code, out, err = run(capsys, "check-equivariance", "--subshift",
                         subshift_file, *extra)
    assert code == 1
    assert out == "" and err.startswith("error:")


RANK3_SUBSHIFT_TEXT = SUBSHIFT_TEXT.replace("perm s2: id",
                                           "perm s2: id\nperm s3: (0 1)")


@pytest.mark.parametrize("text, length, code, error", [
    (SUBSHIFT_TEXT, "80", 0, None),
    (SUBSHIFT_TEXT, "81", 1, "gives 2^128"),
    (RANK3_SUBSHIFT_TEXT, "54", 0, None),
    (RANK3_SUBSHIFT_TEXT, "55", 1, "gives 2^128"),
    (SUBSHIFT_TEXT, "1" + "0" * 700, 1, "integer '1000"),
], ids=["rank2-80", "rank2-81", "rank3-54", "rank3-55", "rank2-10^700"])
def test_check_equivariance_draws_one_of_fewer_than_2_128_words(
        capsys, tmp_path, text, length, code, error):
    """A trial draws its word by shortlex position with one 128-bit draw,
    so a length whose 2r((2r - 1)^n - 1)/(2r - 2) words reach 2^128 is
    refused: at rank 2 by (2r - 1)^n, at rank 3 (1.5 * 5^55) by the count
    itself. The longest accepted lengths run without listing any word. A
    length of more than 640 digits is refused as it is read."""
    path = tmp_path / "s.sub"
    path.write_text(text)
    tracemalloc.start()
    try:
        got, out, err = run(capsys, "check-equivariance", "--subshift",
                            str(path), "--trials", "5", "--radius", "2",
                            "--max-word-len", length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == code
    if code:
        assert out == "" and err.startswith(f"error: --max-word-len {error}")
    else:
        assert out.endswith("equivariance trials 5 failures 0: PASS\n")
    assert peak < 2_000_000


@pytest.mark.parametrize("extra", [
    ("--z-threshold", "nan"),
    ("--z-threshold", "inf"),
    ("--z-threshold", "-1"),
    ("--min-mass", "2"),
    ("--min-mass=-1/2",),
], ids=["z-nan", "z-inf", "z-negative", "mass-above-1", "mass-negative"])
def test_invariance_bad_thresholds_exit_1(capsys, extra):
    """Each of these would otherwise turn the biased control's FAIL into
    PASS (or make every cell breach)."""
    argv = ("invariance", "--sampler", "biased-normalizer:trivial",
            "--p", "1/2", "--radius", "1", "--samples", "200")
    assert run(capsys, *argv)[0] == 3
    code, out, err = run(capsys, *argv, *extra)
    assert code == 1
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("radius", ["-1", "0", "1"])
def test_decode_radius_below_2_exits_1(capsys, index2_file, radius):
    code, out, err = run(capsys, "decode", "--graph", index2_file,
                         "--radius", radius)
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_estimate_cli_deterministic(capsys):
    args = ("estimate", "--sampler", "poulsen:trivial", "--p", "1/10",
            "--fingerprint", "e", "--radius", "2", "--samples", "50",
            "--seed", "9")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert "seed 9" in out1
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_invariance_cli_pass_and_fail(capsys):
    code, out, _ = run(capsys, "invariance", "--sampler", "normalizer:trivial",
                       "--p", "1/2", "--radius", "1", "--samples", "2000",
                       "--seed", "2")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "invariance", "--sampler",
                       "biased-normalizer:trivial", "--p", "1/2",
                       "--radius", "1", "--samples", "2000", "--seed", "2",
                       "--z-threshold", "6")
    assert code == 3
    assert "FAIL" in out


def test_sweep_cli(capsys):
    code, out, _ = run(capsys, "sweep", "--base", "trivial",
                       "--construction", "poulsen", "--p-list", "0.2,0.1",
                       "--fingerprint", "e", "--radius", "2",
                       "--samples", "100")
    assert code == 0
    assert "estimate" in out


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "ball", "--base", "trivial", "--radius", "9",
                       "--budget", "10")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ["fingerprint", "--base", "trivial", "--radius", "1"],
    ["decode", "--graph", "{graph}", "--radius", "2"],
    ["lambda", "--subshift", "{subshift}"],
    ["estimate", "--sampler", "trivial", "--radius", "1", "--samples", "1"],
    ["invariance", "--sampler", "trivial", "--radius", "1", "--samples", "1"],
    ["sweep", "--base", "trivial", "--p-list", "1/2", "--radius", "1",
     "--samples", "1"],
], ids=lambda argv: argv[0])
def test_commands_without_exploration_take_no_budget(capsys, index2_file,
                                                     subshift_file, argv):
    argv = [a.format(graph=index2_file, subshift=subshift_file) for a in argv]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--budget", "10")
    assert code == 1
    assert "unrecognized arguments: --budget" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "aut", "--graph", "/nonexistent/g.sgr")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["aut", "--graph", "{}"],
    ["ball", "--base", "file:{}", "--radius", "1"],
    ["decode", "--graph", "{}", "--radius", "2"],
    ["tnf-check", "--action", "{}"],
    ["lambda", "--subshift", "{}"],
], ids=["graph", "file-base", "view", "action", "subshift"])
def test_non_utf8_file_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"schreier r=2\nroot \xff\n")
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not UTF-8") and "Traceback" not in err


@pytest.mark.parametrize("argv, verdict", [
    (["ball", "--base", "trivial", "--radius", "1"], 0),
    (["invariance", "--sampler", "biased-normalizer:trivial", "--p", "1/2",
      "--radius", "1", "--samples", "2000", "--seed", "2"], 3),
], ids=["ball", "biased-invariance"])
def test_unwritable_out_exits_1(capsys, tmp_path, argv, verdict):
    # a failed write exits 1 whatever the command's own exit code would be
    assert run(capsys, *argv)[0] == verdict
    out_path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert not out_path.parent.exists()


@pytest.mark.parametrize("text", [
    "points x\nperm s1: (0 1)\n",
    "points\nperm s1: (0 1)\n",
    "points 2\nperm sx: (0 1)\n",
    "points 2\nperm s: (0 1)\n",
    "points 2\nperm\n",
    "points 2\nperm s1: (0 a)\n",
    ":\n",
    "points 2\npoints 3\nperm s1: (0 1)\n",
    "points 2\nperm s1: (0 1)\nperm s1: id\n",
    "points 2\nperm s1: (0 1)\nperm s01: id\n",
], ids=["points-x", "bare-points", "perm-sx", "perm-s", "bare-perm",
        "cycle-a", "colon", "two-points", "repeated-perm", "repeated-perm-s01"])
def test_malformed_action_file_exits_1(capsys, tmp_path, text):
    path = tmp_path / "act.txt"
    path.write_text(text)
    code, out, err = run(capsys, "stab-law", "--action", str(path))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    SUBSHIFT_TEXT.replace("label 1 2", "label 1 x"),
    SUBSHIFT_TEXT.replace("alphabet 2", "alphabet"),
    SUBSHIFT_TEXT.replace("points 2", "points two"),
    SUBSHIFT_TEXT.replace("points 2", "points 2\npoints 2"),
    SUBSHIFT_TEXT.replace("perm s2: id", "perm s2: id\nperm s2: (0 1)"),
    SUBSHIFT_TEXT.replace("alphabet 2", "alphabet 2\nalphabet 3"),
    SUBSHIFT_TEXT.replace("label 1 2", "label 1 2\nlabel 01 1"),
    SUBSHIFT_TEXT.replace("basepoint 0", "basepoint 0\nbasepoint 1"),
], ids=["label-x", "bare-alphabet", "points-two", "two-points",
        "repeated-perm", "repeated-alphabet", "repeated-label",
        "repeated-basepoint"])
def test_malformed_subshift_file_exits_1(capsys, tmp_path, text):
    path = tmp_path / "bad.sub"
    path.write_text(text)
    code, _, err = run(capsys, "lambda", "--subshift", str(path))
    assert code == 1
    assert err.startswith("error:")


HUGE = "9" * 5000  # int() refuses more than 4 300 digits on Python 3.11+
ACTION_TEXT = "points 2\nperm s1: (0 1)\nperm s2: id\n"


@pytest.mark.parametrize("command, text, message", [
    ("tnf-check", ACTION_TEXT.replace("points 2", "points " + HUGE),
     "line 1: point count"),
    ("tnf-check", ACTION_TEXT.replace("perm s2", "perm s" + HUGE),
     "line 3: generator"),
    ("lambda", SUBSHIFT_TEXT.replace("alphabet 2", "alphabet " + HUGE),
     "line 1: alphabet"),
    ("lambda", SUBSHIFT_TEXT.replace("label 1 2", f"label {HUGE} 2"),
     "line 6: label"),
    ("lambda", SUBSHIFT_TEXT.replace("label 1 2", f"label 1 {HUGE}"),
     "line 6: label"),
    ("lambda", SUBSHIFT_TEXT.replace("basepoint 0", "basepoint " + HUGE),
     "line 7: basepoint"),
    ("tnf-check", ACTION_TEXT.replace("(0 1)", f"(0 {HUGE})"), "line 2: point"),
    ("tnf-check", ACTION_TEXT.replace("perm s2: id", f"perm s2: ({HUGE},0)"),
     "line 3: point"),
    ("lambda", SUBSHIFT_TEXT.replace("(0 1)", f"(1 {HUGE})"), "line 3: point"),
], ids=["points", "perm-generator", "alphabet", "label-point",
        "label-symbol", "basepoint", "cycle-point", "cycle-point-after-comma",
        "subshift-cycle-point"])
def test_a_number_field_of_5000_digits_exits_1(capsys, tmp_path, command,
                                               text, message):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    flag = "--action" if command == "tnf-check" else "--subshift"
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 1 and out == ""
    assert err == f"error: {message} has more than 640 digits\n"
    assert len(err.encode()) < 200


LONG = "x" * 3000


@pytest.mark.parametrize("rank, radius, code", [
    ("2", "11", 0), ("2", "12", 2), ("2", "40", 2), ("2", HUGE[:640], 2),
    ("1", "100", 0), ("1", "500000", 2), ("3", "8", 0), ("3", "9", 2),
], ids=["rank2-11", "rank2-12", "rank2-40", "rank2-640-nines",
        "rank1-100", "rank1-500000", "rank3-8", "rank3-9"])
def test_fingerprint_words_past_the_budget_exit_2(capsys, rank, radius, code):
    """A fingerprint lists every word of length <= radius: 2 * 3^R - 1 at
    rank 2 (354 293 at radius 11, 1 062 881 at 12), 2R + 1 at rank 1. Past
    DEFAULT_BUDGET it exits 2 before it lists any word."""
    start = time.perf_counter()
    try:
        got, out, err = run(capsys, "fingerprint", "--base", "trivial",
                            "--rank", rank, "--radius", radius)
    finally:
        fingerprint_plan.cache_clear()  # the radius-11 plan holds 150 MB
    assert got == code
    if code:
        assert time.perf_counter() - start < 0.5
        assert (out, err) == ("", "error: fingerprint words exceed budget "
                                  "1000000\n")
    else:
        assert out.splitlines()[1:] == ["e"]


@pytest.mark.parametrize("command, text, start", [
    ("aut", INDEX2_TEXT + f"A s1 {LONG} A\n", "line 7: bad edge line 'A s1 xx"),
    ("aut", INDEX2_TEXT.replace("r=2", "r=" + LONG),
     "line 1: bad header 'schreier r=xx"),
    ("aut", INDEX2_TEXT.replace("A s2 A", f"A s2{LONG} A"), "line 5: bad label 's2xx"),
    ("aut", INDEX2_TEXT.replace("B s1 A", f"B s1 #{LONG}"), "bad vertex token '#xx"),
    ("aut", INDEX2_TEXT + f"boundary {LONG}\n", "boundary vertex 'xx"),
    ("tnf-check", ACTION_TEXT.replace("(0 1)", "(0 " + "9" * 600 + ")"),
     "line 2: point '99"),
    ("tnf-check", ACTION_TEXT.replace("(0 1)", f"(0 {LONG})"),
     "line 2: bad cycle '(0 xx"),
    ("tnf-check", ACTION_TEXT.replace("(0 1)", f"(0 {LONG}"),
     "line 2: bad cycle '(0 xx"),
    ("tnf-check", ACTION_TEXT.replace("(0 1)", f"{LONG}"),
     "line 2: bad cycle 'xx"),
    ("tnf-check", ACTION_TEXT.replace("points 2", "points " + LONG),
     "line 1: bad point count 'xx"),
    ("tnf-check", ACTION_TEXT.replace("perm s2", "perm s" + LONG),
     "line 3: bad generator 'sxx"),
    ("tnf-check", ACTION_TEXT + f"{LONG}\n", "line 4: cannot parse 'xx"),
    ("lambda", SUBSHIFT_TEXT + f"label {LONG}\n", "line 8: cannot parse 'label xx"),
    ("aut", INDEX2_TEXT.replace("A s2 A", "A s" + "9" * 640 + " A"),
     "line 5: label 's99"),
    ("lambda", SUBSHIFT_TEXT.replace("alphabet 2", "alphabet " + "9" * 639)
     .replace("label 1 2", "label 1 " + "9" * 640), "symbol '99"),
], ids=["sgr-edge-line", "sgr-header", "sgr-label", "sgr-token",
        "sgr-boundary-token", "cycle-point-out-of-range", "cycle-letters",
        "unclosed-cycle", "cycle-without-parentheses",
        "point-count", "generator", "action-line", "subshift-line",
        "sgr-label-out-of-range", "symbol-outside-the-alphabet"])
def test_a_long_bad_line_or_field_is_quoted_short(capsys, tmp_path, command,
                                                  text, start):
    path = tmp_path / "long.txt"
    path.write_text(text)
    flag = {"aut": "--graph", "tnf-check": "--action", "lambda": "--subshift"}
    code, out, err = run(capsys, command, flag[command], str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {start}") and "'..." in err
    assert len(err.encode()) < 200


BAD_RATIONALS = ["1e-5000", "1e-10000000", "1e641", "1/" + "1" * 5000,
                 "0." + "0" * 700 + "1", HUGE, "1/0", "nope"]
RATIONAL_ARGV = {
    "p": ("ball", "--base", "normalizer:trivial", "--radius", "1", "--p"),
    "min-mass": ("invariance", "--sampler", "normalizer:trivial", "--p", "1/2",
                 "--radius", "1", "--samples", "10", "--min-mass"),
    "p-list": ("sweep", "--base", "trivial", "--radius", "1", "--samples", "1",
               "--p-list"),
}


@pytest.mark.parametrize("value", BAD_RATIONALS,
                         ids=["exp-5000", "exp-10^7", "exp-641", "5000-ones",
                              "700-zeros", "5000-nines", "zero-denominator",
                              "word"])
@pytest.mark.parametrize("option", list(RATIONAL_ARGV))
def test_a_bad_rational_exits_1_at_once_with_a_short_error(capsys, option,
                                                           value):
    """The 640-digit cap counts an exponent as the zeros it stands for, so
    no value builds a huge Fraction or prints one. An argparse error prints
    the command's usage before its error line."""
    if option == "p-list":
        value = "1/2," + value
    start = time.perf_counter()
    code, out, err = run(capsys, *RATIONAL_ARGV[option], value)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    last = err.splitlines()[-1]
    assert "error: " in last and "rational '" in last
    assert all(len(line.encode()) < 200 for line in err.splitlines())


@pytest.mark.parametrize("command, text", [
    ("tnf-check", ACTION_TEXT.replace("points 2", "points 1" + "0" * 600)),
    ("stab-law", ACTION_TEXT.replace("points 2", "points 1" + "0" * 600)),
    ("stab-law", ACTION_TEXT.replace("points 2", "points 1000001")),
    ("lambda", SUBSHIFT_TEXT.replace("points 2", "points 1" + "0" * 600)),
], ids=["tnf-check-600-zeros", "stab-law-600-zeros", "stab-law-1000001",
        "lambda-600-zeros"])
def test_a_point_count_past_the_budget_exits_2(capsys, tmp_path, command, text):
    path = tmp_path / "big.txt"
    path.write_text(text)
    flag = "--subshift" if command == "lambda" else "--action"
    code, out, err = run(capsys, command, flag, str(path))
    line = 2 if command == "lambda" else 1
    assert (code, out) == (2, "")
    assert err == f"error: line {line}: point count exceeds budget 1000000\n"


@pytest.mark.parametrize("text", [
    INDEX2_TEXT.replace("r=2", "r=x"),
    INDEX2_TEXT.replace("schreier r=2", "schreier"),
    INDEX2_TEXT.replace("A s2 A", "A s² A"),
    INDEX2_TEXT.replace("schreier r=2", "schreier r=2\nschreier r=2"),
    INDEX2_TEXT.replace("schreier r=2", "schreier r=1\nschreier r=2"),
    INDEX2_TEXT.replace("root A", "root A\nroot B"),
    INDEX2_TEXT.replace("root A", "root A\nroot A"),
    INDEX2_TEXT.replace("r=2", "r=" + "9" * 5000),
    INDEX2_TEXT.replace("A s2 A", "A s" + "9" * 5000 + " A"),
], ids=["rank-x", "bare-schreier", "label-superscript", "two-headers",
        "second-header-other-rank", "two-roots", "repeated-root",
        "rank-of-5000-digits", "label-of-5000-digits"])
def test_malformed_graph_file_exits_1(capsys, tmp_path, text):
    path = tmp_path / "bad.sgr"
    path.write_text(text)
    code, _, err = run(capsys, "aut", "--graph", str(path))
    assert code == 1
    assert err.startswith("error:")


def test_ball_over_a_file_with_a_hash_token_exits_1(capsys, tmp_path):
    path = tmp_path / "x.sgr"
    path.write_text("schreier r=2\nroot a\na s1 #b\n#b s1 a\n"
                    "a s2 a\n#b s2 #b\n")
    code, out, err = run(capsys, "ball", "--base", f"file:{path}",
                         "--radius", "1")
    assert code == 1
    assert out == "" and err.startswith("error:") and "'#b'" in err


@pytest.mark.parametrize("argv", [
    ("estimate", "--sampler", "trivial", "--fingerprint", "e,s3,s3^-1"),
    ("estimate", "--sampler", "trivial", "--fingerprint", "e,s²"),
    ("estimate", "--sampler", "file:{graph}", "--fingerprint", "e,s3,s3^-1",
     "--rank", "3"),
    ("sweep", "--base", "file:{graph}", "--p-list", "1/2", "--fingerprint",
     "e,s3,s3^-1", "--rank", "3"),
], ids=["s3-at-rank-2", "superscript", "s3-over-a-rank-2-file",
        "sweep-s3-over-a-rank-2-file"])
def test_fingerprint_letters_checked_against_rank(capsys, index2_file, argv):
    # a file: base brings its rank, whatever --rank says
    argv = [a.format(graph=index2_file) for a in argv]
    code, out, err = run(capsys, *argv, "--radius", "2", "--samples", "1")
    assert code == 1
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("--base", "file:{graph}", "--other", "trivial", "--rank", "3"),
    ("--base", "trivial", "--other", "file:{graph}", "--rank", "3"),
], ids=["file-then-trivial", "trivial-then-file"])
def test_metric_between_bases_of_two_ranks_exits_1(capsys, index2_file, argv):
    argv = [a.format(graph=index2_file) for a in argv]
    code, out, err = run(capsys, "metric", *argv, "--max-radius", "2")
    assert (code, out) == (1, "")
    assert err == "error: bases of ranks 2 and 3 differ\n"
    assert run(capsys, "metric", *argv[:-2], "--max-radius", "2")[0] == 0


@pytest.mark.parametrize("argv", [
    ("ball", "--base", "file:{graph}", "--radius", "1"),
    ("sample-poulsen", "--base", "file:{graph}", "--p", "1/2", "--radius",
     "1"),
    ("metric", "--base", "file:{graph}", "--other", "file:{graph}",
     "--max-radius", "1"),
    ("fingerprint", "--base", "file:{graph}", "--radius", "1"),
    ("estimate", "--sampler", "file:{graph}", "--radius", "1", "--samples",
     "1"),
    ("invariance", "--sampler", "file:{graph}", "--radius", "1",
     "--samples", "1"),
    ("sweep", "--base", "file:{graph}", "--p-list", "1/2", "--radius", "1",
     "--samples", "1"),
], ids=lambda argv: argv[0])
def test_headers_echo_the_rank_a_file_base_brings(capsys, index2_file, argv):
    argv = [a.format(graph=index2_file) for a in argv]
    outs = [run(capsys, *argv, "--rank", rank) for rank in ("2", "3")]
    assert outs[0] == outs[1]
    code, out, _ = outs[0]
    assert code == 0 and "rank=2" in out.splitlines()[0].split()


@pytest.mark.parametrize("argv, seed, expected", [
    (("ball", "--base", "normalizer:trivial", "--p", "1/2", "--radius", "1"),
     "--seed=-1", 1),
    (("ball", "--base", "normalizer:trivial", "--p", "1/2", "--radius", "1"),
     f"--seed={2**64}", 1),
    (("ball", "--base", "normalizer:trivial", "--p", "1/2", "--radius", "1"),
     f"--seed={2**64 - 1}", 0),
    (("ball", "--base", "trivial", "--radius", "1"), "--seed=-1", 1),
    (("estimate", "--sampler", "poulsen:trivial", "--p", "1/2", "--radius",
      "1", "--samples", "3"), "--seed=-5", 1),
    (("metric", "--base", "trivial", "--other", "normalizer:trivial", "--p",
      "1/2", "--max-radius", "1"), "--other-seed=-1", 1),
    (("metric", "--base", "trivial", "--other", "normalizer:trivial", "--p",
      "1/2", "--max-radius", "1"), f"--other-seed={2**64}", 1),
    (("metric", "--base", "trivial", "--other", "normalizer:trivial", "--p",
      "1/2", "--max-radius", "1"), f"--other-seed={2**64 - 1}", 0),
], ids=["ball-negative", "ball-2^64", "ball-2^64-1", "point-law-negative",
        "estimate-negative", "other-negative", "other-2^64", "other-2^64-1"])
def test_seeds_outside_64_bits_exit_1(capsys, argv, seed, expected):
    code, out, err = run(capsys, *argv, seed)
    assert code == expected
    assert "Traceback" not in err
    if expected:
        assert out == "" and "[0, 2^64)" in err


@pytest.mark.parametrize("argv, budget, expected", [
    (("ball", "--base", "normalizer:trivial", "--p", "1/2", "--radius", "1"),
     "-1", 1),
    (("enumerate-normalizer", "--base", "file:{graph}", "--p", "1/2"), "-1", 1),
    (("ball", "--base", "normalizer:trivial", "--p", "1/2", "--radius", "1"),
     "0", 2),
    (("enumerate-normalizer", "--base", "file:{graph}", "--p", "1/2"), "0", 2),
], ids=["ball-negative", "enumerate-negative", "ball-0", "enumerate-0"])
def test_a_negative_budget_exits_1(capsys, index2_file, argv, budget,
                                   expected):
    # a budget of 0 is well formed, and the work then exceeds it
    argv = [a.format(graph=index2_file) for a in argv]
    code, out, err = run(capsys, *argv, f"--budget={budget}")
    assert (code, out) == (expected, "")
    assert "Traceback" not in err
    if expected == 1:
        assert "budget -1 is below 0" in err
    else:
        assert "exceed" in err and "budget 0" in err


# Per numeric option, and per list option, a command that takes it; the
# value goes last. A list option gets the value as its second item.
HOSTILE_ARGV = {
    "rank": ("fingerprint", "--base", "trivial", "--radius", "0"),
    "p": ("ball", "--base", "normalizer:trivial", "--radius", "1"),
    "seed": ("ball", "--base", "trivial", "--radius", "1"),
    "other-seed": ("metric", "--base", "trivial", "--other", "trivial",
                   "--max-radius", "1"),
    "radius": ("ball", "--base", "trivial"),
    "max-radius": ("metric", "--base", "trivial", "--other", "trivial"),
    "max-word-len": ("check-equivariance", "--subshift", "{subshift}",
                     "--trials", "1"),
    "samples": ("estimate", "--sampler", "trivial", "--radius", "1"),
    "min-mass": ("invariance", "--sampler", "trivial", "--radius", "1",
                 "--samples", "10"),
    "gen": ("first-return", "--action", "{action}", "--subset", "0"),
    "budget": ("ball", "--base", "trivial", "--radius", "1"),
    "basepoint": ("encode", "--subshift", "{subshift}", "--radius", "2"),
    "trials": ("check-equivariance", "--subshift", "{subshift}"),
    "z-threshold": ("invariance", "--sampler", "trivial", "--radius", "1",
                    "--samples", "10"),
    "p-list": ("sweep", "--base", "trivial", "--radius", "1", "--samples",
               "1"),
    "subset": ("first-return", "--action", "{action}", "--gen", "1"),
    "fingerprint": ("estimate", "--sampler", "trivial", "--radius", "1",
                    "--samples", "1"),
}
LIST_HEADS = {"p-list": "1/2,", "subset": "0,", "fingerprint": "e,s"}


def test_the_hostile_table_covers_every_numeric_option():
    numeric = {name for name, (_, _, *spec) in OPTIONS.items() if spec}
    assert set(HOSTILE_ARGV) == numeric | {"fingerprint"}
    assert set(LIST_HEADS) == set(LISTS) | {"fingerprint"}


@pytest.mark.parametrize("value", [HUGE, "-1", "x"],
                         ids=["5000-nines", "minus-1", "x"])
@pytest.mark.parametrize("option", list(HOSTILE_ARGV))
def test_a_hostile_number_exits_1_with_one_short_error(
        capsys, tmp_path, subshift_file, option, value):
    """Every number the command line takes is read by `lines.number`: past
    640 digits, below its bound or not a number, it is one short `error:`
    line and exit 1, never a traceback or an echo of the whole value."""
    action = tmp_path / "act.txt"
    action.write_text(ACTION_TEXT)
    argv = [a.format(subshift=subshift_file, action=action)
            for a in HOSTILE_ARGV[option]]
    value = LIST_HEADS.get(option, "") + value
    code, out, err = run(capsys, *argv, f"--{option}={value}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(len(line.encode()) < 200 for line in err.splitlines())


@pytest.mark.parametrize("argv, option, a, b", [
    (("metric", "--base", "trivial", "--other", "normalizer:trivial", "--p",
      "1/2", "--max-radius", "1"), "--other-seed", "1", "2"),
    (("estimate", "--sampler", "trivial", "--radius", "1", "--samples", "1"),
     "--fingerprint", "e", "e,s2,s2^-1"),
    (("sweep", "--base", "trivial", "--p-list", "1/2", "--radius", "1",
      "--samples", "1"), "--fingerprint", "e", "e,s2,s2^-1"),
    (("sweep", "--base", "trivial", "--p-list", "1/2", "--radius", "1",
      "--samples", "1"), "--construction", "poulsen", "normalizer"),
    (("sweep", "--base", "trivial", "--radius", "1", "--samples", "1"),
     "--p-list", "1/2", "1/3"),
    (("check-equivariance", "--subshift", "{subshift}", "--trials", "1"),
     "--max-word-len", "1", "2"),
    (("invariance", "--sampler", "trivial", "--radius", "1", "--samples", "1"),
     "--min-mass", "1/100", "1/2"),
    (("fingerprint", "--base", "normalizer:trivial", "--p", "1/2", "--seed",
      "4", "--radius", "2"), "--rank", "2", "3"),
], ids=["metric-other-seed", "estimate-fingerprint", "sweep-fingerprint",
        "sweep-construction", "sweep-p-list", "equivariance-max-word-len",
        "invariance-min-mass", "fingerprint-rank"])
def test_header_echoes_each_option_that_changes_the_output(
        capsys, subshift_file, argv, option, a, b):
    argv = [x.format(subshift=subshift_file) for x in argv]
    heads = []
    for value in (a, b):
        code, out, _ = run(capsys, *argv, option, value)
        assert code == 0
        heads.append([l for l in out.splitlines() if l.startswith("#")])
    assert heads[0] and heads[0] != heads[1]
    assert f"{option[2:]}={a}" in heads[0][0]
    # every command here takes --seed, so it names its stream version
    assert f"stream={STREAM_VERSION}" in heads[0][0].split()


# The parser's surface: per subcommand, the function it runs, the defaults
# it sets beside its options, and per option its (default, required,
# choices, action class, type name); each dest is the option string
# without its dashes. Every subcommand also takes --out. Help wording is
# left out, since argparse wraps it differently across Python versions.
# No number option has an argparse type: main reads them after parsing.
_REQ = (None, True, None, "_StoreAction", None)
_REQ_INT = (None, True, None, "_StoreAction", None)
_ALIAS = (None, True, None, "_StoreAction", "<lambda>")
_SEED = (0, False, None, "_StoreAction", None)
_RANK = (2, False, None, "_StoreAction", None)
_P = (None, False, None, "_StoreAction", None)
_BUDGET = (10**6, False, None, "_StoreAction", None)
_TEXT_CSV = ("text", False, ("text", "csv"), "_StoreAction", None)
_DRAWN = {"--seed": _SEED, "--rank": _RANK, "--p": _P}
_BALL = {"--base": _REQ, "--radius": _REQ_INT, **_DRAWN, "--budget": _BUDGET}
_ALIAS_BALL = {**_BALL, "--base": _ALIAS}

PARSER_SURFACE = {
    "ball": ("cmd_ball", {}, {
        **_BALL,
        "--format": ("sgr", False, ("sgr", "edgelist"), "_StoreAction", None),
    }),
    "metric": ("cmd_metric", {}, {
        "--base": _REQ, "--other": _REQ, "--max-radius": _REQ_INT,
        "--other-seed": _SEED, **_DRAWN, "--budget": _BUDGET}),
    "fingerprint": ("cmd_fingerprint", {}, {
        "--base": _REQ, "--radius": _REQ_INT, **_DRAWN}),
    "aut": ("cmd_aut", {}, {"--graph": _REQ}),
    "sample-normalizer": ("cmd_ball", {"format": "sgr"}, _ALIAS_BALL),
    "sample-poulsen": ("cmd_ball", {"format": "sgr"}, _ALIAS_BALL),
    "enumerate-normalizer": ("cmd_enumerate_normalizer", {}, {
        "--base": _REQ,
        "--check-invariance": (False, False, None, "_StoreTrueAction", None),
        "--radius": (2, False, None, "_StoreAction", None),
        "--p": _P, "--budget": _BUDGET}),
    "encode": ("cmd_encode", {}, {
        "--subshift": _REQ, "--radius": _REQ_INT,
        "--basepoint": (None, False, None, "_StoreAction", None),
        "--budget": _BUDGET}),
    "decode": ("cmd_decode", {}, {"--graph": _REQ, "--radius": _REQ_INT}),
    "check-equivariance": ("cmd_check_equivariance", {}, {
        "--subshift": _REQ, "--trials": _REQ_INT,
        "--radius": (4, False, None, "_StoreAction", None),
        "--max-word-len": (3, False, None, "_StoreAction", None),
        "--seed": _SEED, "--budget": _BUDGET}),
    "upsilon": ("cmd_upsilon", {}, {
        "--graph": _REQ, "--subshift": _REQ, "--radius": _REQ_INT,
        "--budget": _BUDGET}),
    "lambda": ("cmd_lambda", {}, {"--subshift": _REQ}),
    "stab-law": ("cmd_stab_law", {}, {"--action": _REQ}),
    "tnf-check": ("cmd_tnf_check", {}, {"--action": _REQ}),
    "first-return": ("cmd_first_return", {}, {
        "--action": _REQ, "--gen": _REQ_INT, "--subset": _REQ}),
    "estimate": ("cmd_estimate", {}, {
        "--sampler": _REQ, "--fingerprint": ("e", False, None,
                                             "_StoreAction", None),
        "--radius": _REQ_INT, "--samples": _REQ_INT, **_DRAWN}),
    "invariance": ("cmd_invariance", {}, {
        "--sampler": _REQ, "--radius": _REQ_INT, "--samples": _REQ_INT,
        "--min-mass": (Fraction(1, 100), False, None, "_StoreAction", None),
        "--z-threshold": (4.0, False, None, "_StoreAction", None),
        **_DRAWN, "--format": _TEXT_CSV}),
    "sweep": ("cmd_sweep", {}, {
        "--construction": ("poulsen", False, ("poulsen", "normalizer"),
                           "_StoreAction", None),
        "--base": _REQ, "--p-list": _REQ,
        "--fingerprint": ("e", False, None, "_StoreAction", None),
        "--radius": _REQ_INT, "--samples": _REQ_INT, **_DRAWN,
        "--format": _TEXT_CSV}),
}


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_surface_is_pinned():
    commands = _subparsers(build_parser())
    assert list(commands) == list(PARSER_SURFACE)
    for name, (fn, defaults, options) in PARSER_SURFACE.items():
        sp = commands[name]
        assert sp.get_default("fn").__name__ == fn, name
        assert {k: v for k, v in sp._defaults.items() if k != "fn"} \
            == defaults, name
        seen = {}
        for a in sp._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            (option,) = a.option_strings
            assert a.dest == option[2:].replace("-", "_"), (name, option)
            seen[option] = (a.default, a.required, a.choices,
                            type(a).__name__,
                            None if a.type is None else a.type.__name__)
        expected = {**options,
                    "--out": (None, False, None, "_StoreAction", None)}
        assert seen == expected, name
        assert f"usage: irslab {name}" in sp.format_help()


def _readme_commands():
    """Each `irslab …` line of the fenced block under README's
    "## Command line", continuation lines joined, comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "irslab", line
            commands.append(words[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_commands(),
                         ids=lambda argv: argv[0])
def test_readme_command_examples_parse(argv):
    # parsing only: the files the examples name need not exist
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
