"""Golden digests of the seeded outputs.

Each case renders a deterministic output of the library as text and pins
its blake2b digest, so any change to discovery order, vertex tokens, edge
order, canonical numbering or exact masses shows up as a failing case. A
change to these outputs must be deliberate: it updates the digest and says
why in CHANGES.md. The digests pin version STREAM_VERSION of the random
stream; a change to the stream bumps the version and updates them together.
"""

import hashlib
from fractions import Fraction

import pytest

from irslab import (
    FiniteOracle,
    NormalizerLaw,
    PointLaw,
    PoulsenLaw,
    aut_trivial_mass,
    ball,
    canonical_code,
    cylinder_fingerprint,
    emit_edgelist,
    emit_sgr,
    enumerate_normalizer_law,
    oracle_from_code,
    orbit_schreier,
    parse_sgr,
    trivial_law,
)
from irslab.actions import emit_action, random_action, random_transitive_action
from irslab.analysis import conjugate_code
from irslab.cli import main
from irslab.encoding import (
    emit_subshift,
    parse_subshift,
    point_class_code,
    psi_oracle,
    random_subshift_space,
)
from irslab.montecarlo import (
    CylinderSpec,
    convergence_sweep,
    estimate_cylinder,
    exact_invariance_rows,
    invariance_report,
    render_invariance,
    render_sweep,
)
from irslab.normalizer import NormalizerOracle
from irslab.oracles import conjugate, sub_ball
from irslab.poulsen import PercolationGraph, star_ball
from irslab.randomness import STREAM_VERSION, KeyedRng

from irslab.words import letters_ordered

from helpers import cyclic_oracle, index2_oracle

P = Fraction(1, 10)
SEEDS = (0, 1, 2, 3, 4)


def _laws():
    trivial = trivial_law(2)
    normalizer = NormalizerLaw(trivial, P)
    return {
        "trivial": trivial,
        "normalizer:trivial": normalizer,
        "poulsen:normalizer:trivial": PoulsenLaw(normalizer, P),
    }


def _view_text(view) -> str:
    """A view, its sub-balls, and the radius and re-emission of its parse."""
    text = emit_sgr(view)
    out = [text, emit_edgelist(view)]
    for k in range(view.radius + 1):
        out.append(emit_sgr(sub_ball(view, k)))
    back = parse_sgr(text)
    out.append(f"parsed radius {back.radius}\n")
    out.append(emit_sgr(back))
    return "".join(out)


def _balls(spec: str) -> str:
    law = _laws()[spec]
    seeds = SEEDS[:1] if spec == "trivial" else SEEDS
    out = []
    for seed in seeds:
        oracle = law.sample(seed)
        for radius in range(6):
            out.append(_view_text(ball(oracle, radius)))
    return "".join(out)


def _star_balls(spec: str, p: Fraction) -> str:
    law = _laws()[spec]
    out = []
    for seed in SEEDS:
        graph = PercolationGraph(law, p, seed)
        for radius in (0, 2, 4):
            out.append(_view_text(star_ball(graph, radius)))
    return "".join(out)


def _orbit_codes() -> str:
    out = []
    for n in range(1, 9):
        for seed in SEEDS:
            action = random_action(n, 2, seed)
            for x in range(n):
                graph = orbit_schreier(action, x)
                out.append(f"{graph.vertices} {canonical_code(graph)}\n")
    return "".join(out)


def _tripled_codes() -> str:
    bases = [index2_oracle(), cyclic_oracle(4), cyclic_oracle(5, 2),
             orbit_schreier(random_transitive_action(6, 2, 3), 0)]
    out = []
    for k, base in enumerate(bases):
        rng = KeyedRng(k, "golden-marks")
        for _ in range(20):
            table = {v: rng.randrange(base.rank + 1) for v in base.vertices}
            for slot in (0, 1, 2):
                code = canonical_code(
                    NormalizerOracle(base, table.__getitem__, slot))
                out.append(f"{code} {conjugate_code(code, (1, -2))}\n")
    return "".join(out)


def _point_classes() -> str:
    out = []
    for n, alphabet in ((1, 1), (3, 2), (5, 3), (8, 2), (12, 4)):
        for seed in SEEDS:
            space = random_subshift_space(n, 2, alphabet, seed)
            for q in range(n):
                out.append(f"{point_class_code(space, q)}\n")
    return "".join(out)


def _subshift_files() -> str:
    # two spaces of different rank and alphabet, one with fixed points and
    # a basepoint other than 0
    return "".join(
        emit_subshift(random_subshift_space(n, rank, alphabet, seed), basepoint)
        for n, rank, alphabet, seed, basepoint in ((5, 2, 3, 0, 0),
                                                   (9, 3, 4, 1, 6)))


def _encoded_balls() -> str:
    # a rank-2 and a rank-3 space, each from its first and its last point
    out = []
    for n, rank, alphabet, seed in ((5, 2, 3, 7), (4, 3, 4, 8)):
        space = random_subshift_space(n, rank, alphabet, seed)
        for q in (0, n - 1):
            out.append(emit_sgr(ball(psi_oracle(space.point(q)), 6)))
    return "".join(out)


def _aut_masses() -> str:
    bases = [FiniteOracle.from_perms([tuple((v + 1) % n for v in range(n))] * 2)
             for n in range(1, 7)]
    bases += [orbit_schreier(random_transitive_action(n, 2, 5), 0)
              for n in (4, 5, 6)]
    out = []
    for base in bases:
        for p in (Fraction(1, 2), Fraction(1, 3)):
            out.append(f"{aut_trivial_mass(base, p)}\n")
    return "".join(out)


def _random_aut_masses() -> str:
    # random bases of index 7-8 at rank 2 and 4-5 at rank 3: most have no
    # automorphism, so every mark assignment is its own orbit
    bases = [orbit_schreier(random_transitive_action(n, rank, seed), 0)
             for n, rank in ((7, 2), (8, 2), (4, 3), (5, 3))
             for seed in (0, 1, 2)]
    out = []
    for base in bases:
        for p in (Fraction(1, 2), Fraction(1, 10)):
            out.append(f"{aut_trivial_mass(base, p)}\n")
    return "".join(out)


# the random index-8 base of the bench's `exact` workload at --seed 1
BENCH_EXACT_SEED = 18180102201420570201


def _cycle_type_aut_masses() -> str:
    # random bases of index 6-8 at rank 2 and 5 at rank 3, each with a
    # letter of several cycles. At p = 1/2, those of seeds 1, 13, 18, 17 and
    # 33 have a mass below 1 (index 6 seed 13 and index 8 seed 33 have an
    # automorphism); the rest, and the bench's base, have mass 1
    bases = [random_transitive_action(n, rank, seed)
             for n, rank, seeds in ((6, 2, (1, 13, 18)), (7, 2, (3, 5, 17)),
                                    (8, 2, (3, 5, 33)), (5, 3, (3, 4, 5)))
             for seed in seeds]
    bases.append(random_transitive_action(8, 2, BENCH_EXACT_SEED))
    out = []
    for action in bases:
        base = orbit_schreier(action, 0)
        for p in (Fraction(1, 2), Fraction(1, 10)):
            out.append(f"{action.perms} {p} {aut_trivial_mass(base, p)}\n")
    return "".join(out)


def _normalizer_laws() -> str:
    out = []
    for base in (index2_oracle(), cyclic_oracle(3)):
        for slot in (None, 0):
            law = enumerate_normalizer_law(base, Fraction(1, 2),
                                           biased_root_slot=slot)
            out.append(f"{law.items_sorted()}\n")
    return "".join(out)


def _cyclic5_law():
    return enumerate_normalizer_law(cyclic_oracle(5), Fraction(1, 2))


def _exact_rows() -> str:
    rows = exact_invariance_rows(_cyclic5_law(), 2)
    return render_invariance(rows) + render_invariance(rows, "csv")


def _conjugate_codes() -> str:
    out = []
    for code, mass in _cyclic5_law().items_sorted():
        for l in letters_ordered(2):
            out.append(f"{code} {mass} {l} {conjugate_code(code, (l,))}\n")
    return "".join(out)


# Monte Carlo reports: seeded draws of whole samples through nested laws,
# point base laws and roots both marked and unmarked, at small sizes.
MC_SPEC = CylinderSpec(((),), 2)
MC_SWEEP_P = (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))


def _invariance(law, n: int) -> str:
    rows = invariance_report(law, 1, n, 11)
    return render_invariance(rows) + render_invariance(rows, "csv")


def _sweep(construction: str, base_law, spec) -> str:
    rows = convergence_sweep(construction, base_law, MC_SWEEP_P, spec, 1000, 12)
    return render_sweep(rows) + render_sweep(rows, "csv")


def _cyclic3_sweep() -> str:
    # Poulsen over the trivial point law keeps every sample a tree, so its
    # sweep reads no draw; over a finite point law the draws show.
    base = cyclic_oracle(3)
    spec = CylinderSpec(cylinder_fingerprint(base, 2), 2)
    return _sweep("poulsen", PointLaw(base, "cyclic3"), spec)


def _estimate() -> str:
    law = _laws()["poulsen:normalizer:trivial"]
    return estimate_cylinder(law, MC_SPEC, 2000, 13).render() + "\n"


def _complete_sgr(graph) -> str:
    return emit_sgr(ball(graph, len(graph.vertices)))


# Deep balls: every vertex of a Poulsen sample costs a mark and a
# percolation draw; nested Poulsen laws give paths of depth >= 2 and tokens
# with escaped trails.
DEEP_SEEDS = range(12)


def _deep_balls(law, radius: int) -> str:
    return "".join(emit_sgr(ball(law.sample(seed), radius))
                   for seed in DEEP_SEEDS)


def _poulsen_normalizer(p: Fraction, depth: int = 1):
    law = NormalizerLaw(trivial_law(2), p)
    for _ in range(depth):
        law = PoulsenLaw(law, p)
    return law


# A base whose vertex names are non-ASCII (multi-byte UTF-8 length prefixes
# in the mark keys) or hold the characters Poulsen tokens escape.
NAMED_BASE = ["é", "ß|1", "日本", "a/b", "x\\y", "€"]


CASES = {
    **{f"ball {spec}": (lambda spec=spec: _balls(spec)) for spec in _laws()},
    "star_ball trivial p=1/2": lambda: _star_balls("trivial", Fraction(1, 2)),
    "star_ball normalizer:trivial p=1/10":
        lambda: _star_balls("normalizer:trivial", P),
    "canonical_code orbit": _orbit_codes,
    "canonical_code tripled": _tripled_codes,
    "point_class_code": _point_classes,
    "emit_subshift": _subshift_files,
    "encoded balls": _encoded_balls,
    "aut_trivial_mass": _aut_masses,
    "aut_trivial_mass random": _random_aut_masses,
    "aut_trivial_mass cycle type": _cycle_type_aut_masses,
    "enumerate_normalizer_law": _normalizer_laws,
    "exact_invariance_rows cyclic5": _exact_rows,
    "conjugate_code cyclic5 atoms": _conjugate_codes,
    "invariance_report poulsen:normalizer:trivial":
        lambda: _invariance(_laws()["poulsen:normalizer:trivial"], 2000),
    "invariance_report biased-normalizer:trivial p=1/2":
        lambda: _invariance(NormalizerLaw(trivial_law(2), Fraction(1, 2),
                                          biased_root_slot=0), 2000),
    "invariance_report normalizer:trivial p=1/2":
        lambda: _invariance(NormalizerLaw(trivial_law(2), Fraction(1, 2)), 2000),
    "convergence_sweep poulsen":
        lambda: _sweep("poulsen", trivial_law(2), MC_SPEC),
    "convergence_sweep normalizer":
        lambda: _sweep("normalizer", trivial_law(2), MC_SPEC),
    "convergence_sweep poulsen cyclic3": _cyclic3_sweep,
    "estimate_cylinder poulsen:normalizer:trivial": _estimate,
    "deep ball poulsen:normalizer:trivial r=5 p=1/10":
        lambda: _deep_balls(_poulsen_normalizer(P), 5),
    "deep ball poulsen:normalizer:trivial r=5 p=1/2":
        lambda: _deep_balls(_poulsen_normalizer(Fraction(1, 2)), 5),
    "deep ball poulsen:poulsen:normalizer:trivial r=3 p=1/2":
        lambda: _deep_balls(_poulsen_normalizer(Fraction(1, 2), 2), 3),
}

GOLDEN = {
    "aut_trivial_mass": "2a7a3f63d1b6e95085814eeece786e64",
    "aut_trivial_mass random": "db5c0d110e8707f2f7b9cd265aa4560d",
    "aut_trivial_mass cycle type": "c1c4a747bacade3ec2ca217b657c6528",
    "ball normalizer:trivial": "c2ca9673dfac871cd5de31cb812bed34",
    "ball poulsen:normalizer:trivial": "c887126b7b9443b66d90c4156f279eab",
    "ball trivial": "d4d080b7f6c08c2ffd0ab95d51357bf7",
    "canonical_code orbit": "cc0e2b30ab01db2804fd1f4d01f9b701",
    "canonical_code tripled": "ad3e31219dc778fd011ad9f2f3774f8d",
    "cli aut": "d0e6474100e8cd7f5cefb4790e41da0d",
    "cli ball": "4547128e75207bb3e09865ba2c02a6b0",
    "cli check-equivariance": "0f6b6c9785f4862fc64e90fe41e4bb38",
    "cli encode": "2df8bfd6696bca6b5dab318b15ca476e",
    "cli enumerate-normalizer": "599542037eb61d51bf40d287fb39f917",
    "cli lambda": "f233bf3452a2081020f8a09ab7b3faf5",
    "cli named file base": "3882c5f9b12d9b089d5408fcfd494e0b",
    "cli stab-law": "a3c5293e4a0c248d60f979221b6c8d6a",
    "cli upsilon": "8e5eae035cbe26836fe2ad881ff7a694",
    "conjugate_code cyclic5 atoms": "a756bd5eb75ccb3910886671db3ec230",
    "convergence_sweep normalizer": "00078c747b5894e5916daeda5ce8dd50",
    "convergence_sweep poulsen": "a77566d1948a8dbf9e4e4072f6616a9e",
    "convergence_sweep poulsen cyclic3": "e29c42d14dd4eb372724665b652071fd",
    "deep ball poulsen:normalizer:trivial r=5 p=1/10":
        "c7b7d42b2cf86a0081e8ba33c0313c8a",
    "deep ball poulsen:normalizer:trivial r=5 p=1/2":
        "52afa0d0b5e1dec949e695cd722678f1",
    "deep ball poulsen:poulsen:normalizer:trivial r=3 p=1/2":
        "8eb89ba8ae70cfe932394aae50a73665",
    "emit_subshift": "9088f9c2e7b03cc6f39dec01e4cd11aa",
    "encoded balls": "e74aac017bc529e3db8b5244dc644ec6",
    "enumerate_normalizer_law": "00acbe9bbe9e9b045594ef23d8d846dc",
    "estimate_cylinder poulsen:normalizer:trivial":
        "cf7aedfab6f3c9d0731fa8e29d656ca7",
    "exact_invariance_rows cyclic5": "e7aa0d730c3ce116b5a684edbefc006c",
    "invariance_report biased-normalizer:trivial p=1/2":
        "370edd814a99fb843ce94ad754050c8d",
    "invariance_report normalizer:trivial p=1/2":
        "f78a59a5068feb402cdb55f475f10996",
    "invariance_report poulsen:normalizer:trivial":
        "ae68f3e500a81458f0655cfb3db87ce9",
    "point_class_code": "d4b3a7bcfe6d454ff33946ebc805a78c",
    "star_ball normalizer:trivial p=1/10": "280a72964e524ad2306b12127bd16780",
    "star_ball trivial p=1/2": "4bebdd540508f52c4f951cc2f74cd4e8",
}


def test_golden_digests_pin_stream_version_2():
    assert STREAM_VERSION == 2


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert _digest(CASES[name]()) == GOLDEN[name]


def test_golden_cli_ball(capsys):
    for spec in _laws():
        assert main(["ball", "--base", spec, "--p", "1/10", "--seed", "1",
                     "--radius", "3"]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli ball"]


def test_golden_cli_enumerate_normalizer(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for n in (3, 4):
        (tmp_path / f"cyclic{n}.sgr").write_text(_complete_sgr(cyclic_oracle(n)))
        for p in ("1/2", "1/3"):
            assert main(["enumerate-normalizer", "--base", f"file:cyclic{n}.sgr",
                         "--p", p, "--check-invariance", "--radius", "2"]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli enumerate-normalizer"]


def test_golden_cli_aut(capsys, tmp_path):
    graphs = [index2_oracle(), cyclic_oracle(5, 2), cyclic_oracle(6, 3),
              orbit_schreier(random_transitive_action(7, 2, 2), 0)]
    law = enumerate_normalizer_law(cyclic_oracle(3), Fraction(1, 2))
    graphs += [oracle_from_code(code) for code, _ in law.items_sorted()]
    for k, graph in enumerate(graphs):
        path = tmp_path / f"g{k}.sgr"
        path.write_text(_complete_sgr(graph))
        assert main(["aut", "--graph", str(path)]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli aut"]


def test_golden_cli_named_file_base(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph = orbit_schreier(random_transitive_action(6, 2, 4), 0)
    named = FiniteOracle(graph.action, 0, NAMED_BASE)
    (tmp_path / "named.sgr").write_text(_complete_sgr(named), encoding="utf-8")
    for spec, radius in (("normalizer:file:named.sgr", 4),
                         ("poulsen:normalizer:file:named.sgr", 3)):
        for seed in range(6):
            assert main(["ball", "--base", spec, "--p", "1/2", "--seed",
                         str(seed), "--radius", str(radius)]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli named file base"]


def test_golden_cli_stab_law(capsys, tmp_path, monkeypatch):
    # transitive and intransitive actions, with and without fixed points
    monkeypatch.chdir(tmp_path)
    actions = [random_transitive_action(n, rank, seed)
               for n, rank in ((4, 2), (6, 2), (5, 3)) for seed in (0, 1)]
    actions += [random_action(n, rank, 7) for n, rank in ((6, 2), (5, 3))]
    for k, action in enumerate(actions):
        (tmp_path / f"a{k}.txt").write_text(emit_action(action))
        assert main(["stab-law", "--action", f"a{k}.txt"]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli stab-law"]


# Encoded configurations through the CLI: the two-point space (s1 swaps
# points labeled 1 and 2, s2 fixes them) at alphabet 6, a random 3-point
# rank-2 space at alphabet 3 from basepoint 2 and a random 4-point rank-3
# space at alphabet 3.
TWO_POINT_SUB = """\
alphabet 6
points 2
perm s1: (0 1)
perm s2: id
label 0 1
label 1 2
basepoint 0
"""


@pytest.fixture
def subshift_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.sub").write_text(TWO_POINT_SUB)
    (tmp_path / "three.sub").write_text(
        emit_subshift(random_subshift_space(3, 2, 3, 21), 2))
    (tmp_path / "rank3.sub").write_text(
        emit_subshift(random_subshift_space(4, 3, 3, 22), 0))
    return tmp_path


def test_golden_cli_encode(capsys, subshift_files):
    for name in ("two.sub", "three.sub"):
        assert main(["encode", "--subshift", name, "--radius", "8"]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli encode"]


def test_golden_cli_lambda(capsys, subshift_files):
    for name in ("two.sub", "rank3.sub"):
        assert main(["lambda", "--subshift", name]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli lambda"]


def test_golden_cli_check_equivariance(capsys, subshift_files):
    for name in ("three.sub", "rank3.sub"):
        assert main(["check-equivariance", "--subshift", name,
                     "--trials", "50", "--radius", "4"]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli check-equivariance"]


def test_golden_cli_upsilon(capsys, subshift_files):
    # encoded graphs with their roots moved off the encoded set by g^-1
    for name, g in (("two.sub", (-1,)), ("three.sub", (2, 1))):
        space, basepoint = parse_subshift((subshift_files / name).read_text())
        moved = conjugate(psi_oracle(space.point(basepoint)), g)
        (subshift_files / "moved.sgr").write_text(emit_sgr(ball(moved, 10)))
        assert main(["upsilon", "--graph", "moved.sgr", "--subshift", name,
                     "--radius", "3"]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN["cli upsilon"]
