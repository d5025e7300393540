"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
its measured runtime (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines). Expected values are either golden fixtures checked by
inspection, independently computed oracles, or published reference data;
tolerances are pinned here and nowhere else.
"""

import json
import random
import time
from pathlib import Path

from conftest import bag_of_stems
from oracles import max_matching_bruteforce, reference_bleu
from swss.cli import main
from swss.core_words import clipped_match, extract_core_words
from swss.harness import TuneGrid, evaluate, grid_search, load_dataset, pearson
from swss.lexical import sentence_bleu
from swss.porter import stem
from swss.scoring import SwssParams, swss
from swss.synthetic import random_pair, write_synthetic_dataset
from swss.ucca_graph import parse_ucca_xml

DATA = Path(__file__).parent / "data"


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(criterion, ok, timer=None, limit=None, detail=""):
    status = "PASS" if ok else "FAIL"
    timing = f" [{timer.elapsed:.2f}s < {limit:.0f}s]" if timer is not None else ""
    print(f"ACCEPTANCE {status}: {criterion}{timing}{(' ' + detail) if detail else ''}")
    assert ok, f"{criterion}{' ' + detail if detail else ''}"
    if timer is not None:
        assert timer.elapsed < limit, f"{criterion}: took {timer.elapsed:.2f}s, limit {limit}s"


def test_criterion_1_figure_fixture_golden():
    with Timer() as timer:
        graph = parse_ucca_xml((DATA / "figure_sentence.xml").read_bytes())
        core = [w.surface for w in extract_core_words(graph).words]
        scenes = graph.count_scenes()
    ok = set(core) == {"John", "Mary", "bought", "sofa", "I", "sold"} and scenes == 2
    report(
        "1 figure fixture: core words and scene count",
        ok,
        timer,
        1.0,
        detail=f"(core={core}, scenes={scenes})",
    )


def test_criterion_2_matching_oracle():
    rng = random.Random(2024)
    stems = "abcdefgh"
    unit = SwssParams().weight  # the weights f1_score uses by default
    with Timer() as timer:
        ok = True
        for _ in range(1000):
            cand = [rng.choice(stems) for _ in range(rng.randint(0, 8))]
            ref = [rng.choice(stems) for _ in range(rng.randint(0, 8))]
            expected = max_matching_bruteforce(cand, ref)
            cand_bag, ref_bag = bag_of_stems(cand), bag_of_stems(ref)
            matched_cand, _ = clipped_match(cand_bag, ref_bag, unit)
            matched_ref, _ = clipped_match(ref_bag, cand_bag, unit)
            if matched_cand != expected or matched_ref != expected:
                ok = False
                break
    report("2 matching equals brute-force maximum bipartite matching (1000 pairs)", ok, timer, 10.0)


def test_criterion_3_porter_conformance():
    words = (DATA / "porter" / "voc.txt").read_text().split()
    expected = (DATA / "porter" / "output.txt").read_text().split()
    with Timer() as timer:
        mismatches = [(w, stem(w), e) for w, e in zip(words, expected) if stem(w) != e]
    ok = len(words) == 23531 and not mismatches
    report(
        "3 Porter conformance on the published reference vocabulary",
        ok,
        timer,
        5.0,
        detail=f"({len(words)} words, {len(mismatches)} mismatches)",
    )


def test_criterion_4_symmetry_and_bounds():
    rng = random.Random(4)
    params = SwssParams()
    with Timer() as timer:
        ok = True
        for _ in range(10_000):
            candidate, reference = random_pair(rng)
            forward = swss(candidate, reference, params)
            backward = swss(reference, candidate, params)
            if forward.swss != backward.swss:  # bit-exact symmetry
                ok = False
                break
            if not (0.0 <= forward.swss <= 1.0):
                ok = False
                break
            if not all(0.0 <= p <= 1.0 for p in (forward.p_scene, forward.p_node, forward.p_edge)):
                ok = False
                break
    report("4 symmetry (bit-exact) and bounds over 10,000 random graph pairs", ok, timer, 30.0)


def test_criterion_5_ablation_equivalences(tmp_path, capsys):
    manifest = write_synthetic_dataset(tmp_path / "corpus", n_segments=20, lang_pairs=("aa-en",), seed=5, noise=0.02)

    def run_cli(out_name, *extra):
        out_path = tmp_path / out_name
        code = main(["evaluate", str(manifest), "--out", str(out_path), *extra])
        capsys.readouterr()
        assert code == 0
        return json.loads(out_path.read_text())

    def params_file(name, **values):
        path = tmp_path / name
        path.write_text(json.dumps(values))
        return str(path)

    no_repr = run_cli("no_repr.json", "--ablation", "no-repr")
    manual_repr = run_cli("manual_repr.json", "--params", params_file("p1.json", alpha1=0.0, alpha2=0.0, alpha3=0.0))
    no_len = run_cli("no_len.json", "--ablation", "no-len")
    manual_len = run_cli("manual_len.json", "--params", params_file("p2.json", alpha4=0.0))
    base_only = run_cli("base_only.json", "--ablation", "base-only")
    manual_beta = run_cli("manual_beta.json", "--params", params_file("p3.json", beta=0.0))

    ok = no_repr == manual_repr and no_len == manual_len and base_only == manual_beta
    ok = ok and base_only["per_pair"] == base_only["base_per_pair"]
    report("5 ablation flags reproduce manually zeroed coefficients exactly", ok)


def test_criterion_6_bleu_oracle():
    rng = random.Random(6)
    vocab = "the cat dog sat mat on a ran jumps quickly slowly green".split()
    with Timer() as timer:
        worst = 0.0
        for _ in range(100):
            candidate = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
            reference = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
            ours = sentence_bleu(candidate, reference)
            theirs = reference_bleu(candidate, reference)
            worst = max(worst, abs(ours - theirs))
    report(
        "6 sentence BLEU agrees with an independent implementation on 100 pairs",
        worst <= 1e-9,
        timer,
        10.0,
        detail=f"(max abs diff {worst:.2e})",
    )


def test_criterion_7_pearson_properties():
    hand = pearson([1, 2, 3], [1, 3, 2])
    ok = abs(hand - 0.5) <= 1e-12

    rng = random.Random(7)
    for _ in range(200):
        xs = [float(rng.randint(-50, 50)) for _ in range(rng.randint(3, 20))]
        ys = [float(rng.randint(-50, 50)) for _ in range(len(xs))]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        scale = rng.uniform(0.1, 10)
        shift = rng.uniform(-100, 100)
        base = pearson(xs, ys)
        if abs(pearson([scale * x + shift for x in xs], ys) - base) > 1e-12:
            ok = False
            break
        if abs(pearson([-scale * x + shift for x in xs], ys) + base) > 1e-12:
            ok = False
            break
    report("7 pearson: hand-computed r=0.5 and affine invariance within 1e-12", ok, detail=f"(r={hand!r})")


def test_criterion_8_synthetic_end_to_end(tmp_path):
    with Timer() as timer:
        manifest = write_synthetic_dataset(
            tmp_path / "corpus",
            n_segments=50,
            lang_pairs=("aa-en", "bb-en"),
            seed=13,
            beta_true=0.2,
            noise=0.01,
        )
        records = load_dataset(manifest)

        beta_grid = (0.05, 0.1, 0.2, 0.4, 0.8)
        grid = TuneGrid(alpha1=(0.2,), alpha2=(1.0,), alpha3=(0.5,), alpha4=(0.01,), beta=beta_grid, omega=(0.5,))
        best, objective = grid_search(records, grid)

        # "Within one grid step of 0.2": the winning beta is 0.2 or an
        # immediate neighbor in the grid.
        step_of = {0.05: 1, 0.1: 2, 0.2: 3, 0.4: 4, 0.8: 5}
        recovered = abs(step_of[best.beta] - step_of[0.2]) <= 1

        report_full = evaluate(records, SwssParams())
        improves = report_full.average > report_full.base_average
    ok = recovered and improves
    report(
        "8 end-to-end: grid recovers beta near 0.2 and combined beats base",
        ok,
        timer,
        60.0,
        detail=(
            f"(best beta={best.beta}, objective={objective:.4f}, "
            f"combined r={report_full.average:.4f} vs base r={report_full.base_average:.4f})"
        ),
    )
