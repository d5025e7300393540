import codecs
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swss
from conftest import ODD_VALUES, mutate_bytes, mutate_json
from swss import harness
from swss.cli import main
from swss.harness import ABLATIONS, load_dataset
from swss.synthetic import write_synthetic_dataset


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    dest = tmp_path_factory.mktemp("cli_corpus")
    return write_synthetic_dataset(dest, n_segments=16, lang_pairs=("aa-en",), seed=11, noise=0.01)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScore:
    def test_self_pair_default_params(self, capsys, figure_xml_path):
        code, out, _ = run(capsys, "score", str(figure_xml_path), str(figure_xml_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["f1"] == 1.0
        assert payload["fallback_used"] is False
        assert payload["p_scene"] == payload["p_node"] == payload["p_edge"] == 0.0
        assert payload["swss"] == pytest.approx(math.exp(-0.01 * 9), rel=1e-12)
        assert payload["candidate"]["core_words"] == 6

    def test_cross_format_pair(self, capsys, figure_xml_path, figure_json_path):
        code, out, _ = run(capsys, "score", str(figure_xml_path), str(figure_json_path))
        assert code == 0
        assert json.loads(out)["f1"] == 1.0

    def test_params_file(self, capsys, tmp_path, figure_xml_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"alpha4": 0.0}))
        code, out, _ = run(capsys, "score", str(figure_xml_path), str(figure_xml_path), "--params", str(params_path))
        assert code == 0
        assert json.loads(out)["swss"] == 1.0

    def test_weights_near_the_float_maximum_give_finite_json(self, capsys, tmp_path, figure_xml_path, figure_json_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"category_weights": {code: 1e308 for code in "ACPS"}}))
        pair = (str(figure_xml_path), str(figure_json_path))
        code, out, _ = run(capsys, "score", *pair, "--params", str(params_path))
        assert code == 0

        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")

        assert json.loads(out, parse_constant=not_json) == json.loads(run(capsys, "score", *pair)[1])

    def test_malformed_input_exits_one_and_names_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<root><layer")
        code, out, err = run(capsys, "score", str(bad), str(bad))
        assert code == 1
        assert not out
        assert "bad.xml" in err and "error:" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "score", str(tmp_path / "none.xml"), str(tmp_path / "none.xml"))
        assert code == 1
        assert "error:" in err

    def test_bad_params_key_exits_one(self, capsys, tmp_path, figure_xml_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"gamma": 2}))
        code, _, err = run(capsys, "score", str(figure_xml_path), str(figure_xml_path), "--params", str(params_path))
        assert code == 1
        assert "unknown parameter" in err


class TestInspect:
    def test_figure_json_summary(self, capsys, figure_xml_path):
        code, out, _ = run(capsys, "inspect", str(figure_xml_path), "--json")
        assert code == 0
        summary = json.loads(out)
        assert summary["core_words"] == ["John", "Mary", "bought", "sofa", "I", "sold"]
        assert summary["scenes"] == 2
        assert summary["nodes"] == 14
        assert summary["critical_edges"] == 5
        assert summary["critical_edges_with_remote"] == 6
        assert summary["lowest_labels"] == ["C", "N", "C", "P", "E", "C", "A", "P", "D"]

    def test_human_readable_output(self, capsys, figure_xml_path):
        code, out, _ = run(capsys, "inspect", str(figure_xml_path))
        assert code == 0
        assert "scenes:         2" in out
        assert "bought" in out

    @pytest.mark.parametrize("graph", ["figure", "all-categories"])
    def test_text_marks_exactly_the_core_words(self, capsys, tmp_path, figure_xml_path, graph):
        path = figure_xml_path
        if graph == "all-categories":
            # One word per category, each the only child of its edge.
            codes = [c.value for c in swss.Category]
            edges = [{"parent": "u", "child": {"terminal": i}, "category": c} for i, c in enumerate(codes, start=1)]
            document = {
                "tokens": [f"word{c}" for c in codes],
                "nodes": [{"id": "r"}, {"id": "u"}],
                "root": "r",
                "edges": [{"parent": "r", "child": "u", "category": "H"}, *edges],
            }
            path = tmp_path / "all.json"
            path.write_text(json.dumps(document))
        summary = json.loads(run(capsys, "inspect", str(path), "--json")[1])
        code, out, _ = run(capsys, "inspect", str(path))
        assert code == 0
        rows = [line.split() for line in out.splitlines()[: len(summary["tokens"])]]
        assert [row[:2] for row in rows] == [list(pair) for pair in zip(summary["tokens"], summary["lowest_labels"])]
        assert all(row[2:] in ([], ["core"]) for row in rows)
        assert [row[0] for row in rows if row[2:]] == summary["core_words"]
        assert {row[1] for row in rows if row[2:]} == {"P", "S", "A", "C"} & {row[1] for row in rows}

    def test_no_scene_graph(self, capsys, tmp_path):
        document = {
            "tokens": ["very", "nice"],
            "nodes": [{"id": "r"}, {"id": "u"}],
            "root": "r",
            "edges": [
                {"parent": "r", "child": "u", "category": "H", "remote": False},
                {"parent": "u", "child": {"terminal": 1}, "category": "E", "remote": False},
                {"parent": "u", "child": {"terminal": 2}, "category": "D", "remote": False},
            ],
        }
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(document))
        code, out, _ = run(capsys, "inspect", str(path), "--json")
        assert code == 0
        summary = json.loads(out)
        assert summary["scenes"] == 0
        assert summary["core_words"] == []


class TestEvaluate:
    def test_report_written_and_table_printed(self, capsys, tmp_path, corpus):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "evaluate", str(corpus), "--out", str(out_path))
        assert code == 0
        assert "lang pair" in out and "aa-en" in out and "average" in out
        report = json.loads(out_path.read_text())
        assert report["n"] == {"aa-en": 16}
        assert report["base"] == "bleu"
        assert report["params"]["alpha1"] == 0.2
        assert -1.0 <= report["average"] <= 1.0

    def test_ablation_no_repr_equals_manual_zeroing(self, capsys, tmp_path, corpus):
        flagged_path = tmp_path / "flagged.json"
        manual_path = tmp_path / "manual.json"
        params_path = tmp_path / "zeroed.json"
        params_path.write_text(json.dumps({"alpha1": 0.0, "alpha2": 0.0, "alpha3": 0.0}))

        assert run(capsys, "evaluate", str(corpus), "--ablation", "no-repr", "--out", str(flagged_path))[0] == 0
        assert run(capsys, "evaluate", str(corpus), "--params", str(params_path), "--out", str(manual_path))[0] == 0
        assert json.loads(flagged_path.read_text()) == json.loads(manual_path.read_text())

    def test_external_base_used_in_combination(self, capsys, tmp_path, corpus):
        # Constant external scores: combined correlation must then equal
        # the correlation of swss alone (affine invariance), and the base
        # column is undefined.
        rows = "\n".join(f"synthetic\t{i}\t0.5" for i in range(16)) + "\n"
        tsv = tmp_path / "meteor.tsv"
        tsv.write_text(rows)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "evaluate", str(corpus), "--base", f"tsv:{tsv}", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["base"] == "meteor"
        assert report["base_per_pair"]["aa-en"] is None
        assert "n/a" in out

    def test_missing_tsv_exits_one(self, capsys, corpus):
        code, _, err = run(capsys, "evaluate", str(corpus), "--base", "tsv:/nonexistent.tsv")
        assert code == 1
        assert "not found" in err

    def test_bad_base_spec_exits_one(self, capsys, corpus):
        code, _, err = run(capsys, "evaluate", str(corpus), "--base", "rouge")
        assert code == 1
        assert "unknown base metric" in err

    def test_bad_manifest_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "evaluate", str(tmp_path / "none.jsonl"))
        assert code == 1
        assert "manifest not found" in err

    def test_unknown_ablation_flag_value(self, capsys, corpus):
        code, _, err = run(capsys, "evaluate", str(corpus), "--ablation", "everything")
        assert code == 1
        assert "invalid choice" in err

    def test_strict_aborts_on_corrupt_graph(self, capsys, tmp_path, corpus):
        lines = corpus.read_text().splitlines()
        record = json.loads(lines[0])
        broken = tmp_path / record["candidate_ucca"]
        broken.write_text("{not json")
        (tmp_path / record["reference_ucca"]).write_text((corpus.parent / record["reference_ucca"]).read_text())
        patched = tmp_path / "manifest.jsonl"
        patched.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")

        code, _, err = run(capsys, "evaluate", str(patched), "--strict")
        assert code == 1
        assert "error:" in err and record["candidate_ucca"] in err


class TestTune:
    def grid_file(self, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        return path

    def test_singleton_grid_echoes_point(self, capsys, tmp_path, corpus):
        grid = self.grid_file(
            tmp_path,
            {"alpha1": [0.2], "alpha2": [1.0], "alpha3": [0.5], "alpha4": [0.01], "beta": [0.2], "omega": [0.5]},
        )
        out_path = tmp_path / "best.json"
        code, out, _ = run(capsys, "tune", str(corpus), "--grid", str(grid), "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["grid_size"] == 1
        assert payload["params"]["beta"] == 0.2
        assert json.loads(out_path.read_text()) == payload["params"]

    @pytest.mark.parametrize("base", ["bleu", "tsv"])
    def test_out_file_is_what_evaluate_params_reads(self, capsys, tmp_path, base):
        # The paper's step from tuning on dev data to evaluating with the
        # tuned parameters: the objective is the average evaluate reports.
        manifest = write_synthetic_dataset(tmp_path, n_segments=12, lang_pairs=("aa-en", "bb-en"), seed=3, noise=0.02)
        options = []
        if base == "tsv":
            table = tmp_path / "base.tsv"
            table.write_text(
                "".join(f"{r.system}\t{r.segment_id}\t{(7 * r.segment_id % 11) / 11}\n" for r in load_dataset(manifest))
            )
            options = ["--base", f"tsv:{table}"]
        grid = self.grid_file(tmp_path, {"alpha1": [0.0, 0.5], "beta": [0.1, 0.5], "omega": [0.0, 0.5]})
        best = tmp_path / "best.json"
        prepared = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            prepare = harness._prepare_segments
            monkeypatch.setattr(harness, "_prepare_segments", lambda *args: prepared.append(1) or prepare(*args))
            code, out, err = run(capsys, "tune", str(manifest), "--grid", str(grid), "--out", str(best), *options)
        assert code == 0, err
        assert len(prepared) == 1
        tuned = json.loads(out)
        report = tmp_path / "report.json"
        code, _, err = run(capsys, "evaluate", str(manifest), "--params", str(best), "--out", str(report), *options)
        assert code == 0, err
        evaluated = report.read_text()
        assert json.loads(evaluated)["average"] == tuned["objective"]
        # The tuned point's report is the one evaluate writes, bit for bit.
        assert json.dumps(tuned["report"], indent=2, sort_keys=True) + "\n" == evaluated

    def test_deterministic_across_runs(self, capsys, tmp_path, corpus):
        grid = self.grid_file(tmp_path, {"beta": [0.05, 0.2], "omega": [0.0, 0.5]})
        first = run(capsys, "tune", str(corpus), "--grid", str(grid))
        second = run(capsys, "tune", str(corpus), "--grid", str(grid))
        assert first == second

    def test_empty_grid_list_exits_one(self, capsys, tmp_path, corpus):
        grid = self.grid_file(tmp_path, {"beta": []})
        code, _, err = run(capsys, "tune", str(corpus), "--grid", str(grid))
        assert code == 1
        assert "must not be empty" in err


NOT_UTF8 = b"\xff\xfe{"
DEEP_LIST = b"[" * 100_000


class TestInputFileErrors:
    """Every input file the CLI reads: a bad file exits 1 with an error
    that names it, never a traceback and exit 2."""

    def check(self, capsys, path, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 1, err
        assert err.startswith("error: ") and str(path) in err, err

    @pytest.mark.parametrize(
        "content",
        [
            NOT_UTF8,
            b'{"a":' * 100_000,
            b"1" * 5000,
            b'{"lang_pair": "de-en", "system": "s", "segment_id": 1, "candidate_ucca": "c.xml", '
            b'"reference_ucca": "r.xml", "human_score": 1' + b"0" * 400 + b"}",
        ],
        ids=["bytes", "nesting", "digits", "huge-score"],
    )
    def test_manifest(self, capsys, tmp_path, content):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(content)
        self.check(capsys, path, "evaluate", str(path))

    def test_tsv_base(self, capsys, tmp_path, corpus):
        path = tmp_path / "base.tsv"
        path.write_bytes(b"synthetic\t0\t0.5\n" + NOT_UTF8)
        self.check(capsys, path, "evaluate", str(corpus), "--base", f"tsv:{path}")

    @pytest.mark.parametrize(
        "content",
        [
            NOT_UTF8,
            DEEP_LIST,
            b'{"category_weights": []}',
            b'{"fallback_applies_penalties": "no"}',
            b'{"category_weights": {"P": true}}',
            b'{"alpha1": 1' + b"0" * 400 + b"}",
        ],
        ids=["bytes", "nesting", "weights-list", "flag-string", "weight-bool", "huge-int"],
    )
    def test_params(self, capsys, tmp_path, figure_xml_path, content):
        path = tmp_path / "params.json"
        path.write_bytes(content)
        self.check(capsys, path, "score", str(figure_xml_path), str(figure_xml_path), "--params", str(path))

    @pytest.mark.parametrize(
        "content",
        [NOT_UTF8, DEEP_LIST, b'{"beta": "abc"}', b'{"beta": [1' + b"0" * 400 + b"]}"],
        ids=["bytes", "nesting", "string", "huge-int"],
    )
    def test_grid(self, capsys, tmp_path, corpus, content):
        path = tmp_path / "grid.json"
        path.write_bytes(content)
        self.check(capsys, path, "tune", str(corpus), "--grid", str(path))

    @pytest.mark.parametrize("defect", ["missing-graph", "lone-pair", "missing-row"])
    def test_dataset_errors_name_the_file(self, capsys, corpus, defect):
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        if defect == "missing-graph":
            records[0]["candidate_ucca"] = "gone.json"
        elif defect == "lone-pair":
            records[0]["lang_pair"] = "zz-en"
        manifest = corpus.parent / f"{defect}.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        tsv = corpus.parent / f"{defect}.tsv"
        kept = records[1:] if defect == "missing-row" else records
        tsv.write_text("".join(f"{r['system']}\t{r['segment_id']}\t0.5\n" for r in kept))
        self.check(capsys, tsv if defect == "missing-row" else manifest, "evaluate", str(manifest), "--base", f"tsv:{tsv}")


VALID_PARAMS = {
    "alpha1": 0.1,
    "beta": 0.3,
    "omega": 0.25,
    "category_weights": {"P": 2.0, "A": 0.5},
    "fallback_applies_penalties": True,
    "include_remote_critical_edges": False,
}
VALID_GRID = {"alpha1": [0.0, 0.2], "alpha4": [0.0, 0.01], "beta": [0.1, 0.5], "omega": [0.0, 0.5]}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid file of each kind the CLI reads besides graphs, in a corpus
    directory so that a manifest written there finds the graph files."""
    dest = tmp_path_factory.mktemp("inputs")
    manifest = write_synthetic_dataset(dest, n_segments=8, lang_pairs=("aa-en", "bb-en"), seed=5, noise=0.01)
    tsv = "".join(f"{r.system}\t{r.segment_id}\t{r.human_score / 2}\n" for r in load_dataset(manifest))
    return dest, {
        "manifest": manifest.read_bytes(),
        "tsv": tsv.encode(),
        "params": json.dumps(VALID_PARAMS).encode(),
        "grid": json.dumps(VALID_GRID).encode(),
    }


def input_file_argv(dest, kind, path):
    """A command line that reads ``path`` as a file of ``kind``, with the
    other inputs from ``valid_inputs``."""
    manifest = dest / "manifest.jsonl"
    return {
        "manifest": ["evaluate", str(path)],
        "tsv": ["evaluate", str(manifest), "--base", f"tsv:{path}"],
        "params": ["evaluate", str(manifest), "--params", str(path)],
        "grid": ["tune", str(manifest), "--grid", str(path)],
    }[kind]


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", ["manifest", "tsv", "params", "grid"])
    def test_same_output_as_without(self, capsys, valid_inputs, kind):
        dest, contents = valid_inputs
        outputs = []
        for mark in (b"", codecs.BOM_UTF8):
            path = dest / f"marked.{kind}"
            path.write_bytes(mark + contents[kind])
            code, out, err = run(capsys, *input_file_argv(dest, kind, path))
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestInputFileReader:
    """The four text files a user hands swss are read alike: a missing
    file and one that is not UTF-8 give the same wording for each."""

    KINDS = {"manifest": "manifest", "tsv": "score table", "params": "parameter file", "grid": "grid file"}

    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_file(self, capsys, valid_inputs, kind):
        dest, _ = valid_inputs
        path = dest / f"missing.{kind}"
        code, _, err = run(capsys, *input_file_argv(dest, kind, path))
        assert code == 1
        assert err == f"error: {self.KINDS[kind]} not found: {path}\n"

    @pytest.mark.parametrize("kind", KINDS)
    def test_not_utf8(self, capsys, valid_inputs, kind):
        dest, contents = valid_inputs
        path = dest / f"latin1.{kind}"
        path.write_bytes(contents[kind] + "caf\xe9".encode("latin-1"))
        code, _, err = run(capsys, *input_file_argv(dest, kind, path))
        assert code == 1
        assert err.startswith(f"error: {path}: not UTF-8 text: "), err


class TestEmptyPaths:
    """An empty path is an error that names what the user gave, not the
    directory it would resolve to."""

    @staticmethod
    def argv(valid_inputs, command, manifest):
        dest, contents = valid_inputs
        if command == "evaluate":
            return [command, str(manifest)]
        grid = dest / "valid.grid"
        grid.write_bytes(contents["grid"])
        return [command, str(manifest), "--grid", str(grid)]

    @pytest.mark.parametrize("command", ["evaluate", "tune"])
    def test_tsv_base(self, capsys, valid_inputs, command):
        dest, _ = valid_inputs
        code, _, err = run(capsys, *self.argv(valid_inputs, command, dest / "manifest.jsonl"), "--base", "tsv:")
        assert code == 1
        assert err == "error: unknown base metric 'tsv:'; expected 'bleu' or 'tsv:PATH'\n"

    @pytest.mark.parametrize("command", ["evaluate", "tune"])
    @pytest.mark.parametrize("field", ["candidate_ucca", "reference_ucca"])
    def test_graph_path(self, capsys, valid_inputs, command, field):
        dest, contents = valid_inputs
        records = [json.loads(line) for line in contents["manifest"].decode().splitlines()]
        records[1][field] = ""
        path = dest / "empty-path.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, _, err = run(capsys, *self.argv(valid_inputs, command, path))
        assert code == 1
        assert err == f"error: {path}:2: field {field!r} is empty\n"


@st.composite
def value_mutants(draw, kind, content):
    """``content`` with one value replaced or removed: one JSON value of a
    manifest line or of a parameter or grid file, or one TSV cell."""
    if kind == "tsv":
        rows = [line.split("\t") for line in content.decode().splitlines()]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_VALUES) | st.text(max_size=4))
        return "".join("\t".join(row) + "\n" for row in rows).encode("utf-8", "surrogatepass")
    if kind == "manifest":
        lines = content.decode().splitlines()
        at = draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[at])
        mutate_json(draw, record)
        lines[at] = json.dumps(record)
        return "".join(line + "\n" for line in lines).encode()
    document = json.loads(content)
    mutate_json(draw, document)
    return json.dumps(document).encode()


class TestInputFileFuzz:
    """Whatever a mutated manifest, TSV base, parameter or grid file
    holds, ``swss evaluate`` and ``swss tune`` exit 0, or 1 with an error
    that names the file, never 2. Output is encoded as UTF-8, as on a
    terminal."""

    def check(self, valid_inputs, kind, content):
        dest, _ = valid_inputs
        path = dest / f"mutant.{kind}"
        path.write_bytes(content)
        argv = input_file_argv(dest, kind, path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="utf-8")), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0 or code == 1 and str(path) in err.getvalue(), err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["manifest", "tsv", "params", "grid"]))
    def test_byte_mutants(self, valid_inputs, data, kind):
        self.check(valid_inputs, kind, mutate_bytes(data.draw, valid_inputs[1][kind]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["manifest", "tsv", "params", "grid"]))
    def test_value_mutants(self, valid_inputs, data, kind):
        self.check(valid_inputs, kind, data.draw(value_mutants(kind, valid_inputs[1][kind])))


class TestCliSurface:
    def test_unknown_flag_rejected(self, capsys, figure_xml_path):
        code, _, err = run(capsys, "score", str(figure_xml_path), str(figure_xml_path), "--frobnicate")
        assert code == 1
        assert "unrecognized arguments" in err

    def test_unknown_subcommand_rejected(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1
        assert "invalid choice" in err

    def test_no_arguments_rejected(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "score" in out and "evaluate" in out and "tune" in out and "inspect" in out

    def test_internal_error_exits_two(self, capsys, monkeypatch, figure_xml_path):
        import swss.cli as cli_module

        def boom(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli_module, "cmd_score", boom)
        code = main(["score", str(figure_xml_path), str(figure_xml_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "RuntimeError" in captured.err

class TestAblationLadder:
    """``swss evaluate --ablation all``: one report per ablation, and the
    CLI's input errors."""

    def test_tsv_base_and_out(self, capsys, tmp_path, corpus):
        tsv = tmp_path / "meteor.tsv"
        tsv.write_text("".join(f"{r.system}\t{r.segment_id}\t{r.human_score}\n" for r in load_dataset(corpus)))
        out = tmp_path / "ablation.json"
        argv = ("evaluate", str(corpus), "--ablation", "all", "--base", f"tsv:{tsv}", "--out", str(out))
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        header, *rows = stdout.splitlines()
        assert header.split() == ["lang", "pair", "full", "no-repr", "no-len", "base-only"]
        assert [row.split()[0] for row in rows] == ["aa-en", "average"]
        reports = json.loads(out.read_text())
        assert sorted(reports) == sorted(ABLATIONS)
        assert {report["base"] for report in reports.values()} == {"meteor"}
        assert [float(r) for r in rows[0].split()[1:]] == [round(reports[a]["per_pair"]["aa-en"], 4) for a in ABLATIONS]

    def assert_input_error(self, code, err, message):
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run(capsys, "evaluate", "--ablation", "all")
        assert code == 1
        assert err.startswith("usage: ") and "manifest" in err

    def test_bare_path_base_gets_cli_error(self, capsys, corpus):
        code, _, err = run(capsys, "evaluate", str(corpus), "--ablation", "all", "--base", "meteor.tsv")
        self.assert_input_error(code, err, "unknown base metric 'meteor.tsv'")

    def test_dataset_error_names_the_manifest(self, capsys, corpus):
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        records[0]["lang_pair"] = "zz-en"
        manifest = corpus.parent / "ablation-lone-pair.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, _, err = run(capsys, "evaluate", str(manifest), "--ablation", "all")
        self.assert_input_error(code, err, f"{manifest}: language pair 'zz-en'")

    def test_non_object_params_gets_cli_error(self, capsys, tmp_path, corpus):
        params = tmp_path / "params.json"
        params.write_text("[1, 2]")
        code, _, err = run(capsys, "evaluate", str(corpus), "--ablation", "all", "--params", str(params))
        self.assert_input_error(code, err, "must hold a JSON object")


class TestSyntheticDatasetScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic_dataset.py"

    @pytest.mark.parametrize(
        "argv, code",
        [(["--bogus"], 1), ([], 1), (["--segments", "0"], 1), (["--segments", "-3"], 1), (["--segments", "4"], 0)],
        ids=["unknown-option", "no-out", "no-segments", "negative-segments", "valid"],
    )
    def test_usage_error_exits_one(self, tmp_path, argv, code):
        out = [] if argv == [] else ["--out", str(tmp_path / "corpus")]
        env = {**os.environ, "PYTHONPATH": str(Path(swss.__file__).parent.parent)}
        result = subprocess.run(
            [sys.executable, str(self.SCRIPT), *argv, *out], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == code, result.stderr
        if code:
            assert result.stderr.startswith("usage: ") and ": error: " in result.stderr
            assert not (tmp_path / "corpus").exists()
        else:
            assert Path(result.stdout.strip()).is_file()
