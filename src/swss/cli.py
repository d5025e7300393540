"""Command-line interface.

Subcommands: ``score`` a single candidate/reference pair, ``evaluate`` a
dataset manifest against human judgments, ``tune`` parameters by grid
search, and ``inspect`` one UCCA file. All machine output is JSON; exit
codes are 0 on success, 1 for input errors, 2 for internal errors.
"""

import argparse
import contextlib
import json
import logging
import sys
import traceback

from .core_words import CORE_CATEGORIES
from .errors import DatasetError, SwssError, _decode_json, _read_lines
from .harness import ABLATIONS, TuneGrid, _reports, _tuned, load_dataset
from .lexical import load_external_scores
from .scoring import GraphFeatures, SwssParams, swss
from .ucca_graph import load_graph


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _load_json_object(path, kind: str, from_dict):
    """Read a JSON object from ``path`` and build it with ``from_dict``;
    every error names the file."""
    data = _decode_json("".join(_read_lines(path, f"{kind} file")), ValueError, path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: {kind} file must hold a JSON object")
    try:
        return from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_params(path) -> SwssParams:
    if path is None:
        return SwssParams()
    return _load_json_object(path, "parameter", SwssParams.from_dict)


def _resolve_base(spec: str):
    if spec == "bleu":
        return "bleu"
    kind, _, path = spec.partition(":")
    if kind == "tsv" and path:
        return load_external_scores(path)
    raise ValueError(f"unknown base metric {spec!r}; expected 'bleu' or 'tsv:PATH'")


def _write_out(payload: dict, out_path) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def cmd_score(args) -> int:
    params = _load_params(args.params)
    candidate = load_graph(args.candidate, lenient=args.lenient)
    reference = load_graph(args.reference, lenient=args.lenient)
    breakdown = swss(candidate, reference, params)
    print(json.dumps(breakdown.to_dict(), indent=2))
    return 0


def _fmt_r(value) -> str:
    return f"{value:>12.4f}" if value is not None else f"{'n/a':>12}"


def _report_table(report) -> str:
    lines = [f"{'lang pair':<12}{'n':>6}{report.base_name:>12}{'combined':>12}"]
    for lang_pair in sorted(report.per_pair):
        lines.append(
            f"{lang_pair:<12}{report.n[lang_pair]:>6}"
            f"{_fmt_r(report.base_per_pair[lang_pair])}{_fmt_r(report.per_pair[lang_pair])}"
        )
    lines.append(f"{'average':<12}{'':>6}{_fmt_r(report.base_average)}{_fmt_r(report.average)}")
    return "\n".join(lines)


def _ladder_table(reports) -> str:
    # One column per ablation, in ABLATIONS order.
    lines = [f"{'lang pair':<12}" + "".join(f"{a:>12}" for a in ABLATIONS)]
    for lang_pair in sorted(reports[0].per_pair):
        lines.append(f"{lang_pair:<12}" + "".join(_fmt_r(r.per_pair[lang_pair]) for r in reports))
    lines.append(f"{'average':<12}" + "".join(_fmt_r(r.average) for r in reports))
    return "\n".join(lines)


@contextlib.contextmanager
def _naming_dataset(args):
    # What evaluating the records finds wrong (a language pair with one
    # record, a base table without a row) comes from the manifest or the
    # base table, so the error names both.
    try:
        yield
    except DatasetError as exc:
        base = "" if args.base == "bleu" else f" (base {args.base})"
        raise DatasetError(f"{args.manifest}{base}: {exc}") from None


def cmd_evaluate(args) -> int:
    params = _load_params(args.params)
    base = _resolve_base(args.base)
    records = load_dataset(args.manifest)
    ladder = args.ablation == "all"
    with _naming_dataset(args):
        reports = _reports(records, params, base, ABLATIONS if ladder else (args.ablation,), args.strict)
    if ladder:
        print(_ladder_table(reports))
        payload = {a: r.to_dict() for a, r in zip(ABLATIONS, reports)}
    else:
        print(_report_table(reports[0]))
        payload = reports[0].to_dict()
    if reports[0].skipped:
        print(f"({reports[0].skipped} segment(s) skipped)", file=sys.stderr)
    _write_out(payload, args.out)
    return 0


def cmd_tune(args) -> int:
    grid = _load_json_object(args.grid, "grid", TuneGrid.from_dict)
    base = _resolve_base(args.base)
    records = load_dataset(args.manifest)
    with _naming_dataset(args):
        report = _tuned(records, grid, base, args.strict)
    payload = {
        "params": report.params.to_dict(),
        "objective": report.average,
        "grid_size": grid.size,
        "report": report.to_dict(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    _write_out(payload["params"], args.out)
    return 0


def cmd_inspect(args) -> int:
    graph = load_graph(args.ucca, lenient=args.lenient)
    features = GraphFeatures.of(graph)
    stats = features.stats
    labels = [graph.lowest_label(t.id) for t in graph.terminals]
    summary = {
        "tokens": features.tokens,
        "lowest_labels": [label.value for label in labels],
        "core_words": [w.surface for w in features.bag.words],
        "core_stems": [w.stem for w in features.bag.words],
        "scenes": stats.scenes,
        "nodes": stats.nodes,
        "internal_nodes": stats.internal_nodes,
        "critical_edges": stats.critical_edges,
        "critical_edges_with_remote": features.stats_with_remote.critical_edges,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    width = max(len(t) for t in summary["tokens"])
    for token, label in zip(summary["tokens"], labels):
        core = "core" if label in CORE_CATEGORIES else ""
        print(f"{token:<{width}}  {label.value}  {core}")
    print(f"core words:     {' '.join(summary['core_words'])}")
    print(f"scenes:         {stats.scenes}")
    print(f"nodes:          {stats.nodes} ({stats.internal_nodes} internal)")
    print(f"critical edges: {stats.critical_edges} ({features.stats_with_remote.critical_edges} with remote)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swss", description="Semantic sentence similarity over UCCA graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score one candidate/reference pair")
    score.add_argument("candidate", help="candidate UCCA file (XML or JSON)")
    score.add_argument("reference", help="reference UCCA file (XML or JSON)")
    score.add_argument("--params", help="JSON file with parameter overrides")
    score.add_argument("--lenient", action="store_true", help="drop dangling remote edges")
    score.set_defaults(func=cmd_score)

    ev = sub.add_parser("evaluate", help="correlate metric scores with human judgments")
    ev.add_argument("manifest", help="newline-delimited JSON dataset manifest")
    ev.add_argument("--params", help="JSON file with parameter overrides")
    ev.add_argument("--base", default="bleu", help="base metric: 'bleu' or 'tsv:PATH'")
    ev.add_argument("--ablation", choices=(*ABLATIONS, "all"), default="full", help="all: one report per ablation")
    ev.add_argument("--strict", action="store_true", help="abort on invalid UCCA parses instead of skipping")
    ev.add_argument("--out", help="write the JSON report (with --ablation all, one per ablation) here")
    ev.set_defaults(func=cmd_evaluate)

    tune = sub.add_parser("tune", help="grid-search parameters on a dev set")
    tune.add_argument("manifest", help="newline-delimited JSON dataset manifest")
    tune.add_argument("--grid", required=True, help="JSON file with per-parameter value lists")
    tune.add_argument("--base", default="bleu", help="base metric: 'bleu' or 'tsv:PATH'")
    tune.add_argument("--strict", action="store_true", help="abort on invalid UCCA parses instead of skipping")
    tune.add_argument("--out", help="write the best parameters here, as a file that --params reads")
    tune.set_defaults(func=cmd_tune)

    inspect = sub.add_parser("inspect", help="summarize one UCCA file")
    inspect.add_argument("ucca", help="UCCA file (XML or JSON)")
    inspect.add_argument("--json", action="store_true", help="machine-readable output")
    inspect.add_argument("--lenient", action="store_true", help="drop dangling remote edges")
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SwssError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
