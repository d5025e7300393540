#!/usr/bin/env python3
"""Run the full ablation ladder on one dataset.

Evaluates the combined metric in all four configurations (full, without
the structural penalties, without the length penalty, base metric alone)
and prints a per-language-pair comparison table:

    python3 scripts/run_ablation.py /tmp/corpus/manifest.jsonl
    python3 scripts/run_ablation.py manifest.jsonl --base tsv:meteor.tsv
"""

import json
import sys

from swss.cli import _load_params, _naming_dataset, _Parser, _resolve_base
from swss.errors import SwssError
from swss.harness import ABLATIONS, evaluate, load_dataset


def main() -> None:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--params", help="JSON file with parameter overrides")
    parser.add_argument("--base", default="bleu", help="base metric: 'bleu' or 'tsv:PATH'")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--out", help="write all four reports as one JSON file")
    args = parser.parse_args()
    # Input errors exit 1 with one line on stderr, as in ``swss evaluate``.
    try:
        run(args)
    except (SwssError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


def run(args) -> None:
    params = _load_params(args.params)
    base = _resolve_base(args.base)

    records = load_dataset(args.manifest)
    with _naming_dataset(args):
        reports = {
            ablation: evaluate(records, params, base=base, ablation=ablation, strict=args.strict)
            for ablation in ABLATIONS
        }

    pairs = sorted(reports["full"].per_pair)
    header = f"{'lang pair':<12}" + "".join(f"{a:>12}" for a in ABLATIONS)
    print(header)
    for pair in pairs:
        row = f"{pair:<12}" + "".join(f"{reports[a].per_pair[pair]:>12.4f}" for a in ABLATIONS)
        print(row)
    print(f"{'average':<12}" + "".join(f"{reports[a].average:>12.4f}" for a in ABLATIONS))

    if args.out:
        payload = {a: r.to_dict() for a, r in reports.items()}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
