#!/usr/bin/env python3
"""Generate a synthetic evaluation dataset.

Writes random UCCA graph pairs plus a manifest whose human scores follow
base + beta * swss + noise, which makes the corpus useful for sanity
checks of the evaluate/tune workflow:

    python3 scripts/make_synthetic_dataset.py --out /tmp/corpus --segments 50
    swss evaluate /tmp/corpus/manifest.jsonl
    swss tune /tmp/corpus/manifest.jsonl --grid grid.json
"""

from swss.cli import _Parser
from swss.synthetic import write_synthetic_dataset


def main() -> None:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--segments", type=int, default=50)
    parser.add_argument("--lang-pairs", default="aa-en,bb-en", help="comma-separated pair names")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--beta", type=float, default=0.2, help="true combination weight in the labels")
    parser.add_argument("--noise", type=float, default=0.01, help="stddev of Gaussian label noise")
    args = parser.parse_args()

    manifest = write_synthetic_dataset(
        args.out,
        n_segments=args.segments,
        lang_pairs=tuple(args.lang_pairs.split(",")),
        seed=args.seed,
        beta_true=args.beta,
        noise=args.noise,
    )
    print(manifest)


if __name__ == "__main__":
    main()
