"""Sweep the generator's attractiveness exponent and watch how score
concentration and the eigen-vs-citations agreement respond.

Flat attractiveness spreads citations evenly; steep attractiveness piles
them onto a few journals.  The sweep prints one row per exponent with the
top-decile eigen share and the Spearman correlation between eigen scores
and raw citation counts, averaged over seeds.
"""

import argparse
from dataclasses import replace

from citerank.cli import _gen_field, _integer, _years, run_reporting_errors
from citerank.compare import concentration, spearman
from citerank.eigenrank import build_matrix, eigen_scores
from citerank.metrics import total_citations
from citerank.syngen import GenSettings, generate


def top_share(vector, k):
    ((_, share),) = concentration(vector, [k])
    return share


def sweep(args, runs):
    """Print the header and one row per exponent's settings in `runs`."""
    first, last = args.years
    k = max(1, args.n_journals // 10)

    print(f"n={args.n_journals}, years {first}:{last}, top decile = top {k}")
    print(f"{'skew':>6}  {'top-decile eigen share':>22}  {'spearman(eigen, cites)':>22}")
    for settings in runs:
        shares, rhos = [], []
        for seed in range(args.seeds):
            corpus = generate(replace(settings, seed=seed))
            matrix, articles = build_matrix(corpus)
            eigen = eigen_scores(matrix, articles)
            shares.append(top_share(eigen, k))
            rhos.append(spearman(eigen, total_citations(corpus)))
        mean_share = sum(shares) / len(shares)
        mean_rho = sum(rhos) / len(rhos)
        print(f"{settings.skew_exponent:>6.2f}  {mean_share:>22.3f}  {mean_rho:>22.3f}")
    return 0


def main(argv=None):
    skew = _gen_field("skew_exponent", float)
    parser = argparse.ArgumentParser(
        description="sweep the synthetic generator's skew exponent"
    )
    parser.add_argument("--n-journals", default=300, type=_gen_field("n_journals", int))
    parser.add_argument("--years", default="2002:2006", metavar="FIRST:LAST",
                        type=_gen_field("years", _years))
    parser.add_argument("--mean-out", default=30.0, type=_gen_field("mean_out_citations", float))
    parser.add_argument("--seeds", type=_integer(1), default=5, help="seeds to average over")
    parser.add_argument("--exponents", default="0.25,0.5,1.0,2.0,4.0",
                        type=lambda text: [skew(part) for part in text.split(",") if part])
    args = parser.parse_args(argv)
    # Every run's settings, checked before anything is printed; a seed breaks no rule.
    try:
        runs = [GenSettings(args.n_journals, args.years, exponent, args.mean_out)
                for exponent in args.exponents]
    except ValueError as exc:
        parser.error(str(exc))
    return run_reporting_errors(parser.prog, sweep, args, runs)


if __name__ == "__main__":
    raise SystemExit(main())
