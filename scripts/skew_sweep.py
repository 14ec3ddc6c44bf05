"""Sweep the generator's attractiveness exponent and watch how score
concentration and the eigen-vs-citations agreement respond.

Flat attractiveness spreads citations evenly; steep attractiveness piles
them onto a few journals.  The sweep prints one row per exponent with the
top-decile eigen share and the Spearman correlation between eigen scores
and raw citation counts, averaged over seeds.
"""

import argparse
from dataclasses import replace

from citerank.cli import _checked, _integer, _years
from citerank.compare import concentration, spearman
from citerank.eigenrank import build_matrix, eigen_scores
from citerank.metrics import total_citations
from citerank.syngen import GenSettings, generate


def top_share(vector, k):
    ((_, share),) = concentration(vector, [k])
    return share


def main(argv=None):
    valid = GenSettings(1, (2002, 2006))  # GenSettings checks each flag's value in its field
    skew = _checked(float, lambda v: replace(valid, skew_exponent=v))
    parser = argparse.ArgumentParser(
        description="sweep the synthetic generator's skew exponent"
    )
    parser.add_argument("--n-journals", default=300,
                        type=_checked(int, lambda v: replace(valid, n_journals=v)))
    parser.add_argument("--years", default="2002:2006", metavar="FIRST:LAST",
                        type=_checked(_years, lambda v: replace(valid, years=v)))
    parser.add_argument("--mean-out", default=30.0,
                        type=_checked(float, lambda v: replace(valid, mean_out_citations=v)))
    parser.add_argument("--seeds", type=_integer(1), default=5, help="seeds to average over")
    parser.add_argument("--exponents", default="0.25,0.5,1.0,2.0,4.0",
                        type=lambda text: [skew(part) for part in text.split(",") if part])
    args = parser.parse_args(argv)

    first, last = args.years
    k = max(1, args.n_journals // 10)

    print(f"n={args.n_journals}, years {first}:{last}, top decile = top {k}")
    print(f"{'skew':>6}  {'top-decile eigen share':>22}  {'spearman(eigen, cites)':>22}")
    for exponent in args.exponents:
        shares, rhos = [], []
        for seed in range(args.seeds):
            corpus = generate(
                GenSettings(
                    n_journals=args.n_journals,
                    years=(first, last),
                    skew_exponent=exponent,
                    mean_out_citations=args.mean_out,
                    seed=seed,
                )
            )
            matrix, articles = build_matrix(corpus)
            eigen = eigen_scores(matrix, articles)
            shares.append(top_share(eigen, k))
            rhos.append(spearman(eigen, total_citations(corpus)))
        mean_share = sum(shares) / len(shares)
        mean_rho = sum(rhos) / len(rhos)
        print(f"{exponent:>6.2f}  {mean_share:>22.3f}  {mean_rho:>22.3f}")


if __name__ == "__main__":
    main()
