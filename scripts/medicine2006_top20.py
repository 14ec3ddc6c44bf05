"""Side-by-side view of the bundled 2006 medicine top-20 files.

Prints each journal with its rank under the three bundled metrics, then
the pairwise correlations and the citation concentration at the top of
the table.
"""

import argparse
import itertools
from pathlib import Path

from citerank.cli import load_metric_file, run_reporting_errors
from citerank.compare import compare_metrics, concentration, rank

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
FILES = {
    "eigenfactor": "top20_medicine2006_eigenfactor.json",
    "total_citations": "top20_medicine2006_citations.json",
    "impact_factor": "top20_medicine2006_impact_factor.json",
}


def show(data_dir):
    """Print the rank table, correlations and concentration of the files in `data_dir`."""
    vectors = {
        name: load_metric_file(data_dir / filename)
        for name, filename in FILES.items()
    }
    tables = {name: rank(vector, "min") for name, vector in vectors.items()}
    ranks = {name: dict(zip(table.journals, table.ranks.tolist())) for name, table in tables.items()}

    eigen = vectors["eigenfactor"]
    print(f"{'journal':<22} {'eigen':>8} {'rank':>4} {'cites':>7} {'rank':>4} {'IF':>7} {'rank':>4}")
    for jid in tables["eigenfactor"].journals:
        print(
            f"{jid:<22} {eigen.scores[jid]:>8.4f} {ranks['eigenfactor'][jid]:>4}"
            f" {vectors['total_citations'].scores[jid]:>7.0f} {ranks['total_citations'][jid]:>4}"
            f" {vectors['impact_factor'].scores[jid]:>7.3f} {ranks['impact_factor'][jid]:>4}"
        )

    print()
    for name_x, name_y in itertools.combinations(FILES, 2):
        report = compare_metrics(vectors[name_x], vectors[name_y])
        print(
            f"{name_x} vs {name_y}: spearman {report.spearman_rho:.4f},"
            f" pearson(log10) {report.pearson_log_rho:.4f}, n {report.n}"
        )

    print()
    for k, share in concentration(vectors["total_citations"], (1, 5, 10)):
        print(f"top {k:>2} of these 20 hold {share:.1%} of their citations")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="rank table and correlations for the bundled 2006 medicine top 20"
    )
    parser.add_argument("--data-dir", type=Path, default=DATA_DIR)
    args = parser.parse_args(argv)
    return run_reporting_errors(parser.prog, show, args.data_dir)


if __name__ == "__main__":
    raise SystemExit(main())
