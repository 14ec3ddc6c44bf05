"""Citation-network ranking toolkit.

Computes raw citation counts, Impact Factors, and iteratively weighted
influence scores over journal citation networks, and compares the
resulting rankings: Spearman and log-Pearson correlations, top-k
concentration shares, consecutive-rank gaps, and bivariate density
ellipses for plot-ready output.  Import each name from its module, such as
`citerank.corpus`.
"""

__version__ = "0.1.0"
