"""Dense brute-force reference for the damped power iteration.

It materializes the full damped transition matrix and runs a fixed 10,000
multiplications from the uniform vector, with no sparse shortcuts, to
cross-check `citerank.eigenrank.eigen_scores` on desk-scale instances.  It
lives with the tests so that the check shares no code with the iteration it
checks.
"""

import numpy as np

from citerank.eigenrank import CrossCitationMatrix, EigenSettings
from citerank.errors import MatrixBuildError
from citerank.metrics import MetricVector

DENSE_ORACLE_MAX_ORDER = 64
DENSE_ORACLE_MULTIPLICATIONS = 10_000


def dense_matrix(matrix: CrossCitationMatrix) -> np.ndarray:
    """H as a dense array, built from the entries with `np.add.at`."""
    H = np.zeros((matrix.order, matrix.order))
    np.add.at(H, (matrix.rows, matrix.columns), matrix.weights)
    return H


def dense_oracle_scores(
    matrix: CrossCitationMatrix,
    articles: np.ndarray,
    settings: EigenSettings = EigenSettings(),
) -> MetricVector:
    """Brute-force reference: explicit dense damped matrix, 10,000
    multiplications from the uniform vector, then the same scoring pass.

    Only for desk-scale checks (order <= 64); no sparse shortcuts.
    """
    n = matrix.order
    if n > DENSE_ORACLE_MAX_ORDER:
        raise MatrixBuildError(
            f"dense oracle limited to order <= {DENSE_ORACLE_MAX_ORDER}, got {n}"
        )
    a = articles
    H = dense_matrix(matrix)
    H[:, matrix.dangling] = a[:, None]
    P = settings.alpha * H + (1.0 - settings.alpha) * np.outer(a, np.ones(n))
    p = np.full(n, 1.0 / n)
    for _ in range(DENSE_ORACLE_MULTIPLICATIONS):
        p = P @ p
    flow = H @ p  # H already carries the dangling replacement
    scores = 100.0 * flow / flow.sum()
    provenance = (
        f"eigenfactor alpha={settings.alpha} dense reference "
        f"({DENSE_ORACLE_MULTIPLICATIONS} multiplications) "
        f"exclude_self={not matrix.window.include_self} window=[{matrix.window.describe()}]"
    )
    return MetricVector("eigenfactor", matrix.journal_ids, scores, provenance)
