"""Independent re-check of a returned eigenpair set, for the tests."""

from dataclasses import dataclass

import numpy as np

from fibrelab.eigensolve import EigenPairSet
from fibrelab.operators import DiscreteOperator


@dataclass
class PairVerification:
    max_residual: float
    max_gram_offdiag: float
    gram: np.ndarray


def verify_pairs(op: DiscreteOperator, pairs: EigenPairSet) -> PairVerification:
    """Recompute residuals ``|K x - lambda W x| / |W x|`` and the W-Gram matrix."""
    if pairs.vectors.shape[0] != op.dim:
        raise ValueError("dimension mismatch between operator and pairs")
    wx = op.weight[:, None] * pairs.vectors
    res = np.linalg.norm(op.stiffness @ pairs.vectors - pairs.values * wx, axis=0)
    res = res / np.linalg.norm(wx, axis=0)
    gram = pairs.vectors.T @ wx
    off = gram - np.diag(np.diag(gram))
    return PairVerification(
        max_residual=float(res.max()) if len(res) else 0.0,
        max_gram_offdiag=float(np.max(np.abs(off))) if off.size else 0.0,
        gram=gram,
    )
