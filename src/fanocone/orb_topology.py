"""Integral orbifold cohomology of weighted projective spaces.

The table behind the wps-cohomology subcommand: free of rank one in even
degrees up to the real dimension, torsion of order prod(w_i) above it,
zero in odd degrees.
"""

from dataclasses import dataclass
from math import prod

__all__ = [
    "GradedPiece",
    "wps_cohomology",
]


@dataclass(frozen=True)
class GradedPiece:
    kind: str  # "free", "torsion" or "zero"
    rank: int = 0
    order: int = 1

    def __str__(self):
        if self.kind == "free":
            return "Z" if self.rank == 1 else "Z^%d" % self.rank
        if self.kind == "torsion":
            return "Z_%d" % self.order
        return "0"

    @property
    def q_rank(self):
        return self.rank if self.kind == "free" else 0


FREE = GradedPiece(kind="free", rank=1)
ZERO = GradedPiece(kind="zero")


def wps_cohomology(w, k):
    """Integral orbifold cohomology of P(w1,...,wn) in degree k."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    n = w.n
    if k % 2 == 1:
        return ZERO
    if k <= 2 * n - 2:
        return FREE
    return GradedPiece(kind="torsion", order=prod(w.a))
