"""Cartesian topology communicator (``MPI_Cart_create`` family).

Used by the grid-decomposed exemplars (e.g. the forest-fire simulation's
row-striped domain) and the neighbor-exchange patternlets.
"""

from __future__ import annotations

from typing import Sequence

from .comm import CommCore, Intracomm
from .frontend import CartTopology

__all__ = ["Cartcomm", "compute_dims"]


def compute_dims(nnodes: int, ndims: int) -> list[int]:
    """Balanced factorization of ``nnodes`` over ``ndims`` dimensions.

    Mirrors ``MPI_Dims_create``: dimensions are as close to each other as
    possible and sorted in non-increasing order.
    """
    if nnodes < 1 or ndims < 1:
        raise ValueError("nnodes and ndims must be positive")
    dims = [1] * ndims
    remaining = nnodes
    # Repeatedly assign the largest prime factor to the currently smallest dim.
    factors: list[int] = []
    f = 2
    while f * f <= remaining:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1
    if remaining > 1:
        factors.append(remaining)
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    return sorted(dims, reverse=True)


class Cartcomm(CartTopology, Intracomm):
    """A threads-backend communicator whose ranks are arranged on a grid."""

    def __init__(
        self,
        core: CommCore,
        rank: int,
        dims: Sequence[int],
        periods: Sequence[bool],
    ) -> None:
        super().__init__(core, rank)
        self._dims = tuple(int(d) for d in dims)
        self._periods = tuple(bool(p) for p in periods)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Cartcomm dims={self._dims} periods={self._periods} "
            f"rank={self._rank} coords={self.coords}>"
        )
