"""Vectorized array kernels behind the delay/load evaluators.

The public evaluators in :mod:`repro.core.placement` are thin wrappers
around these kernels: every quantity of Section 1.2 is expressed as a
handful of dense ``numpy`` operations over the cached all-pairs distance
matrix, with the scalar paper-faithful loops retained in ``placement``
as ``*_reference`` oracles.  The equivalence test layer
(``tests/test_kernels_equivalence.py``) proves kernel and oracle agree
to 1e-12 across random instances, including ``inf`` (disconnected) and
zero-rate edge cases.

Every kernel works on plain arrays — distance matrix, image node
indices, padded quorum member rows — so the same code serves
placements, candidate sweeps, and benchmarks without rebuilding
``Placement`` objects.  See ``docs/performance.md`` for the design and
memory notes.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .._validation import contract, cost, require

__all__ = [
    "expected_max_delays",
    "expected_total_delays",
    "node_load_vector",
    "capacity_factors",
    "max_capacity_factor",
]

#: Cap on the ``clients x quorums x members`` intermediate of
#: :func:`expected_max_delays`; larger workloads are processed in quorum
#: chunks so memory stays bounded (see docs/performance.md).
_MAX_BLOCK_ELEMENTS = 1 << 22


@contract(
    shapes={
        "matrix": ("c", "n"),
        "image_indices": ("U",),
        "members": ("s", "L"),
        "probabilities": ("s",),
    },
    dtypes={
        "matrix": "float",
        "image_indices": "int",
        "members": "int",
        "probabilities": "float",
    },
    simplex=("probabilities",),
    returns={"shape": ("c",), "dtype": "float"},
)
@cost("n * q")
def expected_max_delays(
    matrix: NDArray[np.float64],
    image_indices: NDArray[np.intp],
    members: NDArray[np.intp],
    probabilities: NDArray[np.float64],
) -> NDArray[np.float64]:
    """``Delta_f(v)`` for every client ``v`` (equation (2)), batched.

    Parameters
    ----------
    matrix:
        ``(c, n)`` distance rows, one per evaluated client, columns in
        node-index order — the full all-pairs matrix for every client,
        or any row slice of it (``inf`` marks unreachable pairs and
        propagates through the max-reduction).
    image_indices:
        ``(U,)`` node index of ``f(u)`` per universe element.
    members:
        ``(s, L)`` padded member rows from
        :func:`repro.quorums.strategy.quorum_member_matrix`, one row per
        supported quorum.
    probabilities:
        ``(s,)`` strictly positive access probabilities aligned with the
        member rows (the strategy's support).
    """
    require(np.ndim(matrix) == 2, "matrix must be 2-d (clients x nodes)")
    matrix = np.asarray(matrix, dtype=float)
    image_indices = np.asarray(image_indices, dtype=np.intp)
    members = np.asarray(members, dtype=np.intp)
    probabilities = np.asarray(probabilities, dtype=float)
    require(members.ndim == 2, "members must be a 2-d index array")
    require(probabilities.shape == (members.shape[0],),
            "need one probability per member row")
    n = matrix.shape[0]
    # d(v, f(u)) for every client v and universe element u.
    placed = matrix[:, image_indices]
    result = np.zeros(n)
    chunk = max(1, _MAX_BLOCK_ELEMENTS // max(1, n * members.shape[1]))
    for start in range(0, members.shape[0], chunk):
        block = members[start : start + chunk]
        # (n, b, L) -> max over members -> (n, b) -> probability-weighted sum.
        delta = placed[:, block].max(axis=2)
        result += delta @ probabilities[start : start + chunk]
    return result


@contract(
    shapes={"matrix": ("c", "n"), "image_indices": ("U",), "loads": ("U",)},
    dtypes={"matrix": "float", "image_indices": "int", "loads": "float"},
    nonnegative=("loads",),
    returns={"shape": ("c",), "dtype": "float"},
)
@cost("n * q")
def expected_total_delays(
    matrix: NDArray[np.float64],
    image_indices: NDArray[np.intp],
    loads: NDArray[np.float64],
) -> NDArray[np.float64]:
    """``Gamma_f(v)`` for every client ``v`` via the identity
    ``Gamma_f(v) = sum_u load(u) d(v, f(u))`` (Section 5).

    *matrix* follows the :func:`expected_max_delays` convention: one
    distance row per evaluated client, columns in node-index order.
    """
    require(np.ndim(matrix) == 2, "matrix must be 2-d (clients x nodes)")
    matrix = np.asarray(matrix, dtype=float)
    image_indices = np.asarray(image_indices, dtype=np.intp)
    loads = np.asarray(loads, dtype=float)
    require(loads.shape == image_indices.shape,
            "need one load per placed universe element")
    return matrix[:, image_indices] @ loads


@contract(
    shapes={"image_indices": ("U",), "loads": ("U",)},
    dtypes={"image_indices": "int", "loads": "float"},
    nonnegative=("loads",),
    returns={"shape": ("n",), "dtype": "float", "nonnegative": True},
)
@cost("n * q")
def node_load_vector(
    image_indices: NDArray[np.intp], loads: NDArray[np.float64], size: int
) -> NDArray[np.float64]:
    """``load_f(v)`` per node index: element loads scattered onto their
    image nodes (zero where nothing is placed)."""
    require(np.ndim(image_indices) == 1, "image_indices must be 1-d")
    image_indices = np.asarray(image_indices, dtype=np.intp)
    loads = np.asarray(loads, dtype=float)
    require(loads.shape == image_indices.shape,
            "need one load per placed universe element")
    require(size >= 1, "size must be at least 1")
    if image_indices.size:
        require(int(image_indices.min()) >= 0 and int(image_indices.max()) < size,
                "image node indices out of range")
    return np.bincount(image_indices, weights=loads, minlength=size)


@contract(
    shapes={"load_vector": ("n",), "capacities": ("n",)},
    dtypes={"load_vector": "float", "capacities": "float"},
    nonnegative=("load_vector",),
    returns={"shape": ("n",), "dtype": "float", "nonnegative": True},
)
@cost("n * q")
def capacity_factors(
    load_vector: NDArray[np.float64], capacities: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Per-node ``load_f(v) / cap(v)``: zero for unloaded nodes, ``inf``
    when a zero-capacity node carries positive load."""
    require(np.ndim(load_vector) == 1, "load_vector must be 1-d")
    load_vector = np.asarray(load_vector, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    require(load_vector.shape == capacities.shape,
            "need one capacity per node load")
    loaded = load_vector > 0
    factors = np.zeros_like(load_vector)
    with np.errstate(divide="ignore"):
        factors[loaded] = load_vector[loaded] / capacities[loaded]
    return factors


@contract(
    shapes={"load_vector": ("n",), "capacities": ("n",)},
    dtypes={"load_vector": "float", "capacities": "float"},
    nonnegative=("load_vector",),
)
@cost("n * q")
def max_capacity_factor(
    load_vector: NDArray[np.float64], capacities: NDArray[np.float64]
) -> float:
    """The largest ``load_f(v)/cap(v)`` over loaded nodes (0.0 when no
    node carries load) — the quantity Theorem 1.2 bounds by ``alpha+1``."""
    factors = capacity_factors(load_vector, capacities)
    return float(factors.max()) if factors.size else 0.0
