"""Exact linear algebra over QQ: matrices, ranks (exact or mod p), echelon forms, kernels."""

from .io import dump_matrix, load_matrix
from .matrix import (
    EXACT_DIM_LIMIT,
    KERNEL_BACKEND,
    ExactMatrix,
    RankResult,
    WeightBlocks,
    blocked_kernel_basis,
    blocked_rank_details,
    default_rng,
    independent_columns,
    kernel_basis,
    memory_budget_mb,
    rank,
    rank_details,
)
from .primes import is_prime, random_prime

__all__ = [
    "EXACT_DIM_LIMIT",
    "KERNEL_BACKEND",
    "ExactMatrix",
    "RankResult",
    "WeightBlocks",
    "blocked_kernel_basis",
    "blocked_rank_details",
    "default_rng",
    "dump_matrix",
    "independent_columns",
    "is_prime",
    "kernel_basis",
    "load_matrix",
    "memory_budget_mb",
    "random_prime",
    "rank",
    "rank_details",
]
