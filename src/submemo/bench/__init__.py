"""Benchmark harness: data IO, synthetic instances, brute-force references and the CLI."""

from .brute import BRUTE_FORCE_CAP, brute_force_max, brute_force_min, brute_force_min_over
from .dataio import (
    load_dense_matrix,
    load_set_system,
    load_sparse_triplets,
    save_dense_matrix,
    save_set_system,
    save_sparse_triplets,
)
from .synthetic import SYNTHETIC_KINDS, gen_synthetic

__all__ = [
    "BRUTE_FORCE_CAP",
    "brute_force_max",
    "brute_force_min",
    "brute_force_min_over",
    "load_dense_matrix",
    "load_set_system",
    "load_sparse_triplets",
    "save_dense_matrix",
    "save_set_system",
    "save_sparse_triplets",
    "SYNTHETIC_KINDS",
    "gen_synthetic",
]
