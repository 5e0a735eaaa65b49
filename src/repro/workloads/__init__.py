"""YCSB-style workload generation.

The paper's evaluation drives Quaestor with a YCSB-derived framework: an
operation mix is sampled from a discrete distribution, and the key (or query)
each operation touches is drawn from a Zipfian distribution over the keyspace.
This package reproduces that setup: request distributions, dataset generation
(tables, documents, query templates), and an operation-stream generator.
"""

from __future__ import annotations

from repro.workloads.distributions import ZipfianGenerator
from repro.workloads.dataset import Dataset, DatasetSpec, generate_dataset
from repro.workloads.operations import Operation, OperationType
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

__all__ = [
    "ZipfianGenerator",
    "Dataset",
    "DatasetSpec",
    "generate_dataset",
    "Operation",
    "OperationType",
    "WorkloadGenerator",
    "WorkloadSpec",
]
