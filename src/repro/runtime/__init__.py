"""Executable MapReduce runtime: API, splitter, local engine, and apps.

This is the half of the reproduction that really computes: the paper's
word-count proof of concept (and other canonical MapReduce apps) run on
real bytes through the same map -> hash-mod-partition -> reduce pipeline
the simulator models.
"""

from .api import FnApp, MapReduceApp, default_partition
from .engine import JobReport, LocalRunner, TaskReport
from .splitter import iter_records, split_text

__all__ = [
    "MapReduceApp",
    "FnApp",
    "default_partition",
    "LocalRunner",
    "JobReport",
    "TaskReport",
    "split_text",
    "iter_records",
]
