"""Bundled MapReduce applications."""

from .grep import MatchCount
from .invindex import InvertedIndex
from .wordcount import WordCount

__all__ = [
    "WordCount",
    "MatchCount",
    "InvertedIndex",
]
