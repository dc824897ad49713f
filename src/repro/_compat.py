"""Interpreter-version compatibility helpers.

The package supports Python 3.9+ (see ``pyproject.toml``); features
adopted from newer interpreters are gated here so call sites stay
clean.
"""

from __future__ import annotations

import sys

#: Extra ``dataclass`` keyword arguments enabling ``__slots__`` where
#: the interpreter supports it (3.10+).  Applied to hot per-tick
#: dataclasses (trace samples, counter snapshots/deltas): slots drop
#: the per-instance ``__dict__``, roughly halving the memory of a
#: long power trace (measured in ``benchmarks/bench_sim_speed.py``).
#: On 3.9 the classes silently fall back to dict-based instances.
DATACLASS_SLOTS: "dict[str, bool]" = (
    {"slots": True} if sys.version_info >= (3, 10) else {})
