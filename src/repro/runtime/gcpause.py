"""One way to pause the cyclic garbage collector.

Batch stages build object graphs of hundreds of thousands of small,
long-lived records (delegation rows, intervals, lifetimes).  Every
allocation burst triggers generational collections that traverse those
records and find next to nothing to free: a paused bench-scale build
leaves a few hundred unreachable objects behind.  :func:`gc_paused`
suspends the collector for such a stage and restores whatever state it
found, so pauses nest and an exception never leaves the collector off.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block, then restore its state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
