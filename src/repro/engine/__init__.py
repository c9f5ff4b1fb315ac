"""``repro.engine`` — the single-pass multi-detector engine.

One session runs any number of incremental detector cores
(:class:`~repro.reporting.DetectorCore`) over one trace; batch cores share
one recorded data path per machine configuration
(:class:`~repro.engine.tape.MachineTape`).  See
``docs/architecture.md`` for where this sits in the layer stack.
"""

from repro.engine.session import EngineError, EngineSession, detect_with_engine
from repro.engine.shard import DEFAULT_SHARD_THRESHOLD, run_sharded
from repro.engine.tape import MachineTape

__all__ = [
    "DEFAULT_SHARD_THRESHOLD",
    "EngineError",
    "EngineSession",
    "detect_with_engine",
    "run_sharded",
    "MachineTape",
]
