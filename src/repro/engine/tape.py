"""Machine replay tapes: the data-path of one trace, recorded once.

Every machine-backed detector core drives the simulated CMP through the
same *canonical* access sequence (see
:class:`repro.reporting.DetectorCore`), so for a given
(:class:`~repro.common.coltrace.ColumnarTrace`,
:class:`~repro.common.config.MachineConfig`) pair the cache/coherence
behaviour — fills and their sources, writebacks, evictions, invalidations,
L2 displacements, per-access piggyback opportunities, post-access sharer
flags, total data-path cycles and counters — is a pure function of the
trace.  :class:`MachineTape` records that behaviour once, by replaying the
trace through a real :class:`~repro.sim.machine.Machine` with a recording
listener attached, into flat packed arrays the vectorized batch kernels
(``DetectorCore.step_batch``) consume without touching the simulator again.

One tape serves every batch core with that machine configuration in a
walk, and it is memoised across walks: a second
:class:`~repro.engine.EngineSession` over the same trace (a benchmark
round, a fuzz-oracle ablation, an experiment-runner memo hit) replays
nothing at all.  This is the paper's identical-execution methodology
(Section 5.1) made literal: every configuration is judged on one recorded
data path.

Tape layout (all dense, ``n`` = number of trace events):

* ``hook_off['q', n+1]`` — per-event spans into the hook stream;
* ``hook_code['B']``/``hook_line['q']``/``hook_core['i']``/``hook_aux['i']``
  — one record per coherence-listener callback, in callback order.
  ``hook_aux`` carries the supplying core for cache-to-cache fills and the
  dirty flag for L1 evictions;
* ``pig['B', n]`` — per-event metadata-piggyback opportunity count
  (memory events only: one per non-memory fill + one per dirty L1 victim,
  exactly the transfers HARD's metadata rides — Section 3.4);
* ``sharer_off['q', n+1]`` / ``sharer_line['q']`` / ``sharer_flag['B']``
  — for each line a memory event touched, whether any *other* core still
  held it once the access completed (the broadcast predicate of Figure 6);
* ``machine_cycles`` / ``machine_stats`` / ``bus_stats`` — the shared
  data-path totals a kernel merges under its private detector charges.
"""

from __future__ import annotations

from array import array

from repro.common.coltrace import (
    KIND_BARRIER,
    KIND_COMPUTE,
    ColumnarTrace,
    pack_sections,
    unpack_sections,
)
from repro.common.config import MachineConfig
from repro.common.errors import ProgramError
from repro.sim.coherence import FillSource, MachineListener, SourceKind
from repro.sim.machine import Machine

#: On-disk tape format magic + version (bump on any layout change).
_TAPE_MAGIC = b"RPRTAPE1"
TAPE_FORMAT_VERSION = 1

#: (attribute, array typecode) of every packed tape array, in
#: serialisation order.
_TAPE_ARRAYS = (
    ("hook_off", "q"),
    ("hook_code", "B"),
    ("hook_line", "q"),
    ("hook_core", "i"),
    ("hook_aux", "i"),
    ("pig", "B"),
    ("sharer_off", "q"),
    ("sharer_line", "q"),
    ("sharer_flag", "B"),
)


def machine_signature(machine_config: MachineConfig) -> str:
    """A stable string identifying one machine configuration.

    ``MachineConfig`` is a frozen dataclass of primitives, so its ``repr``
    is deterministic and covers every field — exactly what the tape cache
    needs to key entries by configuration.
    """
    return repr(machine_config)

#: Size in bytes of a lock word (mirrors repro.core.detector.LOCK_WORD_BYTES;
#: redefined here to keep the tape importable without the detector stack).
_LOCK_WORD_BYTES = 4

#: Hook stream opcodes.
HOOK_FILL_MEM = 0
HOOK_FILL_L2 = 1
HOOK_FILL_CORE = 2
HOOK_WRITEBACK = 3
HOOK_L1_EVICT = 4
HOOK_INVALIDATE = 5
HOOK_L2_EVICT = 6


class _Recorder(MachineListener):
    """Appends every coherence callback to the flat hook arrays."""

    __slots__ = ("code", "line", "core", "aux")

    def __init__(self):
        self.code = array("B")
        self.line = array("q")
        self.core = array("i")
        self.aux = array("i")

    def _append(self, code: int, line_addr: int, core: int, aux: int) -> None:
        self.code.append(code)
        self.line.append(line_addr)
        self.core.append(core)
        self.aux.append(aux)

    def on_fill(self, core: int, line_addr: int, source: FillSource) -> None:
        kind = source.kind
        if kind is SourceKind.MEMORY:
            self._append(HOOK_FILL_MEM, line_addr, core, 0)
        elif kind is SourceKind.L2:
            self._append(HOOK_FILL_L2, line_addr, core, 0)
        else:
            self._append(HOOK_FILL_CORE, line_addr, core, source.core)

    def on_writeback(self, core: int, line_addr: int) -> None:
        self._append(HOOK_WRITEBACK, line_addr, core, 0)

    def on_l1_evict(self, core: int, line_addr: int, dirty: bool) -> None:
        self._append(HOOK_L1_EVICT, line_addr, core, 1 if dirty else 0)

    def on_invalidate(self, core: int, line_addr: int) -> None:
        self._append(HOOK_INVALIDATE, line_addr, core, 0)

    def on_l2_evict(self, line_addr: int) -> None:
        self._append(HOOK_L2_EVICT, line_addr, -1, 0)


class MachineTape:
    """The recorded data-path of one columnar trace on one machine config."""

    __slots__ = (
        "machine_config",
        "hook_off",
        "hook_code",
        "hook_line",
        "hook_core",
        "hook_aux",
        "pig",
        "sharer_off",
        "sharer_line",
        "sharer_flag",
        "machine_cycles",
        "machine_stats",
        "bus_stats",
        "_buffer",
        "__weakref__",
    )

    def __init__(self, cols: ColumnarTrace, machine_config: MachineConfig):
        self.machine_config = machine_config
        self._buffer = None
        n = cols.n
        machine = Machine(machine_config)
        recorder = _Recorder()
        machine.add_listener(recorder)

        hook_off = array("q", bytes(8 * (n + 1)))
        pig = array("B", bytes(n))
        sharer_off = array("q", bytes(8 * (n + 1)))
        sharer_line = array("q")
        sharer_flag = array("B")

        access = machine.access
        charge = machine.charge
        has_other_sharers = machine.has_other_sharers
        core_for_thread = machine.core_for_thread
        memory_source = SourceKind.MEMORY
        n_sharers = 0

        kinds = cols.kind
        tids = cols.tid
        addrs = cols.addr
        sizes = cols.size
        cycles_col = cols.cycles
        for i in range(n):
            hook_off[i] = len(recorder.code)
            sharer_off[i] = n_sharers
            kind = kinds[i]
            if kind <= 1:  # READ / WRITE
                core = core_for_thread(tids[i])
                result = access(core, addrs[i], sizes[i], kind == 1)
                count = 0
                for line_result in result.lines:
                    source = line_result.fill_source
                    if source is not None and source.kind is not memory_source:
                        count += 1
                    victim = line_result.l1_victim
                    if victim is not None and victim.dirty:
                        count += 1
                pig[i] = count
                for line_result in result.lines:
                    line_addr = line_result.line_addr
                    sharer_line.append(line_addr)
                    sharer_flag.append(
                        1 if has_other_sharers(line_addr, excluding=core) else 0
                    )
                    n_sharers += 1
            elif kind == KIND_COMPUTE:
                charge(cycles_col[i], "compute")
            elif kind != KIND_BARRIER:  # LOCK / UNLOCK
                access(core_for_thread(tids[i]), addrs[i], _LOCK_WORD_BYTES, True)
        hook_off[n] = len(recorder.code)
        sharer_off[n] = n_sharers

        machine.remove_listener(recorder)
        self.hook_off = hook_off
        self.hook_code = recorder.code
        self.hook_line = recorder.line
        self.hook_core = recorder.core
        self.hook_aux = recorder.aux
        self.pig = pig
        self.sharer_off = sharer_off
        self.sharer_line = sharer_line
        self.sharer_flag = sharer_flag
        self.machine_cycles = machine.cycles
        self.machine_stats = machine.stats.snapshot()
        self.bus_stats = machine.bus.stats.snapshot()

    @classmethod
    def for_columns(
        cls, cols: ColumnarTrace, machine_config: MachineConfig, cache=None
    ) -> "MachineTape":
        """The tape for ``(cols, machine_config)``, memoised on ``cols``.

        With a :class:`~repro.harness.tracecache.TapeCache`, a memo miss
        first tries the on-disk cache (mmap-loaded, zero decode cost) and a
        fresh recording is persisted for every later process and session —
        so each (trace, machine config) pair is simulated once *ever*.
        """
        tape = cols._tapes.get(machine_config)
        if tape is None:
            if cache is not None:
                tape = cache.load(cols, machine_config)
            if tape is None:
                tape = cls(cols, machine_config)
                if cache is not None:
                    cache.store(cols, tape)
            cols._tapes[machine_config] = tape
        return tape

    @classmethod
    def empty(cls, n: int, machine_config: MachineConfig | None = None) -> "MachineTape":
        """An all-zeros tape over ``n`` events (no hooks, no totals).

        The sharded path's stand-in where no real data-path applies: shard
        kernels replay only the hooks a shard owns, and the parent adds the
        real tape's shared totals exactly once at merge time.
        """
        self = cls.__new__(cls)
        self.machine_config = machine_config
        self._buffer = None
        self.hook_off = array("q", bytes(8 * (n + 1)))
        self.hook_code = array("B")
        self.hook_line = array("q")
        self.hook_core = array("i")
        self.hook_aux = array("i")
        self.pig = array("B", bytes(n))
        self.sharer_off = array("q", bytes(8 * (n + 1)))
        self.sharer_line = array("q")
        self.sharer_flag = array("B")
        self.machine_cycles = 0
        self.machine_stats = {}
        self.bus_stats = {}
        return self

    # ---------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        """Serialise to the versioned zero-copy binary form.

        Same shape as the columnar trace format: magic + JSON header +
        8-byte-aligned packed arrays, so :meth:`from_bytes` can cast the
        arrays straight out of an ``mmap`` without decoding.
        """
        header = {
            "version": TAPE_FORMAT_VERSION,
            "machine_cycles": self.machine_cycles,
            "machine_stats": dict(self.machine_stats),
            "bus_stats": dict(self.bus_stats),
        }
        return pack_sections(_TAPE_MAGIC, header, "arrays", _TAPE_ARRAYS, self)

    @classmethod
    def from_bytes(
        cls, buf, machine_config: MachineConfig | None = None
    ) -> "MachineTape":
        """Deserialise from :meth:`to_bytes` output.

        ``buf`` may be ``bytes`` or an ``mmap.mmap``; arrays become
        zero-copy ``memoryview`` casts into it either way.
        """
        header, arrays = unpack_sections(
            buf, _TAPE_MAGIC, TAPE_FORMAT_VERSION, "arrays", _TAPE_ARRAYS,
            "machine tape",
        )
        events = len(arrays["pig"])
        hooks = arrays["hook_off"]
        sharers = arrays["sharer_off"]
        if len(hooks) != events + 1 or len(sharers) != events + 1:
            raise ProgramError(
                f"machine tape offsets disagree with its {events} events"
            )
        for offsets, names in (
            (hooks, ("hook_code", "hook_line", "hook_core", "hook_aux")),
            (sharers, ("sharer_line", "sharer_flag")),
        ):
            for name in names:
                if len(arrays[name]) != offsets[-1]:
                    raise ProgramError(
                        f"machine tape array {name!r} holds "
                        f"{len(arrays[name])} records, its offsets end at "
                        f"{offsets[-1]}"
                    )
        self = cls.__new__(cls)
        self.machine_config = machine_config
        self._buffer = buf
        self.machine_cycles = header["machine_cycles"]
        self.machine_stats = header["machine_stats"]
        self.bus_stats = header["bus_stats"]
        for name, column in arrays.items():
            setattr(self, name, column)
        return self

    def close(self) -> None:
        """Release mmap-backed resources deterministically (idempotent)."""
        buf = self._buffer
        if buf is None:
            return
        for name, _ in _TAPE_ARRAYS:
            column = getattr(self, name, None)
            if isinstance(column, memoryview):
                column.release()
                setattr(self, name, ())
        self._buffer = None
        close_buf = getattr(buf, "close", None)
        if close_buf is not None:
            close_buf()
