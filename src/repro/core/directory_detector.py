"""HARD over a directory-based protocol (Section 3.4, second half).

Same lockset algorithm, Lock/Counter registers and barrier handling as
:class:`~repro.core.detector.HardDetector`, but candidate sets and LStates
live in the coherence *directory* rather than in the cache lines:

* no metadata is ever lost to L2 displacement — detection coverage matches
  the ideal lockset at the configured (line) granularity;
* every monitored access pays a directory round-trip, charged to the cycle
  ledger (the design's performance cost relative to the snoopy version).

The data path still runs through the normal :class:`Machine` so baseline
timing stays comparable.
"""

from __future__ import annotations

from repro.common.addresses import chunk_index_in_line, line_address, spanned_chunks
from repro.common.config import HardConfig, MachineConfig
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.core.bloom import BloomMapper
from repro.core.candidate import LineMeta
from repro.core.detector import LOCK_WORD_BYTES, HardCosts
from repro.core.lockregister import LockRegister
from repro.core.lstate import transition
from repro.obs.trace import emit_alarm
from repro.reporting import DetectionResult, RaceReportLog
from repro.sim.directory import Directory
from repro.sim.machine import Machine


class DirectoryHardDetector:
    """Lockset detection with directory-resident candidate sets."""

    def __init__(
        self,
        machine_config: MachineConfig | None = None,
        config: HardConfig | None = None,
        costs: HardCosts | None = None,
        directory_access_cycles: int = 6,
        name: str = "HARD-directory",
    ):
        self.machine_config = machine_config or MachineConfig()
        self.config = config or HardConfig()
        self.costs = costs or HardCosts()
        self.directory_access_cycles = directory_access_cycles
        self.name = name

    def core(self) -> "DirectoryHardCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return DirectoryHardCore(self)


class DirectoryHardCore:
    """Mutable state of one directory-HARD pass over one trace."""

    def __init__(self, detector: DirectoryHardDetector):
        self.d = detector
        self.name = detector.name
        self.machine_config = detector.machine_config

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state and this pass's own machine."""
        detector = self.d
        self.obs = obs
        self._observe = obs is not None and obs.active
        self._tracing = obs is not None and obs.emitter.enabled
        self.machine = Machine(detector.machine_config, obs=obs)
        self.mapper = BloomMapper(detector.config.bloom)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        self.extra_cycles = 0
        self._line_size = detector.machine_config.line_size
        config = detector.config
        line_size = self._line_size
        self.directory: Directory[LineMeta] = Directory(
            fresh=lambda line: LineMeta.fresh(config, line_size),
            access_cycles=detector.directory_access_cycles,
        )
        self._registers: dict[int, LockRegister] = {}
        self._arrivals: dict[int, int] = {}

    def _register_for(self, thread_id: int) -> LockRegister:
        reg = self._registers.get(thread_id)
        if reg is None:
            reg = LockRegister(self.d.config, self.mapper)
            self._registers[thread_id] = reg
        return reg

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        machine = self.machine
        costs = self.d.costs
        core = machine.core_for_thread(thread_id)
        if op.kind is OpKind.COMPUTE:
            machine.charge(op.cycles, "compute")
        elif op.kind is OpKind.LOCK:
            machine.access(core, op.addr, LOCK_WORD_BYTES, True)
            self._register_for(thread_id).acquire(op.addr)
            machine.charge(costs.lock_register_update, "hard.lockreg")
            self.extra_cycles += costs.lock_register_update
        elif op.kind is OpKind.UNLOCK:
            machine.access(core, op.addr, LOCK_WORD_BYTES, True)
            self._register_for(thread_id).release(op.addr)
            machine.charge(costs.lock_register_update, "hard.lockreg")
            self.extra_cycles += costs.lock_register_update
        elif op.kind is OpKind.BARRIER:
            count = self._arrivals.get(op.addr, 0) + 1
            if count < op.participants:
                self._arrivals[op.addr] = count
                return
            self._arrivals[op.addr] = 0
            if self.d.config.barrier_reset:
                full = self.mapper.full_mask
                touched = self.directory.reset_all(
                    lambda meta: meta.reset_for_barrier(full)
                )
                machine.charge(costs.barrier_reset_flash, "hard.barrier_reset")
                self.extra_cycles += costs.barrier_reset_flash
                if self._tracing:
                    self.obs.emitter.emit(
                        "barrier.reset", barrier=op.addr, copies=touched
                    )
        else:
            self._memory_access(event, core)

    def _memory_access(self, event, core: int) -> None:
        op = event.op
        thread_id = event.thread_id
        machine = self.machine
        config = self.d.config
        costs = self.d.costs
        directory = self.directory
        line_size = self._line_size
        observe = self._observe
        tracing = self._tracing
        machine.access(core, op.addr, op.size, op.is_write)
        lock_vector = self._register_for(thread_id).value
        seen_lines: set[int] = set()
        for chunk_addr in spanned_chunks(op.addr, op.size, config.granularity):
            line_addr = line_address(chunk_addr, line_size)
            meta = directory.fetch(line_addr)
            if line_addr not in seen_lines:
                seen_lines.add(line_addr)
                machine.charge(directory.access_cycles, "hard.directory")
                self.extra_cycles += directory.access_cycles
            chunk = meta.chunks[
                chunk_index_in_line(chunk_addr, config.granularity, line_size)
            ]
            outcome = transition(chunk.lstate, chunk.owner, thread_id, op.is_write)
            chunk.lstate = outcome.state
            chunk.owner = outcome.owner
            if outcome.update_candidate:
                before_bf = chunk.bf
                chunk.bf &= lock_vector
                self.stats.add("hard.candidate_updates")
                machine.charge(costs.candidate_check, "hard.check")
                self.extra_cycles += costs.candidate_check
                if observe and chunk.bf != before_bf:
                    self.obs.metrics.add("obs.lockset_refinements")
                    self.obs.metrics.observe(
                        "hard.candidate_popcount", chunk.bf.bit_count()
                    )
                    if tracing:
                        self.obs.emitter.emit(
                            "lockset.refine",
                            seq=event.seq,
                            thread=thread_id,
                            chunk=chunk_addr,
                            before=before_bf,
                            after=chunk.bf,
                        )
                if outcome.check_race and self.mapper.is_empty(chunk.bf):
                    report = self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=op.is_write,
                        detail=f"candidate set empty (dir 0x{chunk_addr:x})",
                    )
                    if observe:
                        self.obs.metrics.add("obs.alarms")
                        if tracing:
                            emit_alarm(self.obs.emitter, report)
            directory.put_back(line_addr, meta)

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        self.stats.merge(self.machine.stats)
        self.stats.merge(self.machine.bus.stats)
        self.stats.merge(self.directory.stats)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=self.stats,
            cycles=self.machine.cycles,
            detector_extra_cycles=self.extra_cycles,
        )
