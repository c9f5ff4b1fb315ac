"""Named detector configurations used throughout the evaluation.

The paper compares four configurations (Table 2):

* ``hard-default`` — HARD on the Table 1 machine: 16-bit BFVector, 32 B
  (line) granularity, candidate sets cached only;
* ``hard-ideal`` — the ideal lockset: exact sets, 4 B granularity,
  unbounded storage;
* ``hb-default`` — happens-before with line-granularity timestamps kept in
  the cache;
* ``hb-ideal`` — happens-before at 4 B granularity with unbounded storage.

The library adds three more: ``hybrid`` (lockset+HB extension),
``hard-directory`` (the directory-based variant of Section 6) and
``software`` (the Eraser-style software lockset with its cost model) —
plus the post-HARD hybrid family: ``fasttrack`` (epoch-optimized exact
happens-before), ``acculock`` (epoch + one lockset per location) and
``multilock-hb`` (per-location reader/writer lockset sets).  The
conformance harness (:mod:`repro.hybrids.conformance`) pins their
lattice: fasttrack ≡ hb-ideal ⊆ acculock ⊆ multilock-hb ⊆ strict
lockset.

:class:`DetectorConfig` is the typed construction protocol: one frozen,
hashable, picklable dataclass captures a detector key plus every
sensitivity-study knob, and :func:`make_detector` /
:func:`config_signature` accept either the dataclass or the legacy
``key, **overrides`` form.  Every detector built here satisfies the
:class:`~repro.reporting.Detector` protocol: ``core()`` returns a fresh
:class:`~repro.reporting.DetectorCore`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.common.config import HappensBeforeConfig, HardConfig, MachineConfig
from repro.common.errors import HarnessError
from repro.core.detector import HardDetector
from repro.core.directory_detector import DirectoryHardDetector
from repro.core.hybrid import HybridDetector
from repro.hb.detector import HappensBeforeDetector
from repro.hb.fasttrack import FastTrackDetector
from repro.hb.ideal import IdealHappensBeforeDetector
from repro.hybrids.acculock import AccuLockDetector
from repro.hybrids.multilock import MultiLockHBDetector
from repro.lockset.exact import IdealLocksetDetector
from repro.lockset.software import SoftwareLocksetDetector
from repro.reporting import Detector

#: The four Table 2 configurations, in the paper's column order.
PAPER_DETECTORS = ("hard-default", "hard-ideal", "hb-default", "hb-ideal")

#: The post-HARD hybrid family plus its exact-HB baseline (PR 8).
HYBRID_DETECTORS = ("fasttrack", "acculock", "multilock-hb")

#: Every key :func:`make_detector` accepts.
DETECTOR_KEYS = (
    *PAPER_DETECTORS,
    "hybrid",
    "hard-directory",
    "software",
    *HYBRID_DETECTORS,
)


@dataclass(frozen=True)
class DetectorConfig:
    """One detector configuration: a key plus the sensitivity-study knobs.

    Frozen (hashable, picklable) so a configuration can key caches and
    cross process boundaries unchanged — the parallel grid engine ships
    these to worker processes.  ``None`` means "the key's default", which
    keeps cache signatures identical between an explicit default and no
    override at all.
    """

    key: str = "hard-default"
    granularity: int | None = None
    l2_size: int | None = None
    vector_bits: int | None = None
    barrier_reset: bool = True
    broadcast_updates: bool = True
    use_counter_register: bool = True
    num_cores: int | None = None
    coherence: str | None = None

    def overrides(self) -> dict[str, object]:
        """The non-default knobs as ``make_detector`` keyword arguments."""
        out: dict[str, object] = {}
        for spec in fields(self):
            if spec.name == "key":
                continue
            value = getattr(self, spec.name)
            if value != spec.default:
                out[spec.name] = value
        return out

    def with_overrides(self, **overrides: object) -> "DetectorConfig":
        """A copy with the given knobs replaced."""
        return replace(self, **overrides)

    @classmethod
    def coerce(cls, config: "DetectorConfig | str", **overrides: object) -> "DetectorConfig":
        """Normalise either calling convention into one dataclass.

        Accepts a ready :class:`DetectorConfig` (no overrides allowed — the
        dataclass already carries every knob) or a key string with the
        legacy loose keyword overrides.
        """
        if isinstance(config, cls):
            if overrides:
                raise HarnessError(
                    "pass knobs inside DetectorConfig, not as extra overrides"
                )
            return config
        kwargs = {k: v for k, v in overrides.items() if v is not None}
        return cls(key=config, **kwargs)


def _machine_config(cfg: DetectorConfig) -> MachineConfig:
    """The simulated machine a cache-resident detector runs on.

    ``num_cores`` and ``coherence`` are the PR-10 scale-out axes: folding
    them here means every machine-backed detector (and therefore the tape
    recorder, whose cache key is the machine config's repr) sees them
    uniformly, and leaving them ``None`` reproduces the Table 1 platform
    byte for byte.
    """
    machine = MachineConfig()
    if cfg.num_cores is not None or cfg.coherence is not None:
        machine = machine.with_cores(
            cfg.num_cores if cfg.num_cores is not None else machine.num_cores,
            cfg.coherence,
        )
    if cfg.l2_size is not None:
        machine = machine.with_l2_size(cfg.l2_size)
    return machine


def make_detector(
    config: DetectorConfig | str = "hard-default", **overrides: object
) -> Detector:
    """Build a detector from a :class:`DetectorConfig` (or key + overrides).

    Knobs apply where meaningful: ``granularity`` to every detector,
    ``l2_size``, ``num_cores`` and ``coherence`` to the cache-resident
    (machine-backed) ones, ``vector_bits`` and the ablation switches to
    HARD only.
    """
    cfg = DetectorConfig.coerce(config, **overrides)
    key = cfg.key
    if key in ("hard-default", "hard-directory"):
        machine = _machine_config(cfg)
        hard = HardConfig(
            barrier_reset=cfg.barrier_reset,
            broadcast_updates=cfg.broadcast_updates,
            use_counter_register=cfg.use_counter_register,
        )
        if cfg.granularity is not None:
            hard = hard.with_granularity(cfg.granularity)
        if cfg.vector_bits is not None:
            hard = hard.with_vector_bits(cfg.vector_bits)
        if key == "hard-directory":
            return DirectoryHardDetector(machine, hard, name=key)
        return HardDetector(machine, hard, name=key)
    if key == "hard-ideal":
        return IdealLocksetDetector(
            granularity=cfg.granularity or 4,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    if key == "hb-default":
        machine = _machine_config(cfg)
        hb = HappensBeforeConfig()
        if cfg.granularity is not None:
            hb = hb.with_granularity(cfg.granularity)
        return HappensBeforeDetector(machine, hb, name=key)
    if key == "hb-ideal":
        return IdealHappensBeforeDetector(granularity=cfg.granularity or 4, name=key)
    if key == "hybrid":
        return HybridDetector(granularity=cfg.granularity or 4, name=key)
    if key == "fasttrack":
        return FastTrackDetector(granularity=cfg.granularity or 4, name=key)
    if key == "acculock":
        return AccuLockDetector(
            granularity=cfg.granularity or 4,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    if key == "multilock-hb":
        return MultiLockHBDetector(
            granularity=cfg.granularity or 4,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    if key == "software":
        machine = _machine_config(cfg)
        return SoftwareLocksetDetector(
            machine,
            granularity=cfg.granularity or 4,
            barrier_reset=cfg.barrier_reset,
            name=key,
        )
    raise HarnessError(
        f"unknown detector key {key!r}; expected one of {DETECTOR_KEYS}"
    )


#: Bumped whenever detector semantics or cost models change, so disk-cached
#: verdicts from older code self-invalidate.
MODEL_VERSION = 2


def config_signature(
    config: DetectorConfig | str, **overrides: object
) -> str:
    """A stable string identifying a detector configuration (cache key).

    Signatures are intentionally unchanged from the loose-kwargs era: a
    :class:`DetectorConfig` produces exactly the signature its equivalent
    ``key, **overrides`` call always did, so existing disk caches stay
    valid.
    """
    cfg = DetectorConfig.coerce(config, **overrides)
    parts = [cfg.key, f"v{MODEL_VERSION}"]
    knobs = cfg.overrides()
    for name in sorted(knobs):
        parts.append(f"{name}={knobs[name]}")
    return ";".join(parts)
