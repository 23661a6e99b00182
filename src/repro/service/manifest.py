"""The campaign manifest: what a service job runs, split into shards.

A manifest is the unit of submission — a JSON document describing a
whole campaign as the cross product *seeds × CPU configs* under one
generator / scheduler / engine / model setting.  It expands into
deterministic **shards**, one per (seed, CPU) pair: the shard id is a
digest of the manifest digest plus the pair, so the same manifest
always yields the same shard ids on any host — which is what makes the
result store resumable and (later) multi-host shardable.  Within a
shard, each seeded bug of the CPU's roster is one *hunt*, executed by
the exact :func:`repro.analysis.campaign.hunt_bug` a one-shot campaign
uses; seed derivation is unchanged, so a service job's hunts are
hunt-for-hunt identical to ``run_campaign`` with the same settings.

Format (``version`` 1)::

    {
      "version": 1,
      "name": "nightly-tso",
      "seeds": [2004, 2005],
      "cpus": ["CPU1", "CPU2"],          # omit/empty = all six
      "tests_per_bug": 10,
      "sched": {"kind": "random", "pct_depth": 3, "sweep_budget": 256},
      "engine": "vc",
      "model": "TSO",
      "generator": null                  # null = campaign default
    }
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.campaign import CampaignConfig
from repro.analysis.replay import generator_from_meta
from repro.core.api import DEFAULT_ENGINE, ENGINES
from repro.core.policy import PSO, SC, TSO, MemoryModel
from repro.generator.config import GeneratorConfig
from repro.sched.spec import SchedSpec
from repro.sim.cpus import CPU_CONFIGS, CpuConfig, cpu_by_name

MANIFEST_VERSION = 1

_MODELS: Dict[str, MemoryModel] = {"TSO": TSO, "SC": SC, "PSO": PSO}

#: Scheduler kinds a campaign hunt can instantiate per attempt (a sweep
#: must be reused across runs to make progress, so it does not fit the
#: per-attempt hunt loop — same restriction as ``tsotool campaign``).
_HUNT_SCHEDS = ("random", "pct")


def _canonical(data: object) -> str:
    """Canonical JSON for digesting: sorted keys, no whitespace."""
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


@dataclass(frozen=True)
class Shard:
    """One deterministic unit of campaign work: a (seed, CPU) pair.

    ``shard_id`` is stable across hosts and restarts — it digests the
    manifest digest plus the pair, so a resumed or re-submitted job maps
    its persisted results back to exactly the same shards.
    """

    shard_id: str
    seed: int
    cpu: str
    #: Position in the manifest's shard expansion (seed-major order).
    index: int

    def hunt_count(self) -> int:
        """Number of seeded-bug hunts this shard contains."""
        return len(cpu_by_name(self.cpu).bugs)


@dataclass(frozen=True)
class CampaignManifest:
    """A validated campaign-service job description (see module doc)."""

    name: str
    seeds: Tuple[int, ...] = (2004,)
    cpus: Tuple[str, ...] = ()
    tests_per_bug: int = 10
    sched: SchedSpec = field(default_factory=SchedSpec)
    engine: str = DEFAULT_ENGINE
    model: str = "TSO"
    generator: Optional[GeneratorConfig] = None
    #: Hunts dispatched per pool task (see ``CampaignConfig.batch``).
    #: An execution-strategy knob: serialized with the manifest but
    #: excluded from its digest, so submissions at any batch size
    #: of the same campaign share one job id and one result store.
    batch: int = 1

    def __post_init__(self) -> None:
        if not self.name or not all(
            c.isalnum() or c in "-_." for c in self.name
        ):
            raise ValueError(
                f"manifest name {self.name!r} must be non-empty and use "
                "only letters, digits, '-', '_' and '.'"
            )
        if not self.seeds:
            raise ValueError("manifest needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("manifest seeds must be unique (duplicate "
                             "seeds would collide on shard ids)")
        for cpu in self.cpus:
            try:
                cpu_by_name(cpu)
            except KeyError as exc:
                raise ValueError(str(exc)) from exc
        if self.tests_per_bug < 1:
            raise ValueError("tests_per_bug must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.model not in _MODELS:
            raise ValueError(f"unknown memory model {self.model!r}")
        if self.sched.kind not in _HUNT_SCHEDS:
            raise ValueError(
                f"scheduler kind {self.sched.kind!r} does not fit "
                f"per-attempt hunts (allowed: {', '.join(_HUNT_SCHEDS)})"
            )
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    # -- identity ------------------------------------------------------

    def digest(self) -> str:
        """Content digest of the canonical JSON form (hex, full).

        The execution-strategy knob ``batch`` is stripped before
        digesting: it changes how hunts are dispatched, never which hunts
        run or what they record, so submissions differing only in it
        attach to the same job.
        """
        doc = self.to_dict()
        doc.pop("batch", None)
        return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()

    @property
    def job_id(self) -> str:
        """Stable job identity: ``<name>-<digest prefix>``.

        Submitting the same manifest twice yields the same job id, so a
        duplicate submission attaches to the existing job instead of
        re-spending its budget.
        """
        return f"{self.name}-{self.digest()[:12]}"

    # -- expansion -----------------------------------------------------

    def cpu_configs(self) -> List[CpuConfig]:
        """The resolved CPU rosters (empty ``cpus`` = all six)."""
        if not self.cpus:
            return list(CPU_CONFIGS)
        return [cpu_by_name(name) for name in self.cpus]

    def shards(self) -> List[Shard]:
        """Deterministic shard expansion, seed-major then CPU order."""
        return list(self._shards)

    @functools.cached_property
    def _shards(self) -> Tuple[Shard, ...]:
        """The expansion, computed once per manifest: a drain asks for
        it every round, and each expansion hashes every shard id."""
        digest = self.digest()
        out: List[Shard] = []
        for seed in self.seeds:
            for cpu in self.cpu_configs():
                payload = _canonical(
                    {"manifest": digest, "seed": seed, "cpu": cpu.name}
                )
                shard_id = hashlib.sha256(
                    payload.encode("utf-8")
                ).hexdigest()[:16]
                out.append(Shard(
                    shard_id=shard_id, seed=seed, cpu=cpu.name,
                    index=len(out),
                ))
        return tuple(out)

    def shard_map(self) -> Dict[str, Shard]:
        """The shard expansion keyed by shard id — the lookup the lease
        and status layers use to resolve a store's per-shard records
        back to their (seed, CPU) identity."""
        return {shard.shard_id: shard for shard in self.shards()}

    def hunt_count(self) -> int:
        """Total hunts across all shards."""
        per_seed = sum(len(c.bugs) for c in self.cpu_configs())
        return per_seed * len(self.seeds)

    def campaign_config(self, seed: int) -> CampaignConfig:
        """The :class:`CampaignConfig` one shard's hunts run under.

        Field-for-field what ``run_campaign`` would use for the same
        settings, which is what keeps service hunts bitwise identical to
        one-shot campaign hunts.
        """
        kwargs: Dict[str, object] = dict(
            tests_per_bug=self.tests_per_bug,
            model=_MODELS[self.model],
            seed=seed,
            sched=self.sched,
            engine=self.engine,
            batch=self.batch,
        )
        if self.generator is not None:
            kwargs["generator"] = self.generator
        return CampaignConfig(**kwargs)  # type: ignore[arg-type]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe v1 document (inverse: :meth:`from_dict`)."""
        return {
            "version": MANIFEST_VERSION,
            "name": self.name,
            "seeds": list(self.seeds),
            "cpus": list(self.cpus),
            "tests_per_bug": self.tests_per_bug,
            "sched": self.sched.to_dict(),
            "engine": self.engine,
            "model": self.model,
            "generator": (
                None if self.generator is None
                else dataclasses.asdict(self.generator)
            ),
            "batch": self.batch,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignManifest":
        """Parse a v1 document; raises ``ValueError`` on bad content.

        Keys this version no longer reads — ``pipeline``, written by
        older versions — are ignored; they were never part of the digest.
        """
        version = data.get("version", MANIFEST_VERSION)
        if version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        generator = data.get("generator")
        sched = data.get("sched") or {}
        return cls(
            name=str(data.get("name", "")),
            seeds=tuple(int(s) for s in data.get("seeds", ())),  # type: ignore[union-attr]
            cpus=tuple(str(c) for c in data.get("cpus", ())),  # type: ignore[union-attr]
            tests_per_bug=int(data.get("tests_per_bug", 10)),  # type: ignore[arg-type]
            sched=SchedSpec.from_dict(dict(sched)),  # type: ignore[arg-type]
            engine=str(data.get("engine", DEFAULT_ENGINE)),
            model=str(data.get("model", "TSO")),
            generator=(
                None if generator is None
                else generator_from_meta(dict(generator))  # type: ignore[arg-type]
            ),
            batch=int(data.get("batch", 1)),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        """Canonical JSON (digest-stable)."""
        return _canonical(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CampaignManifest":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "CampaignManifest":
        with open(path) as fh:
            return cls.from_json(fh.read())
