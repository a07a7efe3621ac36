"""Declarative campaign specs: a grid of sweep cells with stable IDs.

A :class:`CampaignSpec` names one experiment runner (see
:mod:`repro.campaign.runners`) and the axes of a sweep grid — graphs,
variants, a thread (or fault-intensity) axis, machine configuration and
seeds.  :meth:`CampaignSpec.expand` turns the grid into a deterministic
list of :class:`CellSpec` objects; each cell canonicalises to JSON
(sorted keys, compact) and hashes to a stable :meth:`~CellSpec.cell_id`,
which is also the basis of the content-addressed result store key
(:mod:`repro.campaign.store`).

Specs round-trip through plain dicts / JSON files so campaigns can live
in version control next to the figures they regenerate (see
``benchmarks/campaign_ci.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import canonical_json, sha256_hex

__all__ = ["CellSpec", "CampaignSpec", "AXES"]

#: Meanings the third grid coordinate can take.  ``threads`` is the
#: normal thread sweep; ``intensity`` reuses the axis for the fault
#: experiments' percent scale (mirroring how ``run_panel`` sweeps fault
#: intensity on its thread axis).
AXES = ("threads", "intensity")

_SPEC_KEYS = {"name", "experiment", "graphs", "variants", "threads",
              "axis", "machine", "seeds", "params"}


@dataclass(frozen=True)
class CellSpec:
    """One cell of a campaign grid — the unit of execution and caching.

    ``params`` is stored as a sorted tuple of items so cells stay
    hashable; :meth:`to_dict` renders it back to a dict.
    """

    experiment: str
    graph: str
    variant: str
    threads: int
    axis: str = "threads"
    machine: str = "KNF"
    seed: int = 0
    params: tuple = ()

    def to_dict(self) -> dict:
        """Canonical dict form (the content that is hashed)."""
        return {
            "experiment": self.experiment, "graph": self.graph,
            "variant": self.variant, "threads": self.threads,
            "axis": self.axis, "machine": self.machine, "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellSpec":
        """Inverse of :meth:`to_dict`."""
        params = data.get("params", {})
        return cls(experiment=data["experiment"], graph=data["graph"],
                   variant=data["variant"], threads=int(data["threads"]),
                   axis=data.get("axis", "threads"),
                   machine=data.get("machine", "KNF"),
                   seed=int(data.get("seed", 0)),
                   params=tuple(sorted(params.items())))

    @property
    def cell_id(self) -> str:
        """Deterministic short ID (SHA-256 of the canonical spec)."""
        return sha256_hex(canonical_json(self.to_dict()))[:16]

    def label(self) -> str:
        """Human-readable ``graph/variant@threads`` coordinate."""
        unit = "%" if self.axis == "intensity" else "t"
        return f"{self.graph}/{self.variant}@{self.threads}{unit}"


@dataclass
class CampaignSpec:
    """A declarative grid of cells (JSON-serialisable).

    ``threads`` is the sweep axis; with ``axis="intensity"`` its values
    are fault intensities in percent instead of thread counts (the fault
    runners take intensity where the others take threads).
    """

    name: str
    experiment: str
    graphs: list = field(default_factory=list)
    variants: list = field(default_factory=list)
    threads: list = field(default_factory=list)
    axis: str = "threads"
    machine: str = "KNF"
    seeds: list = field(default_factory=lambda: [0])
    params: dict = field(default_factory=dict)

    # ----- construction ----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Build and validate a spec from its dict/JSON form."""
        if not isinstance(data, dict):
            raise ValueError(f"campaign spec must be a JSON object, "
                             f"got {type(data).__name__}")
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise ValueError(f"campaign spec has unknown keys {unknown} "
                             f"(known: {sorted(_SPEC_KEYS)})")
        for required in ("name", "experiment"):
            if not data.get(required):
                raise ValueError(f"campaign spec needs a non-empty "
                                 f"{required!r}")
        spec = cls(name=str(data["name"]), experiment=str(data["experiment"]),
                   graphs=list(data.get("graphs", [])),
                   variants=list(data.get("variants", [])),
                   threads=list(data.get("threads", [])),
                   axis=data.get("axis", "threads"),
                   machine=data.get("machine", "KNF"),
                   seeds=list(data.get("seeds", [0])),
                   params=dict(data.get("params", {})))
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        """Load a spec from a JSON file (clear error on bad JSON)."""
        import json
        import os
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (round-trips)."""
        return {"name": self.name, "experiment": self.experiment,
                "graphs": list(self.graphs), "variants": list(self.variants),
                "threads": list(self.threads), "axis": self.axis,
                "machine": self.machine, "seeds": list(self.seeds),
                "params": dict(self.params)}

    # ----- validation ------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ValueError` on any inconsistency.

        Reuses the harness' validated thread parsing so a bad thread
        count in a spec file fails with the same message as a bad
        ``REPRO_THREADS`` entry, and checks graphs against the suite,
        variants against the runner registry, the machine against
        :data:`~repro.machine.config.MACHINES` and thread counts against
        that machine's hardware contexts.
        """
        from repro.campaign.runners import known_variants, runner_names
        from repro.experiments.harness import parse_thread_counts
        from repro.graph.suite import SUITE
        from repro.machine.config import MACHINES

        if self.experiment not in runner_names():
            raise ValueError(
                f"campaign {self.name!r}: unknown experiment "
                f"{self.experiment!r} (known: {sorted(runner_names())})")
        if self.axis not in AXES:
            raise ValueError(f"campaign {self.name!r}: axis must be one of "
                             f"{AXES}, got {self.axis!r}")
        unknown = [g for g in self.graphs if g not in SUITE]
        if unknown:
            raise ValueError(f"campaign {self.name!r}: unknown graphs "
                             f"{unknown} (suite: {list(SUITE)})")
        if not self.graphs:
            raise ValueError(f"campaign {self.name!r}: no graphs")
        if not self.variants:
            raise ValueError(f"campaign {self.name!r}: no variants")
        known = known_variants(self.experiment)
        if known is not None:
            bad = [v for v in self.variants if v not in known]
            if bad:
                raise ValueError(
                    f"campaign {self.name!r}: unknown variants {bad} for "
                    f"experiment {self.experiment!r} (known: {sorted(known)})")
        if self.machine not in MACHINES:
            raise ValueError(f"campaign {self.name!r}: machine must be one "
                             f"of {sorted(MACHINES)}, got {self.machine!r}")
        if self.axis == "intensity":
            bad = [t for t in self.threads
                   if not isinstance(t, int) or not 0 <= t <= 100]
            if bad or not self.threads:
                raise ValueError(
                    f"campaign {self.name!r}: intensity axis values must be "
                    f"integers in 0..100, got {self.threads}")
        else:
            counts = parse_thread_counts(
                self.threads, source=f"campaign {self.name!r} threads")
            try:
                MACHINES[self.machine].check_threads(counts[-1])
            except ValueError as e:
                raise ValueError(f"campaign {self.name!r}: {e}") from None
        if not self.seeds:
            raise ValueError(f"campaign {self.name!r}: no seeds")
        for s in self.seeds:
            if not isinstance(s, int) or s < 0:
                raise ValueError(f"campaign {self.name!r}: seeds must be "
                                 f"non-negative integers, got {self.seeds}")

    # ----- expansion -------------------------------------------------------

    def expand(self) -> list:
        """The grid's cells, in deterministic spec order.

        Order is graphs (outer) × variants × axis values × seeds (inner)
        — stable for a given spec, so progress counts and ``--jobs N``
        submission order line up across runs.
        """
        params = tuple(sorted(self.params.items()))
        return [CellSpec(experiment=self.experiment, graph=g, variant=v,
                         threads=t, axis=self.axis, machine=self.machine,
                         seed=s, params=params)
                for g in self.graphs for v in self.variants
                for t in self.threads for s in self.seeds]
