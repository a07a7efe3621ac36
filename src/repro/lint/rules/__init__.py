"""Rule families for :mod:`repro.lint`.

Importing this package registers every rule with the registry; the
engine triggers the import lazily via
:func:`repro.lint.registry.all_rules`.
"""

from repro.lint.rules import (crash_safety, determinism, env_hygiene,
                              footprints, locks, observer_transitive,
                              static_footprints)

__all__ = ["crash_safety", "determinism", "env_hygiene", "footprints",
           "locks", "observer_transitive", "static_footprints"]
