"""Small shared helpers: seeded RNG construction, argument validation,
crash-safe file writes, canonical hashing, and the validated environment
parsers.

Every ``REPRO_*`` environment variable in the codebase is read through
one of the ``env_*`` parsers below (``env_float``, ``env_int``,
``env_bool``, ``env_str``, ``env_csv``).  This is enforced statically by
the ``env-raw-read`` rule of :mod:`repro.lint`: a raw ``os.environ``
read of a ``REPRO_*`` name anywhere else fails ``repro lint``.  The
parsers validate eagerly and raise :class:`ValueError` naming the
variable — a silently-ignored typo in an override would corrupt every
result derived from it — and give the lint pass a single choke point
from which to build the env-var registry behind ``ENV.md``.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from numpy.typing import NDArray

__all__ = ["rng_from_seed", "check_positive", "check_nonnegative",
           "as_int_array", "atomic_write_text", "fsync_parent_dir",
           "canonical_json", "sha256_hex", "content_checksum",
           "env_float", "env_int", "env_bool", "env_str", "env_csv"]


def canonical_json(obj: object) -> str:
    """Canonical JSON text for *obj*: sorted keys, compact separators.

    Two structurally equal dicts always render to the same bytes, which
    is what makes content-addressed keys (campaign result store,
    deterministic cell IDs) stable across processes and sessions.
    Non-finite floats are rejected — a NaN in a spec would silently
    produce a key nothing can ever look up again.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def sha256_hex(data: str | bytes) -> str:
    """Hex SHA-256 of *data* (text is hashed as its UTF-8 bytes).

    Accepting raw bytes matters for file-content hashing: decoding
    arbitrary source bytes as UTF-8 first would crash on any non-UTF-8
    file and change the digest of anything not byte-identical to its
    decoded-and-re-encoded form.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def content_checksum(obj: object) -> str:
    """Short (16-hex) SHA-256 over the canonical JSON of *obj*.

    The integrity checksum for persisted records: every store object
    embeds ``content_checksum(<record without its checksum field>)`` so a
    truncated or bit-flipped file is detected on read instead of
    silently feeding bad data into a report.
    """
    return sha256_hex(canonical_json(obj))[:16]


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    """Write *text* to *path* atomically and durably.

    Used for every persisted artifact (bench trajectories, profiles,
    metrics dumps, result-store objects) so a crash mid-write never
    leaves a corrupt file behind.  The order is: write and ``fsync`` a
    tmp file, ``os.replace`` it over *path*, then ``fsync`` the parent
    directory so the rename itself survives a power failure.  The tmp
    name carries the PID, so concurrent writers of one path never share
    a tmp file.  If any step fails, the tmp file is removed and the error
    re-raised; *path* keeps its previous contents.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_parent_dir(path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def fsync_parent_dir(path: str) -> None:
    """``fsync`` the directory holding *path*, so a rename that just
    published *path* survives a power failure (the step after every
    ``os.replace`` of the tmp→fsync→replace protocol)."""
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def rng_from_seed(
        seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (non-deterministic), an ``int``, or an existing
    ``Generator`` (returned unchanged so callers can thread RNG state).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _env_raw(name: str) -> str | None:
    """The stripped value of *name*; None when unset or blank.

    Unset, empty, and whitespace-only all mean "use the default" — a
    stray ``VAR=" "`` in a shell script must not differ from ``VAR=""``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    raw = raw.strip()
    return raw if raw else None


def env_float(name: str, default: float | None = None,
              lo: float | None = None,
              hi: float | None = None) -> float | None:
    """A float from environment variable *name*, range-validated.

    Returns *default* when the variable is unset or empty.  A value that
    does not parse as a float or falls outside ``[lo, hi]`` raises
    :class:`ValueError` naming the variable.
    """
    raw = _env_raw(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a float, got {raw!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")
    return value


def env_int(name: str, default: int | None = None, lo: int | None = None,
            hi: int | None = None) -> int | None:
    """An integer from environment variable *name*, range-validated.

    Returns *default* when the variable is unset or empty; rejects
    non-integer text and out-of-range values with a :class:`ValueError`
    naming the variable (``int()`` tracebacks are opaque).
    """
    raw = _env_raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")
    return value


#: Accepted spellings for :func:`env_bool`.  Anything else is rejected:
#: ``REPRO_FAST=fa1se`` silently meaning "on" (the old truthy-string
#: behaviour) is exactly the kind of typo the parsers exist to catch.
_TRUE_TOKENS = frozenset({"1", "true", "yes", "on"})
_FALSE_TOKENS = frozenset({"0", "false", "no", "off"})


def env_bool(name: str, default: bool = False) -> bool:
    """A boolean flag from environment variable *name*.

    Unset or empty returns *default*; ``1/true/yes/on`` (any case) is
    True, ``0/false/no/off`` is False, anything else raises
    :class:`ValueError` naming the variable.
    """
    raw = _env_raw(name)
    if raw is None:
        return default
    token = raw.lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ValueError(f"{name} must be a boolean "
                     f"(1/0/true/false/yes/no/on/off), got {raw!r}")


def env_str(name: str, default: str | None = None) -> str | None:
    """A string from environment variable *name*.

    Unset or empty returns *default* — callers that treat "set to the
    empty string" as "unset" (store roots, graph directories) get that
    normalisation in one place.
    """
    raw = _env_raw(name)
    if raw is None:
        return default
    return raw


def env_csv(name: str) -> list[str] | None:
    """Comma-separated env list → stripped tokens (None when unset/empty).

    The one shared parser behind ``REPRO_GRAPHS`` / ``REPRO_THREADS`` —
    blanks between commas are dropped.  Unset, empty, and whitespace-only
    values mean "unset" (None → caller default), but a value that spells
    out separators with no tokens (``" , ,"``) is an *explicit empty
    list* (``[]``) so callers can reject it loudly instead of silently
    sweeping their default.
    """
    env = _env_raw(name)
    if env is None:
        return None
    return [token.strip() for token in env.split(",") if token.strip()]


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ValueError` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise :class:`ValueError` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def as_int_array(values: object,
                 name: str = "values") -> NDArray[np.int64]:
    """Coerce *values* to a 1-D int64 array, validating shape."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr
