"""Prime tables: vectorized sieve, independent validation, disk cache.

The cache directory is taken from the ABELIAN_CENSUS_CACHE environment
variable (default: ~/.cache/abelian_census).  Cached tables carry a metadata
sidecar with a checksum and are re-validated on load; anything stale or
corrupt is rebuilt rather than trusted.

``segmented_prime_count`` is a deliberately separate implementation (pure
Python, odd-only segments) used to validate the numpy sieve.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheError

__all__ = [
    "sieve_primes",
    "segmented_prime_count",
    "PrimeTable",
    "load_prime_table",
    "validate_prime_table",
]

log = logging.getLogger("abelian_census.sieve")

_CACHE_ENV = "ABELIAN_CENSUS_CACHE"
_FORMAT_VERSION = 1


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def segmented_prime_count(limit: int, segment_size: int = 1 << 19) -> int:
    """pi(limit) via an odd-only segmented sieve (no numpy; validation path)."""
    if limit < 2:
        return 0
    if limit < 3:
        return 1
    root = 1
    while (root + 1) * (root + 1) <= limit:
        root += 1
    base = bytearray([1]) * (root + 1)
    base[0] = base[1] = 0
    for i in range(2, int(root**0.5) + 1):
        if base[i]:
            step_count = len(range(i * i, root + 1, i))
            base[i * i :: i] = bytes(step_count)
    odd_small = [p for p in range(3, root + 1) if base[p]]
    count = 1 + len(odd_small)  # the prime 2, plus odd primes <= root
    low = root + 1 + ((root + 1) % 2 == 0)  # first odd number above root
    while low <= limit:
        high = min(low + 2 * segment_size - 2, limit)
        if high % 2 == 0:
            high -= 1
        seg = bytearray([1]) * ((high - low) // 2 + 1)
        for p in odd_small:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start > high:
                continue
            step_count = len(range(start, high + 1, 2 * p))
            seg[(start - low) // 2 :: p] = bytes(step_count)
        count += sum(seg)
        low = high + 2
    return count


@dataclass(frozen=True)
class PrimeTable:
    """An ascending array of all primes up to ``limit``."""

    limit: int
    primes: np.ndarray

    def count(self) -> int:
        return int(self.primes.size)

    def up_to(self, bound: int) -> np.ndarray:
        if bound > self.limit:
            raise CacheError(
                f"prime table only covers limit {self.limit}, need {bound}"
            )
        cut = int(np.searchsorted(self.primes, bound, side="right"))
        return self.primes[:cut]

    def residues(self, modulus: int) -> np.ndarray:
        """Residue-class tag of every prime modulo ``modulus``."""
        if modulus < 1:
            raise CacheError("residue modulus must be positive")
        return self.primes % modulus


def _cache_dir(explicit: str | os.PathLike | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "abelian_census"


def _paths(directory: Path, limit: int) -> tuple[Path, Path]:
    stem = f"primes_{limit}"
    return directory / f"{stem}.npy", directory / f"{stem}.meta.json"


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(memoryview(np.ascontiguousarray(arr))).hexdigest()


def load_prime_table(
    limit: int,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
) -> PrimeTable:
    """Load (or build and cache) the prime table up to ``limit``.

    A cached table with a larger limit is sliced rather than resieved.
    Corrupt or mismatched cache entries are rebuilt.
    """
    if not use_cache:
        return PrimeTable(limit=limit, primes=sieve_primes(limit))
    directory = _cache_dir(cache_dir)
    candidates: list[int] = []
    if directory.is_dir():
        for meta_path in directory.glob("primes_*.meta.json"):
            try:
                cached_limit = int(meta_path.stem.split("_")[1].split(".")[0])
            except (IndexError, ValueError):
                continue
            if cached_limit >= limit:
                candidates.append(cached_limit)
    for cached_limit in sorted(candidates):
        table = _try_load(directory, cached_limit)
        if table is not None:
            if cached_limit == limit:
                return table
            return PrimeTable(limit=limit, primes=table.up_to(limit))
    primes = sieve_primes(limit)
    table = PrimeTable(limit=limit, primes=primes)
    try:
        _store(directory, table)
    except OSError as exc:  # cache is best-effort
        log.warning("could not write prime cache: %s", exc)
    return table


def _try_load(directory: Path, limit: int) -> PrimeTable | None:
    npy_path, meta_path = _paths(directory, limit)
    try:
        meta = json.loads(meta_path.read_text())
        primes = np.load(npy_path)
    except (OSError, ValueError, json.JSONDecodeError):
        return None
    if (
        meta.get("format") != _FORMAT_VERSION
        or meta.get("limit") != limit
        or meta.get("count") != int(primes.size)
        or meta.get("sha256") != _digest(primes)
    ):
        log.warning("prime cache for limit %d failed validation; rebuilding", limit)
        return None
    return PrimeTable(limit=limit, primes=primes.astype(np.int64, copy=False))


def _store(directory: Path, table: PrimeTable) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    npy_path, meta_path = _paths(directory, table.limit)
    np.save(npy_path, table.primes)
    meta = {
        "format": _FORMAT_VERSION,
        "limit": table.limit,
        "count": table.count(),
        "sha256": _digest(table.primes),
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))


def validate_prime_table(table: PrimeTable) -> int:
    """Check the table's count against the independent segmented sieve.

    Returns the count on success; raises CacheError on any mismatch.
    """
    expected = segmented_prime_count(table.limit)
    actual = table.count()
    if expected != actual:
        raise CacheError(
            f"prime table has {actual} primes up to {table.limit}; "
            f"segmented recount gives {expected}"
        )
    if actual and int(table.primes[0]) != 2:
        raise CacheError("prime table must start at 2")
    return actual
