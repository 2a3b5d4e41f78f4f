"""Prime table construction, caching, and validation."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from abelian_census import sieve
from abelian_census.errors import CacheError

KNOWN_PI = {10: 4, 100: 25, 1_000: 168, 10_000: 1229, 100_000: 9592, 1_000_000: 78498}


def test_prime_counts_match_reference_table():
    for limit, want in KNOWN_PI.items():
        assert sieve.sieve_primes(limit).size == want


def test_prime_array_shape_and_order():
    pr = sieve.sieve_primes(10_000)
    assert pr.dtype == np.int64
    assert pr[0] == 2
    assert np.all(np.diff(pr) > 0)
    # spot-check primality of the tail against trial division
    for v in pr[-5:]:
        v = int(v)
        assert all(v % d for d in range(2, int(v**0.5) + 1))


def test_tiny_limits():
    assert sieve.sieve_primes(1).size == 0
    assert list(sieve.sieve_primes(2)) == [2]


def test_segmented_count_agrees_with_dense_sieve():
    for limit in (10, 97, 1_000, 10_000):
        assert sieve.segmented_prime_count(limit) == sieve.sieve_primes(limit).size
    # segment boundaries must not drop or double-count
    assert sieve.segmented_prime_count(10_000, segment_size=64) == 1229


def test_up_to_slices_and_guards():
    pt = sieve.PrimeTable(100, sieve.sieve_primes(100))
    assert list(pt.up_to(10)) == [2, 3, 5, 7]
    assert pt.up_to(100).size == 25
    with pytest.raises(CacheError):
        pt.up_to(101)


def test_residues_match_direct_mod():
    pt = sieve.PrimeTable(1_000, sieve.sieve_primes(1_000))
    for m in (1, 2, 4, 6, 12):
        assert np.array_equal(pt.residues(m), pt.primes % m)
    with pytest.raises(CacheError):
        pt.residues(0)


def test_validate_accepts_good_table_and_rejects_tampered():
    pt = sieve.PrimeTable(1_000, sieve.sieve_primes(1_000))
    assert sieve.validate_prime_table(pt) == 168
    broken = sieve.PrimeTable(1_000, pt.primes[:-1])
    with pytest.raises(CacheError):
        sieve.validate_prime_table(broken)


def test_cache_roundtrip(tmp_path):
    first = sieve.load_prime_table(1_000, cache_dir=tmp_path)
    assert (tmp_path / "primes_1000.npy").exists()
    assert (tmp_path / "primes_1000.meta.json").exists()
    again = sieve.load_prime_table(1_000, cache_dir=tmp_path)
    assert np.array_equal(first.primes, again.primes)


def test_cache_reuses_larger_table(tmp_path):
    sieve.load_prime_table(1_000, cache_dir=tmp_path)
    small = sieve.load_prime_table(100, cache_dir=tmp_path)
    assert small.limit == 100
    assert small.count() == 25
    # served by slicing, not by sieving and storing a second entry
    assert not (tmp_path / "primes_100.npy").exists()


def test_corrupt_cache_is_rebuilt(tmp_path):
    sieve.load_prime_table(1_000, cache_dir=tmp_path)
    npy = tmp_path / "primes_1000.npy"
    data = np.load(npy)
    data[10] = 999  # not prime; digest in the sidecar no longer matches
    np.save(npy, data)
    table = sieve.load_prime_table(1_000, cache_dir=tmp_path)
    assert table.count() == 168
    assert sieve.validate_prime_table(table) == 168


def test_mismatched_metadata_is_rejected(tmp_path):
    sieve.load_prime_table(1_000, cache_dir=tmp_path)
    meta_path = tmp_path / "primes_1000.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["count"] = 167
    meta_path.write_text(json.dumps(meta))
    table = sieve.load_prime_table(1_000, cache_dir=tmp_path)
    assert table.count() == 168


def test_no_cache_mode_leaves_directory_empty(tmp_path, monkeypatch):
    monkeypatch.setenv("ABELIAN_CENSUS_CACHE", str(tmp_path))
    table = sieve.load_prime_table(500, use_cache=False)
    assert table.count() == 95
    assert list(tmp_path.iterdir()) == []


def test_digest_of_a_strided_slice_hashes_its_bytes():
    arr = sieve.sieve_primes(1_000)[3:90:2]
    assert not arr.flags.c_contiguous
    assert sieve._digest(arr) == hashlib.sha256(arr.tobytes()).hexdigest()
