"""Disk caches for the two expensive precomputations.

The cache directory comes from the DIRLAW_CACHE environment variable
and is created on first use; with the variable unset everything is
rebuilt in memory and nothing touches disk.

Formats (all little-endian):
  spf_<x>.bin          magic "SPF1", x as u64, then x u32 entries for
                       indices 0..x-1 (entries 0 and 1 are 0-sentinels);
                       the top entry spf[x] is recomputed on load.
  irr_q<q>_d<d>.bin    magic "IRR1", q and max_deg as u32, then per
                       degree a u64 count followed by that many u64
                       polynomial codes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .arith import SpfSieve, build_spf_sieve, smallest_prime_factor
from .errors import IntegrityError
from .polyfield import IrreducibleTable, build_irreducibles

_ENV = "DIRLAW_CACHE"
_SPF_MAGIC = b"SPF1"
_IRR_MAGIC = b"IRR1"


def cache_dir() -> Path | None:
    root = os.environ.get(_ENV)
    if not root:
        return None
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_spf(sieve: SpfSieve, path: Path):
    body = sieve.spf[: sieve.limit].astype("<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_SPF_MAGIC)
        fh.write(struct.pack("<Q", sieve.limit))
        fh.write(body)


def load_spf(path: Path) -> SpfSieve:
    raw = path.read_bytes()
    if raw[:4] != _SPF_MAGIC:
        raise IntegrityError(f"{path} is not a sieve cache")
    (x,) = struct.unpack_from("<Q", raw, 4)
    if len(raw) != 12 + 4 * x:
        raise IntegrityError(f"{path} is truncated")
    spf = np.empty(x + 1, dtype=np.uint32)
    spf[:x] = np.frombuffer(raw, dtype="<u4", offset=12, count=x)
    spf[x] = smallest_prime_factor(x)
    if spf[0] != 0 or spf[1] != 0 or (x >= 2 and spf[2] != 2):
        raise IntegrityError(f"{path} failed the sentinel check")
    return SpfSieve(int(x), spf)


def get_spf_sieve(x: int) -> SpfSieve:
    """Load the sieve for x from cache, or build it (and cache it)."""
    root = cache_dir()
    if root is None:
        return build_spf_sieve(x)
    path = root / f"spf_{x}.bin"
    if path.exists():
        sieve = load_spf(path)
        if sieve.limit != x:
            raise IntegrityError(f"{path} holds a different limit")
        return sieve
    sieve = build_spf_sieve(x)
    save_spf(sieve, path)
    return sieve


def save_irreducibles(table: IrreducibleTable, path: Path):
    with open(path, "wb") as fh:
        fh.write(_IRR_MAGIC)
        fh.write(struct.pack("<II", table.q, table.max_deg))
        for codes in table.by_degree:
            fh.write(struct.pack("<Q", len(codes)))
            fh.write(np.asarray(codes, dtype="<u8").tobytes())


def load_irreducibles(path: Path) -> IrreducibleTable:
    raw = path.read_bytes()
    if raw[:4] != _IRR_MAGIC:
        raise IntegrityError(f"{path} is not an irreducible cache")
    q, max_deg = struct.unpack_from("<II", raw, 4)
    off = 12
    by_degree = []
    for _ in range(max_deg):
        if off + 8 > len(raw):
            raise IntegrityError(f"{path} is truncated")
        (count,) = struct.unpack_from("<Q", raw, off)
        off += 8
        if off + 8 * count > len(raw):
            raise IntegrityError(f"{path} is truncated")
        codes = np.frombuffer(raw, dtype="<u8", offset=off, count=count)
        off += 8 * count
        by_degree.append(tuple(int(c) for c in codes))
    if off != len(raw):
        raise IntegrityError(f"{path} has trailing bytes")
    return IrreducibleTable(q, max_deg, tuple(by_degree)).validate()


def get_irreducibles(q: int, max_deg: int) -> IrreducibleTable:
    """Load the irreducible table from cache, or build and cache it."""
    root = cache_dir()
    if root is None:
        return build_irreducibles(q, max_deg)
    path = root / f"irr_q{q}_d{max_deg}.bin"
    if path.exists():
        return load_irreducibles(path)
    table = build_irreducibles(q, max_deg)
    save_irreducibles(table, path)
    return table
