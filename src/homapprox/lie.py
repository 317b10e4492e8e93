"""Graded basis of the free Lie algebra inside the free algebra.

Candidates at order m and length k are the right-normed brackets
[xi_{m1},[...[xi_{m_{k-1}},xi_{m_k}]...]] of the words of that block,
scanned in canonical order; a candidate is kept iff its expansion is
linearly independent of the kept ones.  Per-order results are cached in
memory and, when a cache directory is configured, as JSON on disk; a
file on disk is used only after it is checked to hold such a basis.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .algebra import AlgElem, Word, concat, enumerate_basis
from .linalg import IntEchelon

CACHE_ENV_VAR = "HOMAPPROX_CACHE_DIR"


@dataclass
class LieBasisElement:
    word: Word
    expansion: AlgElem
    order: int
    length: int
    index: int  # 1-based position in the assembled basis


@lru_cache(maxsize=None)
def expand_right_normed(w: Word) -> AlgElem:
    """Image of the right-normed bracket of w in the free algebra."""
    w = tuple(w)
    if not w:
        raise ValueError("empty bracket word")
    if len(w) == 1:
        return AlgElem.from_word(w)
    head = AlgElem.from_word(w[:1])
    rest = expand_right_normed(w[1:])
    return concat(head, rest) - concat(rest, head)


def _mobius(d: int) -> int:
    if d == 1:
        return 1
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if d > 1:
        out = -out
    return out


def witt_dimension(m: int) -> int:
    """Dimension of the order-m graded piece of the free Lie algebra on
    countably many letters with order(xi_j) = j + 1."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return 1
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += _mobius(d) * 2 ** (m // d)
    return total // m


# per-order kept words, extended on demand
_order_cache: dict[int, list] = {}


def _cache_dir(explicit) -> Path | None:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def _independent_brackets(words, m: int) -> list:
    """The words of order m, in the given order, whose right-normed
    expansions are independent of those of the words kept before them.
    Expansions of different lengths share no word, so each length is
    reduced in its own block."""
    blocks: dict = {}  # length -> {word of that length: column}
    for w in enumerate_basis(m):
        block = blocks.setdefault(len(w), {})
        block[w] = len(block)
    echelons = {k: IntEchelon(len(block)) for k, block in blocks.items()}
    kept = []
    for w in words:
        index = blocks[len(w)]
        vec = [0] * len(index)
        for word, c in expand_right_normed(w).terms.items():
            assert c.denominator == 1
            vec[index[word]] = c.numerator
        if echelons[len(w)].add(vec):
            kept.append(w)
    return kept


def _compute_order(m: int) -> list:
    kept = _independent_brackets(enumerate_basis(m), m)
    expected = witt_dimension(m)
    if len(kept) != expected:
        raise AssertionError(
            f"order {m}: kept {len(kept)} brackets, Witt formula gives {expected}"
        )
    return kept


def _read_order(path: Path, m: int) -> list | None:
    """Words of a cache file, or None unless it holds a basis of order m:
    witt_dimension(m) distinct words of order m in canonical order whose
    right-normed expansions are independent."""
    try:
        data = json.loads(path.read_text())
        order, words = data["order"], [tuple(w) for w in data["words"]]
    except (OSError, ValueError, TypeError, KeyError):
        return None
    position = {w: i for i, w in enumerate(enumerate_basis(m))}
    if (
        order != m
        or len(words) != witt_dimension(m)
        or not all(type(c) is int for w in words for c in w)
        or not all(w in position for w in words)
        or [position[w] for w in words] != sorted({position[w] for w in words})
        or _independent_brackets(words, m) != words
    ):
        return None
    return words


def _load_order(m: int, cache_dir) -> list:
    """Kept words of order m: from memory, else from a valid cache file,
    else computed and written to the cache directory, if there is one."""
    directory = _cache_dir(cache_dir)
    path = directory / f"lie_order_{m}.json" if directory else None
    kept = _order_cache.get(m)
    write = path is not None and not path.is_file()
    if kept is None and path is not None and not write:
        kept = _read_order(path, m)
        write = kept is None
    if kept is None:
        kept = _compute_order(m)
    if write:
        # atomic: a reader sees the old file or the whole new one
        directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"order": m, "words": [list(w) for w in kept]}))
        os.replace(tmp, path)
    _order_cache[m] = kept
    return kept


def build_lie_basis(N: int, cache_dir=None) -> list:
    """Basis elements of all orders <= N, order-ascending, 1-indexed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out = []
    idx = 1
    for m in range(1, N + 1):
        for w in _load_order(m, cache_dir):
            out.append(
                LieBasisElement(
                    word=w,
                    expansion=expand_right_normed(w),
                    order=m,
                    length=len(w),
                    index=idx,
                )
            )
            idx += 1
    return out
