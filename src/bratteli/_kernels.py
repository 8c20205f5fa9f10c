"""The domination marker rule, the word-space sweep, and the reference window scan.

Domination on k-blocks is unsigned-integer ``>=`` on their k-bit values, so
the rule is a sliding-window maximum: with ``v[j]`` the value of the block
starting at ``j`` and ``M[i] = max(v[i..i+k-1])``, a row-k marker sits at
``n`` exactly when ``v[n] == M[i]`` for some ``i`` in ``n-k+1..n``.
:func:`window_max_marks` is the package's only implementation of the rule,
and :func:`marked_words` the only loop over all words of a length, which it
marks ``_CHUNK`` at a time.  :func:`enumerate_block_window_keys`, the
reference enumeration, marks every binary window a block of some level can
have and keeps those whose core is one block; tests and the traced
benchmark compare ``trapezoids.enumerate_level`` with it.  A key packs
``core_width << 48 | window_bits`` into int64.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_KEY_SHIFT = 48
_CHUNK = 1 << 16  # words marked at once


def determined_range(length: int, k: int) -> tuple[int, int]:
    """Positions whose row-k marker bit a word of ``length`` cells decides:
    ``[k-1, length-2k+1]``; the bit at ``n`` reads cells ``n-k+1 .. n+2k-2``."""
    return (k - 1, length - 2 * k + 1)


def window_max_marks(v: np.ndarray, k: int) -> np.ndarray:
    """The domination rule on ``(n_blocks, N)`` block values, of any dtype that
    orders like the blocks: ``(hi-lo+1, N)`` bool marker bits on the
    determined range ``[lo, hi]``, row ``n-lo`` for ``n``.
    The determined positions are those whose every covering window of block
    starts lies inside the word."""
    lo, hi = determined_range(v.shape[0] + k - 1, k)
    if lo > hi:
        return np.zeros((0, v.shape[1]), dtype=np.bool_)
    win_max = v[:hi + 1].copy()
    for t in range(1, k):
        np.maximum(win_max, v[t:t + hi + 1], out=win_max)
    own = v[lo:hi + 1]
    marks = own == win_max[lo:hi + 1]
    for d in range(1, k):
        marks |= own == win_max[lo - d:hi + 1 - d]
    return marks


def marked_words(length: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every int word of ``length`` cells (cell 0 is the top bit), ascending and
    ``_CHUNK`` at a time, as ``(words, marks)``: marks from :func:`window_max_marks`."""
    mask = (1 << k) - 1
    for first in range(0, 1 << length, _CHUNK):
        words = np.arange(first, min(first + _CHUNK, 1 << length), dtype=np.int64)
        v = np.empty((length - k + 1, words.size), dtype=np.min_scalar_type(mask))
        for j in range(length - k + 1):  # row j: the k-block at cell j
            np.bitwise_and(words >> (length - k - j), mask, out=v[j], casting="unsafe")
        yield words, window_max_marks(v, k)


def enumerate_block_window_keys(length: int, k: int, pad_left: int, pad_right: int) -> np.ndarray:
    """Sorted keys of the windows, for core widths 1..k, of ``wlen =
    core_width + pad_left + pad_right + 1`` cells with row-k markers at
    ``pad_left`` and ``pad_left + core_width`` and none between, marked by
    :func:`marked_words`.  ``length`` must hold the longest window; the keys
    do not depend on it."""
    if length < k + pad_left + pad_right + 1:
        raise ValueError(f"word length {length} is shorter than the longest window, "
                         f"{k + pad_left + pad_right + 1} cells")
    parts = []
    for cw in range(1, k + 1):
        wlen = cw + pad_left + pad_right + 1
        lo, _ = determined_range(wlen, k)
        s, e = pad_left - lo, pad_left + cw - lo  # rows of ``marks`` at the core ends
        for words, marks in marked_words(wlen, k):
            sel = marks[s] & marks[e] & ~marks[s + 1:e].any(axis=0)
            parts.append(words[sel] | np.int64(cw) << _KEY_SHIFT)
    return np.concatenate(parts)


def decode_key(key: int, pad_left: int, pad_right: int) -> tuple[int, str]:
    """Invert the key packing: ``(core_width, window_word)``."""
    cw = int(key) >> _KEY_SHIFT
    wlen = cw + pad_left + pad_right + 1
    win = int(key) & ((1 << _KEY_SHIFT) - 1)
    return cw, format(win, f"0{wlen}b")
