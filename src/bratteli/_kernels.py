"""The domination marker rule and the batch kernel for exhaustive word
enumeration.

The only hot loop in the package is running the domination marker rule over
every binary word of a given length and fingerprinting the block windows
that determine trapezoids.  It is one chunked numpy path.

Domination on k-blocks is unsigned-integer ``>=`` on their k-bit values, so
the rule is a sliding-window maximum: with ``v[j]`` the value of the block
starting at ``j`` and ``M[i] = max(v[i..i+k-1])``, a row-k marker sits at
``n`` exactly when ``v[n] == M[i]`` for some ``i`` in ``n-k+1..n``.
:func:`window_max_marks` is the package's only implementation of the rule;
``markers.row_markers`` and batched trapezoid extraction call it too.

Occurrence keys pack ``core_width << 48 | window_bits`` into int64, where
the window is the cell range that fully determines the trapezoid at one
core block.
"""

from __future__ import annotations

import numpy as np

_KEY_SHIFT = 48


def determined_range(length: int, k: int) -> tuple[int, int]:
    """Positions whose row-k marker bit a word of ``length`` cells decides:
    ``[k-1, length-2k+1]``; the bit at ``n`` reads cells ``n-k+1 .. n+2k-2``."""
    return (k - 1, length - 2 * k + 1)


def block_values(words: np.ndarray, length: int, k: int) -> np.ndarray:
    """``(length-k+1, N)`` k-block values of int words in the narrowest unsigned
    dtype; row ``j`` is the block at cell ``j`` (cell 0 is the top bit)."""
    mask = (1 << k) - 1
    v = np.empty((length - k + 1, words.size), dtype=np.min_scalar_type(mask))
    for j in range(length - k + 1):
        np.bitwise_and(words >> (length - k - j), mask, out=v[j], casting="unsafe")
    return v


def window_max_marks(v: np.ndarray, k: int) -> np.ndarray:
    """The domination rule on ``(n_blocks, N)`` block values, of any dtype that
    orders like the blocks (``object`` once k > 64): ``(hi-lo+1, N)`` bool
    marker bits on the determined range ``[lo, hi]``, row ``n-lo`` for ``n``.
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


def marker_rows(words: np.ndarray, length: int, k: int) -> np.ndarray:
    """Row-k marker bits of int words of ``length`` cells (see :func:`window_max_marks`)."""
    return window_max_marks(block_values(words, length, k), k)


def occurrence_keys(words: np.ndarray, length: int, k: int,
                    pad_left: int, pad_right: int) -> np.ndarray:
    """Window keys of every consecutive row-k marker pair whose determining
    window fits inside the word.

    Consecutive determined markers are at most k apart, so the search for
    the end ``e`` of a block starting at ``s`` stops at ``s + k``: every
    k-window of block starts inside the determined range holds its own
    maximum, the argmax ``n`` has that window among its covering windows,
    so ``v[n] == M[i]`` makes ``n`` a marker.  A gap of more than k
    positions would contain such a window with no marker in it.
    """
    lo, hi = determined_range(length, k)
    marks = marker_rows(words, length, k)
    e_max = min(hi, length - 1 - pad_right)
    parts = []
    for s in range(max(lo, pad_left), e_max):
        # words with a marker at s and none yet in (s, e)
        open_ = marks[s - lo].copy()
        for e in range(s + 1, min(s + k, e_max) + 1):
            sel = open_ & marks[e - lo]
            open_ &= ~marks[e - lo]
            if not sel.any():
                continue
            cw = e - s
            wlen = cw + pad_left + pad_right + 1
            win = words[sel] >> np.int64(length - 1 - (e + pad_right))
            # ``words`` ascends, so equal windows from neighbouring words are adjacent
            win = win[np.flatnonzero(np.diff(win, prepend=np.int64(-1)))]
            win &= (np.int64(1) << np.int64(wlen)) - 1
            parts.append(win | (np.int64(cw) << _KEY_SHIFT))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def enumerate_block_window_keys(length: int, k: int, pad_left: int, pad_right: int,
                                chunk_size: int = 1 << 16) -> np.ndarray:
    """Unique window keys over all ``2**length`` words.

    The word space is processed in chunks; merging is a set union, so the
    result does not depend on the chunking.
    """
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    if length + 2 >= _KEY_SHIFT:
        raise ValueError(f"word length {length} too large for int64 window keys")
    n_words = 1 << length
    parts = []
    for first in range(0, n_words, chunk_size):
        words = np.arange(first, min(first + chunk_size, n_words), dtype=np.int64)
        part = occurrence_keys(words, length, k, pad_left, pad_right)
        if part.size:
            parts.append(np.unique(part))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def windows_by_core_width(keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Split window keys into ``(core_width, window bits)`` groups, in
    ascending core width; a group's windows all have the same length."""
    widths = keys >> _KEY_SHIFT
    windows = keys & ((1 << _KEY_SHIFT) - 1)
    return [(int(cw), windows[widths == cw]) for cw in np.unique(widths)]


def decode_key(key: int, pad_left: int, pad_right: int) -> tuple[int, str]:
    """Invert the key packing: ``(core_width, window_word)``."""
    cw = int(key) >> _KEY_SHIFT
    wlen = cw + pad_left + pad_right + 1
    win = int(key) & ((1 << _KEY_SHIFT) - 1)
    return cw, format(win, f"0{wlen}b")
