"""The domination marker rule and the batch kernel for exhaustive window
enumeration.

The only hot loop in the package is running the domination marker rule over
every binary window a block of some level can have and keeping the windows
whose core is one block.  It is one chunked numpy path.

Domination on k-blocks is unsigned-integer ``>=`` on their k-bit values, so
the rule is a sliding-window maximum: with ``v[j]`` the value of the block
starting at ``j`` and ``M[i] = max(v[i..i+k-1])``, a row-k marker sits at
``n`` exactly when ``v[n] == M[i]`` for some ``i`` in ``n-k+1..n``.
:func:`window_max_marks` is the package's only implementation of the rule;
``markers.row_markers`` and batched trapezoid extraction call it too.

Window keys pack ``core_width << 48 | window_bits`` into int64, where the
window is the cell range that fully determines the trapezoid at one core
block.
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


def block_windows(k: int, pad_left: int, pad_right: int, chunk_size: int = 1 << 16):
    """``(core_width, windows)`` for core widths 1..k: the ascending int words
    of ``wlen = core_width + pad_left + pad_right + 1`` cells with row-k
    markers at ``pad_left`` and ``pad_left + core_width`` and none between.

    Each window is the cell range that fully determines one block, so these
    are every block of every word.  Core widths stop at k because
    consecutive determined markers are at most k apart: every k-window of
    block starts inside the determined range holds its own maximum, the
    argmax ``n`` has that window among its covering windows, so
    ``v[n] == M[i]`` makes ``n`` a marker.  A gap of more than k positions
    would contain such a window with no marker in it.
    """
    for cw in range(1, k + 1):
        wlen = cw + pad_left + pad_right + 1
        lo, _ = determined_range(wlen, k)
        s, e = pad_left - lo, pad_left + cw - lo  # rows of ``marks`` at the core ends
        parts = []
        for first in range(0, 1 << wlen, chunk_size):
            words = np.arange(first, min(first + chunk_size, 1 << wlen), dtype=np.int64)
            marks = marker_rows(words, wlen, k)
            sel = marks[s] & marks[e] & ~marks[s + 1:e].any(axis=0)
            parts.append(words[sel])
        yield cw, np.concatenate(parts)


def enumerate_block_window_keys(length: int, k: int, pad_left: int, pad_right: int,
                                chunk_size: int = 1 << 16) -> np.ndarray:
    """Sorted window keys of every block in words of ``length`` cells, which
    must hold the longest window; the set does not depend on ``length``."""
    if length < k + pad_left + pad_right + 1:
        raise ValueError(f"word length {length} is shorter than the longest window, "
                         f"{k + pad_left + pad_right + 1} cells")
    return np.concatenate([windows | np.int64(cw) << _KEY_SHIFT
                           for cw, windows in block_windows(k, pad_left, pad_right, chunk_size)])


def decode_key(key: int, pad_left: int, pad_right: int) -> tuple[int, str]:
    """Invert the key packing: ``(core_width, window_word)``."""
    cw = int(key) >> _KEY_SHIFT
    wlen = cw + pad_left + pad_right + 1
    win = int(key) & ((1 << _KEY_SHIFT) - 1)
    return cw, format(win, f"0{wlen}b")
