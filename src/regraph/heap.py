"""glibc heap thresholds pinned for loops that free and re-allocate arrays."""

import ctypes
import functools

__all__ = ["pin_heap"]

# glibc mallopt parameters, and the values they are pinned to: arrays up to
# 32 MiB (glibc's largest mmap threshold) come from the heap, and up to
# 1 GiB of free heap top is kept rather than given back.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
PINNED_MMAP_THRESHOLD = 32 << 20
PINNED_TRIM_THRESHOLD = 1 << 30


@functools.cache
def pin_heap() -> None:
    """Keep glibc's heap from being trimmed and faulted back in every step.

    Each train step, and each grid step of frozen inference, frees and
    re-allocates the same few megabytes of arrays. Left to glibc's dynamic
    thresholds, the freed top of the heap is given back to the system and
    faulted in again on the next step, a page fault per 4 KiB. Fixed
    thresholds keep those pages mapped. ``train`` and ``predict_samples``
    call it; a process pins once, and later calls do nothing. A no-op
    wherever the C library is not glibc or cannot be loaded.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc's own symbol: the parameters are glibc's
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, PINNED_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, PINNED_TRIM_THRESHOLD)
