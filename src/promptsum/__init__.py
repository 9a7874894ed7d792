"""Few-shot abstractive summarization with soft prompts and a frozen backbone."""

import ctypes
import os

__version__ = "0.1.0"

# mallopt parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap(environ=os.environ) -> bool:
    """Keep up to 128 MiB of freed heap in the process for the next allocation.

    A training step frees each pair's autodiff tape, about 14 MB on the
    benchmark model, before the next pair's forward. With glibc's default
    thresholds that memory can go back to the kernel, and the next pair
    faults the same pages in again. Blocks up to
    32 MiB now come from the heap, and the heap is trimmed only past 128 MiB
    of free space at its top. Setting either threshold alone turns off
    glibc's dynamic threshold and faults more than the default, so the trim
    threshold is set only once the mmap threshold is. Any ``MALLOC_*``
    variable, or ``GLIBC_TUNABLES`` naming ``glibc.malloc``, leaves the
    allocator as the user set it; off glibc this does nothing. Returns
    whether both thresholds were set.
    """
    if any(key.startswith("MALLOC_") for key in environ):
        return False
    if "glibc.malloc" in environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not a GNU libc
        return False
    if not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) != 1:
        return False
    return mallopt(_M_TRIM_THRESHOLD, 128 << 20) == 1


_keep_freed_heap()
