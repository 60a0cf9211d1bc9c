"""Counter-based random streams for reproducible, order-independent Monte Carlo.

Every variate is a pure function of ``(seed, stream, counter, draw)`` built
from the splitmix64 finalizer, so there is no generator state to thread
through the simulation: any subset of work items (pulse periods, scan
points) can be evaluated in any order, in chunks of any size, on any
number of workers, and the numbers come out identical.

Streams separate statistically independent purposes (jump thresholds,
detector thinning, timing jitter, ...); the counter usually indexes the
work item (pulse period or scan point) and the draw indexes repeated use
within that item.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Stream identifiers. Keep stable: they are part of the reproducibility
# contract between a seed and its outputs.
STREAM_JUMP = 1
STREAM_THIN = 2
STREAM_JITTER = 3
STREAM_DURATION = 4

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK = 0xFFFFFFFFFFFFFFFF
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: bijective avalanche on uint64."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _hash64(seed: int, stream: int, counter, draw) -> np.ndarray:
    """Hash (seed, stream, counter, draw) to uint64; counter/draw broadcast."""
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(int(seed) & _MASK) + _GOLDEN)
        for word in (np.uint64(int(stream) & _MASK),
                     np.asarray(counter, dtype=np.uint64),
                     np.asarray(draw, dtype=np.uint64)):
            h = _mix((h ^ word) + _GOLDEN)
    return h


def uniform(seed: int, stream: int, counter, draw) -> np.ndarray:
    """Uniform variates on the open interval (0, 1), shaped by broadcasting.

    The largest hash would round to exactly 1.0; it is held at the largest
    double below 1, and every other variate keeps its value.
    """
    bits = _hash64(seed, stream, counter, draw)
    return np.minimum(((bits >> np.uint64(11)).astype(np.float64) + 0.5)
                      * 2.0 ** -53, _BELOW_ONE)


def normal(seed: int, stream: int, counter, draw) -> np.ndarray:
    """Standard normal variates via the inverse CDF of a counter uniform."""
    return ndtri(uniform(seed, stream, counter, draw))
