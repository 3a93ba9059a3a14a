"""Host-speed probes, so that times from a host whose speed drifts compare.

On a shared host the same operation can take 40% longer a minute later with
no change in the code.  A probe is a fixed piece of work written here, apart
from the program, and timed between operations.  An operation's time is
scaled by ``REFERENCE_S[kind] / probe time``: the reported figure is the
time the operation would have taken when the probe ran in its reference
time.  A change to the program leaves the probes alone, so it still moves
the scaled times in full.

Each workload uses the probe whose work is most like its hot path:
tuple-and-dict Python for labelling, small numpy calls for Newton, and
streaming over large arrays for the finite-volume check.  Only the numpy
probes import numpy, so the Python probe can run before the program is
imported.
"""

from __future__ import annotations

import statistics
from time import perf_counter


def _python():
    counts = {}
    for i in range(20000):
        word = (i % 7, i % 5, i % 3)
        counts[word] = counts.get(word, 0) + len(word)
    return counts


def _numpy_small():
    import numpy as np

    h = np.zeros(9)
    M = np.full((9, 9), 0.01)
    for _ in range(1500):
        h = M @ np.arctanh(0.5 * np.tanh(h + 1.0))
    return h


def _numpy_large():
    import numpy as np

    codes = np.arange(1 << 20, dtype=np.int64)
    return int(((codes[:, None] >> np.arange(8)) & 1).sum())


KERNELS = {"python": _python, "numpy-small": _numpy_small, "numpy-large": _numpy_large}

# median probe times over 30 s on a shared 2-vCPU Intel Xeon host; they fix
# the scale of the reported times and nothing else
REFERENCE_S = {"python": 0.0090, "numpy-small": 0.0095, "numpy-large": 0.0600}


def probe(kind: str, reps: int = 3) -> float:
    """Median time of a few runs of one probe, in seconds."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(reps):
        t = perf_counter()
        kernel()
        times.append(perf_counter() - t)
    return statistics.median(times)


def scale(kind: str, probe_s: float) -> float:
    """Factor that turns a time measured next to this probe into reference time."""
    return REFERENCE_S[kind] / probe_s
