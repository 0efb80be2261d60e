"""Machine-speed calibration of the benchmark's timings.

The machines this benchmark runs on share physical cores with other
tenants, and their speed swings by up to 2x over seconds to minutes.  On a
2-vCPU x86-64 VM, over 10 s windows, the time of a fixed ``solve`` loop
spread by 24% (quartile distance over median), while its ratio to a small
numpy-and-formatting kernel timed between its chunks spread by 3.8%; in
a 200 s run interleaving the kernel finely with a sweep, the sweep's
spread fell from 18% to 1.6%.  So the benchmark times the kernel below in
short bursts between calls (and between the fresh processes it times for
set-up), and reports each time scaled to a reference machine on which one
burst takes ``REF_BURST_S``.  The kernel
touches no iqcontrol code, so a change to the program moves the scaled
times as much as the raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_BURST_S = 1e-3   # one burst on the reference machine
EVERY_S = 0.02       # work time between bursts

_H = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
_V = np.linspace(-1.0, 1.0, 8)


def _kernel() -> float:
    """Python-level work on tiny arrays and on floats, strings and dicts,
    the mix every iqctl mode spends its time in."""
    acc = 0.0
    for i in range(15):
        w, v = np.linalg.eigh(_H)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        s = np.cumsum(np.sort(_V + acc * 1e-12))
        acc += abs(complex(u[0, 1])) + float(s[-1]) * 1e-3
    for i in range(60):
        row = {"a": acc, "b": i}
        row = dict(row, c=float(np.cos(acc)))
        acc += len(",".join(format(x, ".17g")
                            for x in (acc, row["c"], float(i)))) * 1e-3
        acc += abs(complex(np.exp(1j * acc)))
    return acc


class Speedometer:
    """Calibration bursts taken between the timed calls of one phase.

    Call ``burst`` before the first call, ``tick`` after each call and
    ``burst`` after the last; ``scales`` then gives each call a factor
    from the bursts around it.  A burst follows a call once EVERY_S of
    work has passed since the previous one, so a long call is bracketed by
    bursts of its own and short calls share them.
    """

    def __init__(self):
        self.bursts = []
        self._since = []      # index of the last burst before each call
        self._last = 0.0

    def burst(self):
        start = perf_counter()
        _kernel()
        self._last = perf_counter()
        self.bursts.append(self._last - start)

    def tick(self):
        """Record a finished call; take a burst if EVERY_S has passed."""
        self._since.append(len(self.bursts) - 1)
        if perf_counter() - self._last >= EVERY_S:
            self.burst()

    def scales(self) -> list:
        """Per call, the factor that turns measured into reference seconds.

        It uses the mean of the two bursts on either side of the call:
        one burst alone is too noisy to scale a single call by.
        """
        b = self.bursts
        factors = []
        for i in self._since:
            near = b[max(0, i - 1):i + 3]
            factors.append(REF_BURST_S * len(near) / sum(near))
        return factors
