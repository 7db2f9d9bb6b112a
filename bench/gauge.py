"""Host-speed gauge: a tick of fixed work timed every PERIOD_S.

The benchmark runs on a shared host whose speed drifts by 10-40 % over
seconds to minutes, more than any bound a regression check could use.
While a Gauge is entered, SIGALRM runs a tick (about a millisecond of
interpreter work that uses nothing of casphere) every PERIOD_S in the
measuring thread, on the CPU the solve runs on, and records how long it
took.  `correct(start, end)` turns the wall time of a window into

  net       = end - start - time spent in ticks, and
  corrected = net * mean(REF_S / tick) over the window's ticks,

the second being the time the window's work would take on a host where a
tick takes REF_S: ticks sample the speed uniformly in time, so the work
done is net times the mean speed.  A change to casphere moves the solve
and not the ticks.  Ticks are pure Python, so a gauge can run while
numpy is being imported.
"""

import math
import signal
import time

PERIOD_S = 0.05
# about the median tick on the host the trajectory in metrics.json was
# measured on (2 vCPU Intel Xeon, Python 3.11.7)
REF_S = 0.001


def tick_work():
    """About a millisecond of float arithmetic, calls and dict traffic."""
    acc = 0.0
    table = {}
    for n in range(1, 2000):
        x = 0.37 * n
        table[n % 31] = math.sqrt(x) + math.log1p(x)
        acc += table.get(n % 17, 0.0) * 1e-3 - acc * 1e-6
    prev, cur = 1.0, 0.5
    for n in range(1, 1500):
        prev, cur = cur, (2.0 * n + 1.0) / 7.5 * cur - prev
        if abs(cur) > 1e100:
            prev, cur = prev * 1e-100, cur * 1e-100
    return acc + cur


class Gauge:
    """Context manager that ticks every PERIOD_S while it is entered.

    ticks holds (end time, seconds) of every tick, in perf_counter time;
    there is one more on entry and one on exit, so that a window shorter
    than PERIOD_S always has a tick near it.  The previous SIGALRM handler
    and interval timer are restored on exit.
    """

    def __init__(self):
        self.ticks = []
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        tick_work()
        t1 = time.perf_counter()
        self.ticks.append((t1, t1 - t0))

    def __enter__(self):
        self._tick(None, None)
        handler = signal.signal(signal.SIGALRM, self._tick)
        self._saved = (handler,
                       signal.setitimer(signal.ITIMER_REAL, PERIOD_S,
                                        PERIOD_S))
        return self

    def __exit__(self, *exc):
        handler, timer = self._saved
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)
        self._tick(None, None)
        return False

    def correct(self, start, end):
        """(net seconds, corrected seconds) of the window [start, end].

        A window with no tick inside is corrected by the nearest tick.
        """
        inside = [s for t, s in self.ticks if start <= t <= end]
        net = end - start - sum(inside)
        if not inside:
            inside = [min(self.ticks, key=lambda ts: abs(ts[0] - end))[1]]
        return net, net * sum(REF_S / s for s in inside) / len(inside)
