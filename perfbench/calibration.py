"""How fast the machine runs right now, from one fixed computation.

The benchmark's reference machine is shared, and its speed drifts by up
to ±30% within seconds, and differs between its two vCPUs.  Raw timings
of two runs a few minutes apart then differ by more than any regression
worth catching.  So the interpreter that runs a measured command or
import times ``calibrate`` CALIBRATIONS times just before it and again
just after it, and ``scale`` multiplies the command's time by
REFERENCE_S / (the median of those calibrations).  The figures read as
seconds on the reference machine at the speed where ``calibrate`` takes
REFERENCE_S.

``calibrate`` is plain Python arithmetic, never the program, and
allocates nothing that could raise the measured peak memory.
"""

import math
import time

# Median of calibrate() on the reference machine (see README.md).
REFERENCE_S = 0.0125
# calibrate() times taken in a row before a command, and again after it.
CALIBRATIONS = 2


def calibrate():
    """Seconds that one fixed Python computation takes now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(60_000):
        total += math.log1p(i * 1e-6) * math.exp(-i * 1e-7)
    return time.perf_counter() - start


def calibrations():
    """CALIBRATIONS calibrate() times in a row."""
    return [calibrate() for _ in range(CALIBRATIONS)]


def speed(calibrations):
    """Factor from seconds here to seconds at the reference speed, given
    calibrate() times taken around them."""
    # Imported here: an interpreter that runs a preset command or an
    # import only calibrates, and loading statistics would add to its time.
    import statistics

    return REFERENCE_S / statistics.median(calibrations)


def scale(seconds, around):
    """Each of ``seconds`` at the reference speed, given the calibrations
    taken just before and just after it, ``around``."""
    return [s * speed(c) for s, c in zip(seconds, around)]
