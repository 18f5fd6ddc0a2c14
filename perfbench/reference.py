"""A fixed task that measures how fast the machine is running right now.

On a shared host the CPU time one process gets per second of wall time
changes by a quarter or more over tens of seconds, and it moves every
timing taken in the same second together. The benchmark times this task
around its operations and rescales each operation's time to the speed
at which the task takes ``NOMINAL_S``. The task uses only the standard
library, never the package, so no change to the program can change it;
it parses CSV text, converts and sums floats, and sorts, the same kinds
of work the pipeline does.
"""

import csv
import io
import json
import random
import time
from statistics import median
from typing import List

# Median duration of the task on the 2-vCPU Xeon (2.1 GHz) machine the
# benchmark was defined on, with Python 3.11; it only sets the scale.
NOMINAL_S = 0.0045

_rng = random.Random("a4l-perfbench-reference")
_TEXT = "\n".join(
    ",".join(f"{_rng.gauss(50.0, 12.0):.2f}" for _ in range(10)) for _ in range(700)
)


def task() -> float:
    columns: List[List[float]] = [[] for _ in range(10)]
    for row in csv.reader(io.StringIO(_TEXT)):
        for column, cell in zip(columns, row):
            column.append(float(cell))
    total = 0.0
    for column in columns:
        mean = sum(column) / len(column)
        total += sum((x - mean) ** 2 for x in column)
        column.sort()
    return total + len(json.dumps({"total": total, "first": columns[0][:20]}))


def timed() -> float:
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


def speed_factor(samples: List[float]) -> float:
    """Multiplier that turns this run's wall times into nominal-speed times."""
    return NOMINAL_S / median(samples)
