"""A fixed computation that measures how fast the machine runs right now.

The benchmark spawns this script between passes, just as it spawns
thetaforge's jobs, and divides each end-to-end time sample by the
yardstick time measured next to it (see YARDSTICK_REF_S in run.py).
The work is the kind thetaforge does: hashing tuples of Fractions into a
Counter and summing Fraction series.  It imports nothing from
thetaforge, so no change to the program can change its time.  It prints
a fixed line, which the benchmark checks.
"""

from collections import Counter
from fractions import Fraction

counts = Counter()
for w in range(1024):
    for j in range(2):
        counts[tuple(Fraction(((w >> i) & 3) + j, 4)
                     for i in range(0, 12, 2))] += 1
series = {}
for a in range(60):
    for b in range(60 - a):
        series[a + b] = series.get(a + b, 0) + Fraction(a + 1, b + 1)
print(len(counts), sum(series.values()).numerator % 1000003)
