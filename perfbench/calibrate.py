"""Fixed pure-Python jobs that measure how fast the machine is right now.

Usage: ``python3 perfbench/calibrate.py {stream,bigstream,subsets}``

The benchmark runs one of them in its own process around every sample and
divides the sample's wall time by the job's wall time. On a shared machine
the speed of a core drifts (by up to 1.8x within a minute on a 2-CPU cloud
VM), and a job drifts with it when its work resembles the sample's, so the
quotient stays steady. The jobs use no code of the package: a change to the
package cannot move them.

- ``stream`` formats and parses edge lines, builds tuples, and runs a
  potential filter with dict and list updates, like a ``run --input``;
- ``bigstream`` does the same with 63-bit weights, whose products are
  multi-word integers, like the star stream;
- ``subsets`` runs a memoized dynamic program over node subsets of three
  fixed 20-node graphs, like the exact oracle that dominates verify-small.
"""

import random
import sys


def stream(lines: int = 60_000, weight_max: int = 1000) -> int:
    rng = random.Random(5)
    text = "\n".join(
        f"{rng.randrange(20_000)} {rng.randrange(20_000)} {rng.randrange(weight_max)}"
        for _ in range(lines)
    )
    edges = []
    for line in text.split("\n"):
        u, v, w = line.split()
        edges.append((int(u), int(v), int(w)))
    phi = [0] * 20_000
    live = {}
    for i, (u, v, w) in enumerate(edges):
        s = phi[u] + phi[v]
        if 4 * w * w > 5 * s * s:
            phi[u] += w - s
            phi[v] += w - s
            live[i] = (u, v, w)
    return len(live)


def subsets() -> int:
    rng = random.Random(11)
    total = 0
    for _ in range(3):
        n = 20
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    w = rng.randrange(1000)
                    adj[u].append((v, w))
                    adj[v].append((u, w))
        memo = {0: 0}

        def best(mask: int) -> int:
            got = memo.get(mask)
            if got is not None:
                return got
            v = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            value = best(rest)
            for u, w in adj[v]:
                if mask >> u & 1:
                    value = max(value, w + best(rest & ~(1 << u)))
            memo[mask] = value
            return value

        total += best((1 << n) - 1)
    return total


def bigstream() -> int:
    return stream(lines=40_000, weight_max=2**63)


JOBS = {"stream": stream, "bigstream": bigstream, "subsets": subsets}

if __name__ == "__main__":
    sys.exit(0 if JOBS[sys.argv[1]]() > 0 else 1)
