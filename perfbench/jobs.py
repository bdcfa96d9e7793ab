"""Seeded job lists: each workload is a fixed list of `qpshell` argv lists.

The program only ever sees the argv.  Every numeric parameter is drawn from
the range its workload names (the ranges of `verification._random_potential`
and the README examples), by Latin hypercube sampling inside each job class:
a class of K jobs splits every range into K equal strata and draws one value
per stratum, in antithetic pairs, so a list covers each range evenly and its
parameters average the same whatever the seed.  The
discrete parameters (variant, grid size, command form) are not drawn: every
class appears the same number of times in every list, and the seed shuffles
the order.  That keeps the work in a list close to constant across seeds
without narrowing any range.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

J_CHOICES = ("1", "2", "3", "4", "all")

def _num(x: float) -> str:
    return f"{x:.6g}"


class _Draw:
    """Latin hypercube draws for one class of `k` jobs."""

    def __init__(self, rng: random.Random, k: int):
        self.rng = rng
        self.k = k

    def strata(self) -> list[int]:
        order = list(range(self.k))
        self.rng.shuffle(order)
        return order

    def uniform(self, lo: float, hi: float, strata: list[int] | None = None) -> list[float]:
        """One value per stratum of [lo, hi], in the given (else random) order.

        Values come in antithetic pairs: stratum k-1-s holds the reflection of
        the value in stratum s, so the values of a class sum to k (lo + hi) / 2.
        """
        strata = self.strata() if strata is None else strata
        u = [self.rng.random() for _ in range(self.k)]
        for s in range(self.k // 2):
            u[self.k - 1 - s] = 1.0 - u[s]
        return [lo + (hi - lo) * (s + u[s]) / self.k for s in strata]

    def signed(self, lo: float, hi: float) -> list[float]:
        """Magnitude in [lo, hi] with a balanced random sign: +-[lo, hi]."""
        signs = [1.0, -1.0] * (self.k // 2)
        if self.k % 2:
            signs.append(self.rng.choice((1.0, -1.0)))
        self.rng.shuffle(signs)
        return [s * v for s, v in zip(signs, self.uniform(lo, hi))]


def _rapidity_sweep(rng: random.Random) -> list[list[str]]:
    copies = 2
    jobs = []
    for j in J_CHOICES:
        for n in (16, 128, 800):
            chi = ["--chi", f"0.05:4:{n}"]
            d = _Draw(rng, copies)
            for m, v0, a in zip(d.uniform(0.2, 3), d.uniform(-5, 5), d.uniform(0.1, 6)):
                jobs.append(["scatter", "--j", j, "--m", _num(m),
                             "--v0", _num(v0), "--a", _num(a)] + chi)
            for m, v1, v2, a1, da in zip(d.uniform(0.2, 3), d.uniform(-4, 4),
                                         d.uniform(-4, 4), d.uniform(0.1, 3),
                                         d.uniform(0.2, 3)):
                a1s = _num(a1)
                jobs.append(["scatter", "--j", j, "--m", _num(m),
                             "--v1", _num(v1), "--a1", a1s, "--v2", _num(v2),
                             "--a2", _num(float(a1s) + da)] + chi)
    return jobs


# (grid size, sign of V2 relative to V1, jobs).  Whether V1 and V2 share a
# sign decides whether curves exist at all, so both patterns get classes of
# their own.  A 300^2 scan with opposite signs takes 3 to 9 s, a third of a
# run on its own, so at 300^2 only a field-dominated same-sign scan runs; the
# refinement-heavy scans are the 64^2 and 128^2 ones.  The same-sign 128^2
# scans cost nearly the same whatever the draw and sit in the middle of the
# job times, which keeps the median job steady across seeds; the eight
# opposite-sign 64^2 scans spread the cost of refinement over many draws,
# which keeps the tail steady.  A pass takes 10 to 15 s, two or three to a run.
_LOCUS_CLASSES = ((64, -1.0, 8), (64, 1.0, 2), (128, 1.0, 4), (128, -1.0, 1), (300, 1.0, 1))


def _transparency_locus(rng: random.Random) -> list[list[str]]:
    jobs = []
    variants = {n: rng.sample("1234", 4) for n in (64, 128, 300)}
    used = dict.fromkeys(variants, 0)
    for n, rel, k in _LOCUS_CLASSES:
        # the classes of one grid size take the four variants in turn
        js = [variants[n][(used[n] + t) % 4] for t in range(k)]
        used[n] += k
        d = _Draw(rng, k)
        # the curve count grows with m (a1 + 5); pairing high m with low a1
        # keeps the class total steady
        order = d.strata()
        for j, m, a1, v1, v2 in zip(js, d.uniform(0.5, 2, order),
                                    d.uniform(0.5, 3, [k - 1 - s for s in order]),
                                    d.signed(0.2, 4), d.uniform(0.2, 4)):
            a1s = _num(a1)
            jobs.append(["zeros", "--j", j, "--m", _num(m), "--a1", a1s,
                         "--v1", _num(v1), "--v2", _num(math.copysign(v2, v1 * rel)),
                         "--a2", f"{a1s}:{_num(float(a1s) + 5)}:{n}",
                         "--chi", f"0.1:3:{n}"])
    return jobs


def _bound_spectrum(rng: random.Random) -> list[list[str]]:
    copies = 4
    jobs = []
    for j in J_CHOICES:
        d = _Draw(rng, copies)
        for m, v0, a in zip(d.uniform(0.5, 2), d.uniform(-6, -0.5), d.uniform(0.3, 3)):
            jobs.append(["bound", "--j", j, "--m", _num(m), "--v0", _num(v0),
                         "--a", _num(a), "--levels"])
        for m, v1, v2, a1, da in zip(d.uniform(0.5, 2), d.uniform(-6, 2), d.uniform(-6, 2),
                                     d.uniform(0.3, 2), d.uniform(0.5, 3)):
            a1s = _num(a1)
            jobs.append(["bound", "--j", j, "--m", _num(m), "--v1", _num(v1),
                         "--a1", a1s, "--v2", _num(v2), "--a2", _num(float(a1s) + da),
                         "--levels"])
    for n in (200, 2000):
        tail = ["--n", str(n)]
        d = _Draw(rng, len(J_CHOICES))
        for j, m, a in zip(J_CHOICES, d.uniform(0.5, 2), d.uniform(0.3, 3)):
            jobs.append(["bound", "--j", j, "--m", _num(m), "--a", _num(a),
                         "--curve", "v0"] + tail)
        for j, m, v1, v2, a1, da in zip(J_CHOICES, d.uniform(0.5, 2), d.uniform(-6, 2),
                                        d.uniform(-6, 2), d.uniform(0.3, 2), d.uniform(0.5, 3)):
            a1s = _num(a1)
            jobs.append(["bound", "--j", j, "--m", _num(m), "--v1", _num(v1),
                         "--a1", a1s, "--v2", _num(v2), "--a2", _num(float(a1s) + da),
                         "--curve", "det"] + tail)
        for j, m, v1, a1, da in zip(J_CHOICES, d.uniform(0.5, 2), d.uniform(-6, 2),
                                    d.uniform(0.3, 2), d.uniform(0.5, 3)):
            a1s = _num(a1)
            jobs.append(["bound", "--j", j, "--m", _num(m), "--v1", _num(v1),
                         "--a1", a1s, "--a2", _num(float(a1s) + da),
                         "--curve", "v2"] + tail)
        for j, m, a1, da, alpha in zip(J_CHOICES, d.uniform(0.5, 2), d.uniform(0.3, 2),
                                       d.uniform(0.5, 3), d.signed(0.1, 2)):
            a1s = _num(a1)
            jobs.append(["bound", "--j", j, "--m", _num(m), "--a1", a1s,
                         "--a2", _num(float(a1s) + da), "--alpha", _num(alpha),
                         "--curve", "v1pm"] + tail)
    return jobs


WORKLOADS = {
    "rapidity_sweep": _rapidity_sweep,
    "transparency_locus": _transparency_locus,
    "bound_spectrum": _bound_spectrum,
}


def make_jobs(workload: str, seed: int) -> list[list[str]]:
    """The workload's job list for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def jobs_digest(jobs: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(jobs).encode()).hexdigest()[:16]
