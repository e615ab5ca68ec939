"""First passage of a latent non-decreasing path across iid unit-exponential
barriers, solved by stepping the path itself: the oracle the death-chain
samplers of ``condiid.lack_of_memory`` are tested against.

Each row draws its d barriers, then walks its path event by event until the
path is above all of them.  Nothing here uses lack of memory or the number of
deaths, so the construction is independent of the library's.
"""

import math

import numpy as np

from condiid.errors import SpecValidationError


def first_passage(eps: np.ndarray, step, drift: float) -> tuple[np.ndarray, int]:
    """X_k = inf{t : Z_t > eps_k} for every row and barrier of ``eps``, shape (n, d).

    Each row's path Z starts at 0, rises at rate ``drift`` between events and
    jumps at each event; ``step(t)`` returns the ``(wait, jump)`` arrays of
    the next event of the live rows, whose current times are ``t``, and
    ``jump = inf`` kills the path.  A barrier passed while drifting gets
    t + (eps - z) / drift, one passed at an event (eps < z after the jump,
    strictly) the event time.  The live rows step together; a row retires
    once its level is above all its barriers.  Returns X and the number of
    lockstep steps taken.
    """
    x = np.empty(eps.shape)
    t = np.zeros(len(eps))
    z = np.zeros(len(eps))
    top = eps.max(axis=1)
    rows = np.arange(len(eps))
    steps = 0
    while rows.size:
        steps += 1
        wait, jump = step(t[rows])
        e, z0 = eps[rows], z[rows, None]
        z1 = z[rows] + (drift * wait if drift > 0 else 0.0) + jump
        # barriers below z0 were passed before; ones at or above it pass now
        passed = (z0 <= e) & (e < z1[:, None])
        rise = (e - z0) / drift if drift > 0 else np.inf
        x[rows] = np.where(passed, t[rows, None] + np.minimum(rise, wait[:, None]), x[rows])
        t[rows] += wait
        z[rows] = z1
        rows = rows[z1 <= top[rows]]
    return x, steps


def sample_mo_first_passage(sub, d: int, n: int, rng) -> tuple[np.ndarray, int]:
    """First passage of the killed compound-Poisson path with drift of the
    subordinator ``sub`` across iid unit-exponential barriers.

    Kill and jumps form one Poisson stream of rate R = kill + sum_j rate_j:
    the wait is Exp(1)/R (inf for a pure drift), and an event is a kill with
    probability kill/R, which fails every component still alive, otherwise
    jump j with probability rate_j/R.  Returns the sample and the number of
    lockstep steps taken.
    """
    rates = np.array([sub.kill] + [r for _, r in sub.jumps])
    sizes = np.array([math.inf] + [s for s, _ in sub.jumps])
    total = float(rates.sum())
    eps = rng.exponential(size=(n, d))

    def step(t):
        m = t.size
        if total == 0:
            return np.full(m, math.inf), np.zeros(m)
        wait = rng.exponential(size=m) / total
        return wait, sizes[rng.choice(sizes.size, size=m, p=rates / total)]

    return first_passage(eps, step, sub.drift)


def sample_geo_ciid(law, d: int, n: int, rng) -> tuple[np.ndarray, int]:
    """First passage of the random walk Z_t = Y_1 + ... + Y_{floor(t)}
    with iid steps Y from ``law`` across iid unit-exponential barriers.

    The step law is not identically zero (b_1 = E[exp(-Y)] < 1), so every
    row ends after finitely many steps, with finite integer entries.  Returns
    the sample and the number of lockstep steps taken.
    """
    b1 = float(law.laplace(1.0))
    if not b1 < 1.0 - 1e-15:
        raise SpecValidationError("the step law must not be identically zero")
    eps = rng.exponential(size=(n, d))
    return first_passage(eps, lambda t: (np.ones(t.size), law.sample(t.size, rng)), 0.0)
