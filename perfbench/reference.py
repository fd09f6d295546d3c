"""Frozen reference answers, the reach ladder and the recorded seeds.

Every count here is checked against what the library returns; a mismatch
is a failed check.  Counts for cyclic p-groups C_{p^k} are independent
references: their transfer systems form the Tamari lattice on k+1 points
(Balchin-Barnes-Roitzheim, arXiv:1905.08869), with Catalan(k+1) elements
and k/2 * Catalan(k+1) covers.  The other counts were taken from the
library at the commit that introduced this benchmark and are frozen as
regression references.
"""

from __future__ import annotations

from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def tamari(k: int) -> tuple[int, int]:
    """(systems, covers) of the transfer-system lattice of C_{p^k}."""
    systems = catalan(k + 1)
    return systems, k * systems // 2


#: group name -> (transfer systems, Hasse covers); covers None = not frozen
TRANSFER_COUNTS: dict[str, tuple[int, int | None]] = {
    "C4": tamari(2),           # 5 / 5
    "C8": tamari(3),           # 14 / 21
    "C9": tamari(2),
    "C16": tamari(4),          # 42 / 84
    "C6": (10, 13),
    "C12": (68, 145),
    "C18": (68, 145),
    "K4": (19, 31),
    "S3": (9, 11),
    "D5": (9, 11),
    "C3xC3": (36, 73),
    "C2xC4": (328, 969),
    "D4": (294, 845),
    "C24": (544, 1623),
    "C2xC6": (3396, None),
    "D6": (3133, None),
    "C2xC8": (8105, None),
}

#: the `lattice` workload's fixed list: every group gets an enumerate job
#: and a hasse job.  C2xC4 and D4 carry almost all of the time.  C24 (~3 s
#: for both jobs at the seed commit) is left to the reach ladder, so that
#: a pass takes ~2 s and every job is timed ~10 times in a 24 s run.
LATTICE_GROUPS = ("C8", "C9", "C16", "C6", "C12", "C18", "K4", "S3", "D5",
                  "C3xC3", "C2xC4", "D4")

#: Wall budget for one ladder group's enumeration, in seconds.  On a 2-vCPU
#: x86 machine at the commit that introduced this benchmark, the slowest
#: group that finishes (C24, 0.55-0.98 s over 40 runs) stays 2.5x below it
#: and the fastest group that does not (C2xC6, 5.9-6.4 s) is 2.4x above it,
#: so run-to-run noise of either sign does not move `reach_groups`.
REACH_BUDGET_S = 2.5

#: (group, reason for the step).  The walk stops at the first group whose
#: budget is spent; each group finishing within budget with its reference
#: count adds one to `reach_groups`.
REACH_LADDER = (
    ("C8", "Tamari reference, 4 subgroups; a smoke rung"),
    ("C16", "Tamari reference, 5 subgroups, ~0.01 s"),
    ("C12", "non-chain lattice [2]x[1], ~0.02 s"),
    ("C2xC4", "first non-cyclic rung, 328 systems, ~0.25 s"),
    ("D4", "conjugation acts, 294 systems, ~0.45 s"),
    ("C24", "544 systems, ~0.6 s: the last rung under budget at the seed"),
    ("C2xC6", "3,396 systems, ~6 s: ~8x above C24; spends the budget at the seed"),
    ("D6", "3,133 systems with conjugation, ~18 s: ~3x above C2xC6"),
    ("C2xC8", "8,105 systems, ~30 s"),
    # No reference count is recorded for the two groups below, so they add
    # to `reach_groups` only once one is added to TRANSFER_COUNTS.
    ("S4", "did not finish in 150 s at the seed"),
    ("C2xC2xC2", "more than 2.28M systems; did not finish at the seed"),
)

#: Seeds 1-10 were used while this benchmark was tuned.  A later change
#: that claims a gain must also show it on this seed.
HELD_OUT_SEED = 9173
