"""The ids the library dispatches on: scenario kinds and loss ids.

This module imports nothing, so the command-line parser offers them as
choices without loading `scenario` or `losses`, which re-export them.
"""

SCENARIO_KINDS = ("overlapped", "disjoint", "partitioned")
# the per-pixel losses `losses.loss_value` scores, and the objectives built from them
ATOMIC_LOSSES = ("ce_current", "ce_memory", "kd_old", "bce_new", "bce_old", "ce_plain")
COMPOSITE_LOSSES = ("memory_augmented", "bce_replay", "pseudo_replay")
