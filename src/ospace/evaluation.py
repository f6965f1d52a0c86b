"""Tolerance-based group matching: TP/FP/FN and precision/recall/F1.

A predicted group matches a ground-truth group of size |G| at tolerance T
when it contains at least ceil(T*|G|) of the true members and no more than
ceil((1-T)*|G|) outsiders.  T=1 is exact set equality.  The ceilings are
evaluated in exact rational arithmetic; the float closest to 2/3 times 3
rounds to just above 2, which would silently demand a third member.

Singleton blocks are not conversational groups and are dropped from both
sides before matching.  Matching is greedy one-to-one: ground-truth groups
in descending size claim the first remaining predicted group they match,
with deterministic (smallest-member) tie ordering on both sides.
``match_counts`` matches many predicted partitions of one scene against
its ground truth, which it checks and orders once; ``match_scene`` is it
on one partition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import check_groups

__all__ = [
    "GroupMetrics",
    "snap_tolerance",
    "required_correct",
    "max_false",
    "match_scene",
    "match_counts",
    "aggregate",
    "format_tolerance",
]


@dataclass(frozen=True)
class GroupMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    tolerance: Fraction


def snap_tolerance(t) -> Fraction:
    """Tolerance as an exact fraction; floats (numpy's too) snap to the
    nearest simple ratio and strings parse as fractions ("2/3", "0.7").
    A boolean or any other non-number, a string ``Fraction`` rejects
    included ("nan", "1/0"), is a ValueError naming the value."""
    if type(t) is Fraction:
        frac = t
    elif isinstance(t, (bool, np.bool_)):  # the rule of core.check_groups
        raise ValueError(f"tolerance {t!r} is a boolean, not a number")
    elif isinstance(t, (float, np.floating)):
        if not math.isfinite(t):
            raise ValueError(f"tolerance {t} outside (0, 1]")
        frac = Fraction(float(t)).limit_denominator(10 ** 6)
    else:
        try:
            frac = Fraction(t)
        except (TypeError, ValueError, ArithmeticError):  # "nan", "1/0"
            raise ValueError(f"tolerance {t!r} is not a number") from None
    if not 0 < frac.numerator <= frac.denominator:  # (0, 1], in integers
        raise ValueError(f"tolerance {t} outside (0, 1]")
    return frac


def _ceil_frac(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def required_correct(group_size: int, t: Fraction) -> int:
    return _ceil_frac(t * group_size)


def max_false(group_size: int, t: Fraction) -> int:
    return _ceil_frac((1 - t) * group_size)


@lru_cache(maxsize=4096)
def _thresholds(group_size: int, num: int, den: int) -> tuple[int, int]:
    """(required_correct, max_false) of a true group's size at T = num/den,
    keyed by integers because hashing a Fraction is slow."""
    t = Fraction(num, den)
    return required_correct(group_size, t), max_false(group_size, t)


def _match_order(blocks):
    return sorted((tuple(sorted(b)) for b in blocks), key=lambda b: (-len(b), b[0]))


def match_scene(pred_groups, gt_groups, t) -> tuple[int, int, int]:
    """Greedy one-to-one matching of one scene's groups: (tp, fp, fn).

    Inputs may include singleton blocks or omit them; only blocks of 2+
    people are scored.  Each side must pass ``core.check_groups``, so no
    block repeats a member and a block's size is its set's size; the
    predicted side is checked first.  ``match_counts`` of one partition.
    """
    return match_counts([pred_groups], gt_groups, t)[0]


def match_counts(pred_partitions, gt_groups, t) -> list[tuple[int, int, int]]:
    """``match_scene``'s (tp, fp, fn) of each predicted partition against one
    scene's ground truth, which is checked and ordered once.

    Every predicted partition is checked before the ground truth, so the
    predicted side's error comes first, as in ``match_scene``.
    """
    t = snap_tolerance(t)
    pred_partitions = list(pred_partitions)
    for pred_groups in pred_partitions:
        check_groups(pred_groups, what="predicted")
    check_groups(gt_groups, what="ground-truth")
    gt = [(_thresholds(len(g), t.numerator, t.denominator), set(g))
          for g in _match_order(b for b in gt_groups if len(b) >= 2)]

    counts = []
    for pred_groups in pred_partitions:
        pred = [set(b) for b in _match_order(b for b in pred_groups if len(b) >= 2)]
        claimed = [False] * len(pred)
        tp = 0
        for (need, allow), g in gt:
            for i, p in enumerate(pred):
                if claimed[i]:
                    continue
                correct = len(p & g)
                if correct >= need and len(p) - correct <= allow:
                    claimed[i] = True
                    tp += 1
                    break
        counts.append((tp, len(pred) - tp, len(gt) - tp))
    return counts


def aggregate(counts, t) -> GroupMetrics:
    """Micro-average per-scene (tp, fp, fn) counts into one metrics row."""
    t = snap_tolerance(t)
    tp = sum(c[0] for c in counts)
    fp = sum(c[1] for c in counts)
    fn = sum(c[2] for c in counts)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return GroupMetrics(tp=tp, fp=fp, fn=fn, precision=precision,
                        recall=recall, f1=f1, tolerance=t)


def format_tolerance(t: Fraction) -> str:
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"
