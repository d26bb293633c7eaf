"""Collision (Renyi-2) entropy toolkit for small discrete joints.

A joint distribution is a dense probability table over named variables.
All quantities are computed exactly in float64:

    H_c(X)     = -log2 sum_x p(x)^2
    H_c(X|Y)   = -log2 sum_{x,y} p(x,y) p(x|y)
    I_c(X:Y)   = H_c(X) - H_c(X|Y)
    I_c(X:Y|Z) = H_c(X|Z) - H_c(X|YZ)

Conventions: variable groups may be a single name or a sequence of names;
zero-mass conditioning slices contribute nothing (0 * anything = 0); logs
are base 2 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .errors import ResourceLimitError, _check_int

__all__ = [
    "JointDistribution",
    "collision_entropy",
    "conditional_collision_entropy",
    "collision_mi",
    "conditional_collision_mi",
    "avg_conditional_min_entropy",
]

_MASS_TOL = 1e-9
# cells a table read from a file may span, checked before it is allocated
_MAX_FILE_CELLS = 1 << 24


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Dense joint over named finite variables.

    ``table`` has one axis per name, entries nonnegative and summing to 1
    within tolerance (the constructor renormalizes the residual rounding).
    Joints compare and hash by identity, as an ndarray field cannot.
    """

    names: tuple[str, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = tuple(self.names)
        table = np.asarray(self.table, dtype=float)
        if len(names) != table.ndim:
            raise ValueError(f"{len(names)} names for a {table.ndim}-axis table")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if table.size == 0:
            raise ValueError("empty table")
        if not np.all(np.isfinite(table)):
            raise ValueError("non-finite probability entry")
        if np.any(table < -1e-12):
            raise ValueError("negative probability entry")
        mass = float(table.sum())
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(f"probabilities sum to {mass}, not 1")
        table = np.clip(table, 0.0, None) / mass
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)

    # -- structure helpers -------------------------------------------------

    def axes_of(self, group) -> tuple[int, ...]:
        names = _norm_group(group)
        missing = [n for n in names if n not in self.names]
        if missing:
            raise ValueError(f"unknown variable(s) {missing}; have {self.names}")
        return tuple(self.names.index(n) for n in names)

    def sizes_of(self, group) -> tuple[int, ...]:
        return tuple(self.table.shape[a] for a in self.axes_of(group))

    def grouped(self, *groups) -> np.ndarray:
        """The joint of the groups as a table with one flat axis per group,
        in order, renormalized as the constructor renormalizes a table:
        summed over the other axes, put in group order, clipped at 0 and
        divided by its own sum.  No intermediate distribution is built."""
        groups = [_norm_group(g) for g in groups]
        axes = self.axes_of([name for g in groups for name in g])
        drop = tuple(i for i in range(self.table.ndim) if i not in axes)
        summed = self.table.sum(axis=drop) if drop else self.table
        order = sorted(axes)
        marg = np.transpose(summed, [order.index(a) for a in axes])
        marg = np.clip(marg, 0.0, None) / float(marg.sum())
        return marg.reshape([math.prod(self.sizes_of(g)) for g in groups])

    # -- reading files ------------------------------------------------------

    @classmethod
    def from_csv(cls, text: str) -> "JointDistribution":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError("distribution CSV needs a header and at least one row")
        header = [h.strip() for h in lines[0].split(",")]
        if header[-1] != "prob":
            raise ValueError("last CSV column must be 'prob'")
        names, width = tuple(header[:-1]), len(header)
        rows = {}
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != width:
                raise ValueError(f"row has {len(cells)} cells, expected {width}")
            idx = tuple(map(int, cells[:-1]))
            if "-" in ln and min(idx, default=0) < 0:   # a negative int is written with "-"
                raise ValueError(f"negative index in row {ln!r}")
            if idx in rows:
                raise ValueError(f"duplicate row for index {idx}")
            rows[idx] = float(cells[-1])
        shape = [max(col) + 1 for col in zip(*rows)]
        if math.prod(shape) > _MAX_FILE_CELLS:
            raise ResourceLimitError(f"a {shape} table exceeds the limit of "
                                     f"{_MAX_FILE_CELLS} cells")
        table = np.zeros(shape)
        for idx, prob in rows.items():
            table[idx] = prob
        return cls(names, table)

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        try:
            obj = json.loads(text)
            names = tuple(v["name"] for v in obj["variables"])
            shape = tuple(_check_int("size", v["size"]) for v in obj["variables"])
            if min(shape, default=1) < 1:         # reshape would infer a -1 size
                raise ValueError(f"sizes must be positive, got {list(shape)}")
            table = np.asarray(obj["table"], dtype=float).reshape(shape)
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed distribution description: {exc}") from exc
        return cls(names, table)


# -- entropies ------------------------------------------------------------


def _norm_group(group) -> tuple:
    return (group,) if isinstance(group, str) else tuple(group)


def collision_entropy(d: JointDistribution, target) -> float:
    p = d.grouped(target).ravel()
    return -math.log2(float(np.dot(p, p)))


def conditional_collision_entropy(d: JointDistribution, target, given) -> float:
    """H_c(target | given); an unconditional figure is collision_entropy."""
    joint = d.grouped(target, given)  # (T, G)
    pg = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pg > 0.0, (joint * joint) / pg, 0.0)
    return -math.log2(float(ratio.sum()))


def collision_mi(d: JointDistribution, x, y) -> float:
    return collision_entropy(d, x) - conditional_collision_entropy(d, x, y)


def conditional_collision_mi(d: JointDistribution, x, y, z) -> float:
    """I_c(x : y | z); an unconditional figure is collision_mi."""
    return conditional_collision_entropy(d, x, z) - conditional_collision_entropy(
        d, x, _norm_group(y) + _norm_group(z)
    )


def avg_conditional_min_entropy(d: JointDistribution, target, given) -> float:
    """-log2 E_g[max_t p(t|g)], the average-case conditional min-entropy."""
    joint = d.grouped(target, given)
    return -math.log2(float(joint.max(axis=0).sum()))
