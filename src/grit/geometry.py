"""Planar polyline helpers used by the lane graph and the feature extractor.

All angles are radians. Headings live on (-pi, pi]; signed angle differences
used for the angle-in-lane feature live on [-pi, pi).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

TAU = 2.0 * math.pi


def wrap_heading(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(angle, TAU)
    if w <= -math.pi:
        w += TAU
    return w


def wrap_signed(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    w = math.remainder(angle, TAU)
    if w >= math.pi:
        w -= TAU
    return w


class Polyline:
    """Immutable 2-D polyline with cached arclength tables.

    Points are an (n, 2) float array, n >= 2, consecutive points distinct.
    """

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least two 2-D points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline contains non-finite coordinates")
        # project() divides by the squared segment lengths: an underflow to 0
        # or an overflow to inf would turn its results into NaN
        with np.errstate(over="ignore"):
            seg = np.diff(pts, axis=0)
            seg_len = np.hypot(seg[:, 0], seg[:, 1])
            seg_len_sq = seg_len * seg_len
        if np.any(seg_len_sq <= 0.0):
            raise ValueError("polyline has zero-length segment")
        if not np.all(np.isfinite(seg_len_sq)):
            raise ValueError("polyline segment too long: squared length overflows")
        self.points = pts
        self._seg = seg
        self._seg_len = seg_len
        self._seg_len_sq = seg_len_sq
        self.cum_length = np.concatenate(([0.0], np.cumsum(seg_len)))
        self.length = float(self.cum_length[-1])
        self._tangents = [math.atan2(dy, dx) for dx, dy in seg.tolist()]

    def project(self, x: float, y: float) -> Tuple[float, float]:
        """Nearest point on the polyline.

        Returns (arclength of the nearest point, distance to it). Ties between
        segments resolve to the smallest arclength.
        """
        p = np.array([x, y])
        rel = p - self.points[:-1]
        t = np.clip((rel * self._seg).sum(axis=1) / self._seg_len_sq, 0.0, 1.0)
        closest = self.points[:-1] + t[:, None] * self._seg
        d = np.hypot(closest[:, 0] - x, closest[:, 1] - y)
        i = int(np.argmin(d))
        s = float(self.cum_length[i] + t[i] * self._seg_len[i])
        return s, float(d[i])

    def point_at(self, s: float) -> Tuple[float, float]:
        """Point at arclength s, clamped to [0, length]."""
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cum_length, s, side="right")) - 1
        i = min(max(i, 0), len(self._seg) - 1)
        f = (s - self.cum_length[i]) / self._seg_len[i]
        p = self.points[i] + f * self._seg[i]
        return float(p[0]), float(p[1])

    def tangent_at(self, s: float) -> float:
        """Heading of the segment containing arclength s.

        Exact segment boundaries belong to the earlier segment, matching the
        tie rule used by :meth:`project`.
        """
        s = min(max(s, 0.0), self.length)
        i = int(self.cum_length.searchsorted(s, side="left")) - 1
        return self._tangents[min(max(i, 0), len(self._tangents) - 1)]

    def _clamp(self, s: np.ndarray) -> np.ndarray:
        # min(max(s, 0.0), length) elementwise, keeping the builtins' pick
        # of the first argument on ties (so -0.0 stays -0.0)
        s = np.asarray(s, dtype=float)
        s = np.where(0.0 > s, 0.0, s)
        return np.where(self.length < s, self.length, s)

    def points_at(self, s: Sequence[float]) -> np.ndarray:
        """:meth:`point_at` of every arclength in s, as an (n, 2) array.

        Same clamp, segment search and expressions, so every value is
        bit-equal to the per-value call.
        """
        s = self._clamp(s)
        i = np.searchsorted(self.cum_length, s, side="right") - 1
        i = i.clip(0, len(self._seg) - 1)
        f = (s - self.cum_length[i]) / self._seg_len[i]
        return self.points[i] + f[:, None] * self._seg[i]

    def tangents_at(self, s: Sequence[float]) -> np.ndarray:
        """:meth:`tangent_at` of every arclength in s, bit-equal to it."""
        i = self.cum_length.searchsorted(self._clamp(s), side="left") - 1
        return np.array(self._tangents)[i.clip(0, len(self._tangents) - 1)]

    def segment_headings(self) -> np.ndarray:
        return np.arctan2(self._seg[:, 1], self._seg[:, 0])


class PolylineSet:
    """Segment tables of several polylines stacked for one-pass projection."""

    def __init__(self, polylines: Sequence[Polyline]):
        self._start = np.concatenate([p.points[:-1] for p in polylines])
        self._seg = np.concatenate([p._seg for p in polylines])
        self._seg_len = np.concatenate([p._seg_len for p in polylines])
        self._seg_len_sq = np.concatenate([p._seg_len_sq for p in polylines])
        self._seg_s = np.concatenate([p.cum_length[:-1] for p in polylines])
        counts = [len(p._seg) for p in polylines]
        self._first = np.cumsum([0] + counts[:-1])
        self._owner = np.repeat(np.arange(len(counts)), counts)

    def project(self, x: float, y: float) -> Tuple[List[float], List[float]]:
        """:meth:`Polyline.project` of (x, y) onto every polyline, in order.

        Returns (arclengths, distances). The elementwise expressions are
        those of :meth:`Polyline.project`, and each polyline's pick is the
        first segment reaching its minimum (the first NaN if any), as
        ``np.argmin`` picks, so every value is bit-equal to the per-polyline
        call.
        """
        p = np.array([x, y])
        rel = p - self._start
        t = ((rel * self._seg).sum(axis=1) / self._seg_len_sq).clip(0.0, 1.0)
        closest = self._start + t[:, None] * self._seg
        d = np.hypot(closest[:, 0] - x, closest[:, 1] - y)
        d_min = np.minimum.reduceat(d, self._first)
        hits = ((d == d_min[self._owner]) | np.isnan(d)).nonzero()[0]
        i = hits[hits.searchsorted(self._first)]
        s = self._seg_s[i] + t[i] * self._seg_len[i]
        return s.tolist(), d[i].tolist()


def cumulative_heading_change(
    start_heading: float, headings: Sequence[float]
) -> float:
    """Total signed heading change from start_heading through the samples.

    Each successive increment is wrapped to (-pi, pi] before accumulation, so
    the total may exceed a full turn; callers wrap the result as needed.
    """
    total = 0.0
    prev = start_heading
    for h in headings:
        total += wrap_heading(h - prev)
        prev = h
    return total


def segment_intersection(
    p1: Sequence[float], p2: Sequence[float], q1: Sequence[float], q2: Sequence[float]
) -> Tuple[float, float] | None:
    """Parametric intersection of segments p1p2 and q1q2.

    Returns (t, u) with both in [0, 1] when the segments cross, else None.
    Parallel segments count as non-crossing.
    """
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    denom = rx * sy - ry * sx
    if abs(denom) < 1e-12:
        return None
    qpx, qpy = q1[0] - p1[0], q1[1] - p1[1]
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if -1e-9 <= t <= 1.0 + 1e-9 and -1e-9 <= u <= 1.0 + 1e-9:
        return min(max(t, 0.0), 1.0), min(max(u, 0.0), 1.0)
    return None


def polyline_crossing(a: Polyline, b: Polyline) -> Tuple[float, float] | None:
    """Arclengths (s_a, s_b) where two polylines cross.

    The first crossing along a is returned. When the polylines do not cross,
    the pair of mutually closest vertices is returned instead if they come
    within 2 m, else None.
    """
    for i in range(len(a.points) - 1):
        for j in range(len(b.points) - 1):
            hit = segment_intersection(
                a.points[i], a.points[i + 1], b.points[j], b.points[j + 1]
            )
            if hit is not None:
                t, u = hit
                s_a = float(a.cum_length[i] + t * a._seg_len[i])
                s_b = float(b.cum_length[j] + u * b._seg_len[j])
                return s_a, s_b
    # fall back to closest approach between vertex sets
    d = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    i, j = np.unravel_index(int(np.argmin(d)), d.shape)
    if d[i, j] <= 2.0:
        return float(a.cum_length[i]), float(b.cum_length[j])
    return None
