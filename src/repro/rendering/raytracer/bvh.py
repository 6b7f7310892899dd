"""Bounding volume hierarchies for the ray tracer.

Two builders are provided, mirroring the study's configurations:

* **LBVH** (``method="lbvh"``) -- primitives are sorted along a Morton curve
  of their centroids and every range of the sorted codes splits where the
  highest differing bit of its first and last code flips (Karras 2012: the
  plane of the Z-order cell; ranges of equal codes split at their midpoint).
  A node's split depends only on its own range, so the tree is built level
  by level with array operations -- all ranges of a level split at once --
  rather than node by node (:func:`_build_lbvh`).  This is the linear-BVH
  family used by the paper's VTK-m ray tracer, whose build time is O(n); the
  Eq. 5.1 term ``c0 * O`` models exactly this build.
* **SAH** (``method="sah"``) -- a binned surface-area-heuristic top-down
  build producing higher-quality trees at higher build cost: a split needs
  the partition its parent made, so it stays recursive (:class:`_Builder`).
  The specialised-ray-tracer baselines (Embree / OptiX proxies, Tables 3 and
  4) use this builder.

The tree is stored flat in structure-of-arrays form so traversal can run
vectorized over large ray batches: per node we keep the AABB corners, the
two child indices (internal nodes) or the primitive range (leaves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.triangles import TriangleMesh
from repro.util.morton import morton_codes_points

__all__ = ["BVH", "build_bvh"]

#: Leaf size used by the study's EAVL ray tracer ("maximum leaf size of eight
#: triangles"); the default here is smaller because the reproduction's scenes
#: are smaller.
DEFAULT_LEAF_SIZE = 4


@dataclass
class BVH:
    """Flat bounding volume hierarchy.

    Attributes
    ----------
    node_low, node_high:
        ``(num_nodes, 3)`` AABB corners per node.
    left_child, right_child:
        Child node indices; ``-1`` for leaves.
    first_primitive, primitive_count:
        Leaf primitive range into :attr:`primitive_order`; count is zero for
        internal nodes.
    primitive_order:
        Permutation of the original primitive ids so each leaf's primitives
        are contiguous.
    """

    node_low: np.ndarray
    node_high: np.ndarray
    left_child: np.ndarray
    right_child: np.ndarray
    first_primitive: np.ndarray
    primitive_count: np.ndarray
    primitive_order: np.ndarray
    leaf_size: int
    method: str
    _triangle_soa: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _node_boxes: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _max_depth: int | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.left_child)

    @property
    def num_primitives(self) -> int:
        return len(self.primitive_order)

    def is_leaf(self, node: int | np.ndarray) -> np.ndarray:
        """True where the node index refers to a leaf."""
        return self.primitive_count[node] > 0

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0).

        The level-synchronous LBVH build records it; any other tree is walked
        once and the result cached.
        """
        if self._max_depth is None:
            if self.num_nodes == 0:
                self._max_depth = 0
            else:
                deepest = 0
                stack = [(0, 0)]
                while stack:
                    node, depth = stack.pop()
                    deepest = max(deepest, depth)
                    if self.primitive_count[node] == 0:
                        stack.append((int(self.left_child[node]), depth + 1))
                        stack.append((int(self.right_child[node]), depth + 1))
                self._max_depth = deepest
        return self._max_depth

    def triangle_soa(self, mesh: TriangleMesh) -> tuple[np.ndarray, ...]:
        """Cached per-component triangle corner/edge SoA for the traversal kernel.

        Returns nine flat arrays ``(v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y,
        e2z)``.  The seed kernel re-expanded ``mesh.corners()`` and re-derived
        the Moller-Trumbore edge vectors on every ``closest_hit``/``any_hit``
        call; the frontier engine instead computes them once per BVH and
        reuses them across queries.  The cache is tied to the identity of the
        mesh's corner expansion, so passing a different mesh -- or mutating
        the mesh in place and calling
        :meth:`~repro.geometry.triangles.TriangleMesh.invalidate_caches` --
        recomputes rather than serving stale geometry.
        """
        corners = mesh.corners()
        if self._triangle_soa is None or self._triangle_soa[0] is not corners:
            v0 = corners[:, 0]
            edge1 = corners[:, 1] - corners[:, 0]
            edge2 = corners[:, 2] - corners[:, 0]
            soa = tuple(
                np.ascontiguousarray(vectors[:, axis])
                for vectors in (v0, edge1, edge2)
                for axis in range(3)
            )
            self._triangle_soa = (corners, soa)
        return self._triangle_soa[1]

    def node_boxes(self) -> tuple[np.ndarray, ...]:
        """Cached per-component node AABB corners: six flat arrays ``(lx, ly, lz, hx, hy, hz)``."""
        if self._node_boxes is None:
            self._node_boxes = tuple(
                np.ascontiguousarray(corner[:, axis])
                for corner in (self.node_low, self.node_high)
                for axis in range(3)
            )
        return self._node_boxes

    def validate(self, mesh: TriangleMesh, tolerance: float = 1e-9) -> bool:
        """Check containment invariants: every node box bounds its subtree.

        Used by the property-based tests; returns True when valid and raises
        ``AssertionError`` with a description otherwise.
        """
        lows, highs = mesh.triangle_bounds()
        stack = [0]
        seen = np.zeros(self.num_primitives, dtype=bool)
        while stack:
            node = stack.pop()
            count = int(self.primitive_count[node])
            if count > 0:
                first = int(self.first_primitive[node])
                prims = self.primitive_order[first : first + count]
                assert not np.any(seen[prims]), "primitive assigned to two leaves"
                seen[prims] = True
                assert np.all(lows[prims] >= self.node_low[node] - tolerance), "leaf box too small"
                assert np.all(highs[prims] <= self.node_high[node] + tolerance), "leaf box too small"
            else:
                left, right = int(self.left_child[node]), int(self.right_child[node])
                for child in (left, right):
                    assert np.all(self.node_low[child] >= self.node_low[node] - tolerance)
                    assert np.all(self.node_high[child] <= self.node_high[node] + tolerance)
                stack.extend((left, right))
        assert np.all(seen), "some primitives missing from the hierarchy"
        return True


class _Builder:
    """Top-down build over an arbitrary split function (the SAH builder's driver)."""

    def __init__(self, lows: np.ndarray, highs: np.ndarray, centroids: np.ndarray, leaf_size: int):
        self.lows = lows
        self.highs = highs
        self.centroids = centroids
        self.leaf_size = leaf_size
        self.node_low: list[np.ndarray] = []
        self.node_high: list[np.ndarray] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.first: list[int] = []
        self.count: list[int] = []

    def _new_node(self, low: np.ndarray, high: np.ndarray) -> int:
        self.node_low.append(low)
        self.node_high.append(high)
        self.left.append(-1)
        self.right.append(-1)
        self.first.append(0)
        self.count.append(0)
        return len(self.left) - 1

    def build(self, order: np.ndarray, split) -> np.ndarray:
        """Iteratively build the tree over ``order`` (a primitive permutation).

        ``split`` is a callable mapping a contiguous range of ``order`` to a
        split position (index within the range) or ``None`` to force a leaf.
        Returns the final primitive order (ranges may be permuted in place by
        the split function).
        """
        order = order.copy()
        # Work stack of (start, end, node_index); node boxes are finalized on pop.
        root = self._new_node(np.zeros(3), np.zeros(3))
        stack = [(0, len(order), root)]
        while stack:
            start, end, node = stack.pop()
            prims = order[start:end]
            low = self.lows[prims].min(axis=0)
            high = self.highs[prims].max(axis=0)
            self.node_low[node] = low
            self.node_high[node] = high
            span = end - start
            position = None if span <= self.leaf_size else split(order, start, end)
            if position is None or position <= start or position >= end:
                self.first[node] = start
                self.count[node] = span
                continue
            left_node = self._new_node(low, high)
            right_node = self._new_node(low, high)
            self.left[node] = left_node
            self.right[node] = right_node
            stack.append((start, position, left_node))
            stack.append((position, end, right_node))
        return order

    def finish(self, order: np.ndarray, leaf_size: int, method: str) -> BVH:
        return BVH(
            node_low=np.asarray(self.node_low),
            node_high=np.asarray(self.node_high),
            left_child=np.asarray(self.left, dtype=np.int64),
            right_child=np.asarray(self.right, dtype=np.int64),
            first_primitive=np.asarray(self.first, dtype=np.int64),
            primitive_count=np.asarray(self.count, dtype=np.int64),
            primitive_order=order.astype(np.int64),
            leaf_size=leaf_size,
            method=method,
        )


def _make_sah_split(lows: np.ndarray, highs: np.ndarray, centroids: np.ndarray, num_bins: int = 8):
    """Binned SAH split closure over the primitive geometry arrays."""

    def split(order: np.ndarray, start: int, end: int) -> int | None:
        prims = order[start:end]
        cents = centroids[prims]
        best_cost = np.inf
        best_axis = -1
        best_threshold = 0.0
        extent_low = cents.min(axis=0)
        extent_high = cents.max(axis=0)
        for axis in range(3):
            axis_min, axis_max = extent_low[axis], extent_high[axis]
            if axis_max - axis_min < 1e-12:
                continue
            edges = np.linspace(axis_min, axis_max, num_bins + 1)[1:-1]
            for threshold in edges:
                mask = cents[:, axis] <= threshold
                n_left = int(mask.sum())
                n_right = len(prims) - n_left
                if n_left == 0 or n_right == 0:
                    continue
                left_area = _surface_area(lows[prims[mask]], highs[prims[mask]])
                right_area = _surface_area(lows[prims[~mask]], highs[prims[~mask]])
                cost = left_area * n_left + right_area * n_right
                if cost < best_cost:
                    best_cost, best_axis, best_threshold = cost, axis, threshold
        if best_axis < 0:
            # Degenerate spread: fall back to a median split in the widest axis.
            axis = int(np.argmax(extent_high - extent_low))
            local = np.argsort(cents[:, axis], kind="stable")
            order[start:end] = prims[local]
            return (start + end) // 2
        mask = cents[:, best_axis] <= best_threshold
        # Partition the range: left primitives first (stable).
        order[start:end] = np.concatenate([prims[mask], prims[~mask]])
        return start + int(mask.sum())

    return split


def _surface_area(lows: np.ndarray, highs: np.ndarray) -> float:
    """Surface area of the union box of the given primitive boxes."""
    extent = np.maximum(highs.max(axis=0) - lows.min(axis=0), 0.0)
    dx, dy, dz = extent
    return float(2.0 * (dx * dy + dy * dz + dz * dx))


def _build_lbvh(
    lows: np.ndarray, highs: np.ndarray, centroids: np.ndarray, leaf_size: int
) -> BVH:
    """Level-synchronous LBVH: every range of a level splits in one pass.

    Nodes are numbered level by level (root 0, a split node's children
    adjacent, left first).  A range of more than ``leaf_size`` sorted codes
    splits at the first code that has the highest differing bit of the
    range's first and last code set; all codes left of the range are smaller
    than that threshold and all codes right of it are not, so one global
    ``searchsorted`` answers every range of the level.  Ranges whose codes
    are all equal split at their midpoint.  Leaves partition the sorted
    order, so one ``reduceat`` yields their boxes; internal boxes are the
    union of their children's, level by level from the bottom.
    """
    codes = morton_codes_points(centroids)
    order = np.argsort(codes, kind="stable")
    codes = codes[order].astype(np.int64)

    starts = np.zeros(1, dtype=np.int64)
    ends = np.full(1, len(order), dtype=np.int64)
    level_starts, level_ends, level_left = [], [], []
    num_nodes = 0
    while True:
        num_nodes += len(starts)
        first, last = codes[starts], codes[ends - 1]
        differing = first ^ last
        # Codes are 30-bit, so the float exponent is the exact bit length.
        top_bit = np.maximum(np.frexp(differing.astype(np.float64))[1] - 1, 0)
        position = np.where(
            differing == 0,
            (starts + ends) // 2,
            np.searchsorted(codes, ((first >> top_bit) | 1) << top_bit),
        )
        inner = np.flatnonzero(ends - starts > leaf_size)
        left = np.full(len(starts), -1, dtype=np.int64)
        left[inner] = num_nodes + 2 * np.arange(len(inner), dtype=np.int64)
        level_starts.append(starts)
        level_ends.append(ends)
        level_left.append(left)
        if len(inner) == 0:
            break
        starts = np.column_stack([starts[inner], position[inner]]).ravel()
        ends = np.column_stack([position[inner], ends[inner]]).ravel()

    starts = np.concatenate(level_starts)
    left_child = np.concatenate(level_left)
    is_leaf = left_child < 0
    node_low = np.empty((num_nodes, 3))
    node_high = np.empty((num_nodes, 3))
    leaves = np.flatnonzero(is_leaf)
    leaves = leaves[np.argsort(starts[leaves])]
    node_low[leaves] = np.minimum.reduceat(lows[order], starts[leaves], axis=0)
    node_high[leaves] = np.maximum.reduceat(highs[order], starts[leaves], axis=0)
    level_first = num_nodes
    for left in reversed(level_left):
        level_first -= len(left)
        inner = np.flatnonzero(left >= 0)
        children = left[inner]
        node_low[level_first + inner] = np.minimum(node_low[children], node_low[children + 1])
        node_high[level_first + inner] = np.maximum(node_high[children], node_high[children + 1])

    bvh = BVH(
        node_low=node_low,
        node_high=node_high,
        left_child=left_child,
        right_child=np.where(is_leaf, -1, left_child + 1),
        first_primitive=np.where(is_leaf, starts, 0),
        primitive_count=np.where(is_leaf, np.concatenate(level_ends) - starts, 0),
        primitive_order=order.astype(np.int64),
        leaf_size=leaf_size,
        method="lbvh",
    )
    bvh._max_depth = len(level_left) - 1
    return bvh


def build_bvh(
    mesh: TriangleMesh,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    method: str = "lbvh",
) -> BVH:
    """Build a BVH over a triangle mesh.

    Parameters
    ----------
    mesh:
        Triangle geometry; must contain at least one triangle.
    leaf_size:
        Maximum primitives per leaf.
    method:
        ``"lbvh"`` (Morton-sorted Karras splits, linear-time flavour) or
        ``"sah"`` (binned surface-area heuristic, higher quality).

    Returns
    -------
    BVH
    """
    if mesh.num_triangles == 0:
        raise ValueError("cannot build a BVH over an empty mesh")
    if leaf_size < 1:
        raise ValueError("leaf_size must be at least 1")
    lows, highs = mesh.triangle_bounds()
    centroids = mesh.centroids()
    if method == "lbvh":
        return _build_lbvh(lows, highs, centroids, leaf_size)
    if method == "sah":
        builder = _Builder(lows, highs, centroids, leaf_size)
        order = np.arange(mesh.num_triangles, dtype=np.int64)
        order = builder.build(order, _make_sah_split(lows, highs, centroids))
        return builder.finish(order, leaf_size, method)
    raise ValueError(f"unknown BVH build method {method!r}")
