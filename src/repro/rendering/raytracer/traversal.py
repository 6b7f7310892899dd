"""Vectorized ray-AABB tests, ray-triangle intersection, and BVH traversal.

Traversal follows the spirit of the "if-if" algorithm of Aila and Laine that
the paper's ray tracer adapts, executed as a kernel on the shared
**compacted-frontier engine** (:mod:`repro.dpp.frontier`):

* All mutable ray state -- origins, directions, reciprocal directions,
  per-ray traversal stacks, and best-hit records -- is gathered once into a
  contiguous structure-of-arrays frontier (:class:`repro.dpp.FrontierLanes`,
  one flat array per vector component).  The SIMT loop runs entirely on the
  frontier, so every vectorized step touches only resident rays instead of
  fancy-indexing full-width ray arrays.
* Traversal is **ordered**: popping an internal node tests both child boxes
  componentwise, computes their entry distances, and pushes the far child
  below the near child; pushes -- and pops, via the entry distance carried on
  the stack -- whose entry already exceeds the ray's closest hit are culled.
  Leaf children are intersected immediately at discovery instead of being
  pushed, so the stack holds internal nodes only and the loop advances one
  *internal* node per ray per iteration.
* Leaf intersection is **batched**: every ``(ray, triangle)`` candidate pair
  of an iteration is expanded with ``np.repeat`` + segment-local indices (the
  same idiom as the volume renderer's ``pair_chunk`` sampler) and tested in a
  single Moller-Trumbore evaluation; each ray's winner is selected with the
  device-routed :func:`repro.dpp.primitives.segmented_argmin`.
* Retirement, the periodic **re-compaction** of the frontier, and the
  scatter of retiring rays' results back to full-width output arrays belong
  to :class:`repro.dpp.FrontierEngine` -- the kernel only reports which lanes
  emptied their stacks.  The engine routes that traffic through
  :mod:`repro.dpp.primitives`, so the data-parallel instrumentation choke
  point (:class:`repro.dpp.instrument.OpCounters`) observes the traversal
  work just as it observes every other pipeline stage.

Two query types are provided:

* :func:`closest_hit` -- nearest intersection per ray (primary rays, shading).
* :func:`any_hit` -- boolean occlusion within a distance (shadows, ambient
  occlusion).

Both keep the mutable ray state in ``float64`` and select hits identically
to :func:`brute_force_closest_hit` (both run the same componentwise
Moller-Trumbore kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dpp.frontier import FrontierEngine, FrontierLanes
from repro.dpp.primitives import segmented_argmin
from repro.geometry.aabb import safe_reciprocal
from repro.geometry.triangles import TriangleMesh
from repro.rendering.raytracer.bvh import BVH

__all__ = [
    "HitRecord",
    "closest_hit",
    "any_hit",
    "ray_aabb_intersect",
    "moller_trumbore",
    "FRONTIER_POP_SCHEDULE",
]

#: Numerical epsilon used by the intersector to reject grazing hits.
EPSILON = 1e-9


@dataclass
class HitRecord:
    """Per-ray nearest-hit results.

    Attributes
    ----------
    triangle:
        Index of the hit triangle, or ``-1`` for a miss.
    t:
        Ray parameter of the hit (``inf`` for misses).
    u, v:
        Barycentric coordinates of the hit point within the triangle.
    nodes_visited:
        Number of BVH nodes processed per ray (internal pops plus leaves
        intersected) -- the observable behind the ``log2(O)``
        traversal-depth term of the ray-tracing model.
    """

    triangle: np.ndarray
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    nodes_visited: np.ndarray

    @property
    def hit_mask(self) -> np.ndarray:
        """Boolean mask of rays that hit something."""
        return self.triangle >= 0


def ray_aabb_intersect(
    origins: np.ndarray,
    inv_directions: np.ndarray,
    box_low: np.ndarray,
    box_high: np.ndarray,
    t_min: np.ndarray,
    t_max: np.ndarray,
) -> np.ndarray:
    """Slab test of rays against per-ray boxes.

    All inputs are broadcast against each other; returns a boolean mask of
    rays whose parametric interval intersects the box within ``[t_min, t_max]``.
    """
    origins = np.asarray(origins)
    inv_directions = np.asarray(inv_directions)
    box_low = np.asarray(box_low)
    box_high = np.asarray(box_high)
    hit, _ = _slab_entry(
        origins[..., 0], origins[..., 1], origins[..., 2],
        inv_directions[..., 0], inv_directions[..., 1], inv_directions[..., 2],
        box_low[..., 0], box_low[..., 1], box_low[..., 2],
        box_high[..., 0], box_high[..., 1], box_high[..., 2],
        t_min, t_max,
    )
    return hit


def _slab_entry(ox, oy, oz, ix, iy, iz, lx, ly, lz, hx, hy, hz, t_min, t_max):
    """Componentwise slab test returning ``(hit, entry)``.

    ``entry`` is the clamped parametric distance at which the ray enters the
    box.  Any triangle contained in the box is hit at ``t >= entry``, so the
    entry distance both orders near-first traversal and soundly culls
    subtrees beyond the current closest hit.  Operating on flat component
    arrays avoids axis reductions and strided temporaries in the hot loop.
    """
    with np.errstate(over="ignore"):
        t0 = (lx - ox) * ix
        t1 = (hx - ox) * ix
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1)
        t0 = (ly - oy) * iy
        t1 = (hy - oy) * iy
        near = np.maximum(near, np.minimum(t0, t1))
        far = np.minimum(far, np.maximum(t0, t1))
        t0 = (lz - oz) * iz
        t1 = (hz - oz) * iz
        near = np.maximum(near, np.minimum(t0, t1))
        far = np.minimum(far, np.maximum(t0, t1))
    hit = (near <= far) & (far >= t_min) & (near <= t_max)
    return hit, np.maximum(near, t_min)


def moller_trumbore(
    origins: np.ndarray,
    directions: np.ndarray,
    v0: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    t_min: float | np.ndarray = EPSILON,
    t_max: float | np.ndarray = np.inf,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise Moller-Trumbore intersection of rays against triangles.

    ``origins``/``directions`` and the triangle corners must broadcast to a
    common leading shape.  Returns ``(hit, t, u, v)`` where ``hit`` is a
    boolean mask and ``t`` is ``inf`` where there is no hit.
    """
    origins = np.asarray(origins)
    directions = np.asarray(directions)
    v0 = np.asarray(v0)
    edge1 = np.asarray(v1) - v0
    edge2 = np.asarray(v2) - v0
    return _moller_components(
        origins[..., 0], origins[..., 1], origins[..., 2],
        directions[..., 0], directions[..., 1], directions[..., 2],
        v0[..., 0], v0[..., 1], v0[..., 2],
        edge1[..., 0], edge1[..., 1], edge1[..., 2],
        edge2[..., 0], edge2[..., 1], edge2[..., 2],
        t_min, t_max,
    )


def _moller_components(
    ox, oy, oz, dx, dy, dz,
    v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z,
    t_min, t_max,
):
    """Componentwise Moller-Trumbore kernel shared by the frontier engine and
    the brute-force reference, so both select hits from identical arithmetic."""
    pvx = dy * e2z - dz * e2y
    pvy = dz * e2x - dx * e2z
    pvz = dx * e2y - dy * e2x
    determinant = e1x * pvx + e1y * pvy + e1z * pvz
    near_parallel = np.abs(determinant) < EPSILON
    inv_det = 1.0 / np.where(near_parallel, 1.0, determinant)
    tvx = ox - v0x
    tvy = oy - v0y
    tvz = oz - v0z
    u = (tvx * pvx + tvy * pvy + tvz * pvz) * inv_det
    qvx = tvy * e1z - tvz * e1y
    qvy = tvz * e1x - tvx * e1z
    qvz = tvx * e1y - tvy * e1x
    v = (dx * qvx + dy * qvy + dz * qvz) * inv_det
    t = (e2x * qvx + e2y * qvy + e2z * qvz) * inv_det
    hit = (
        ~near_parallel
        & (u >= -EPSILON)
        & (v >= -EPSILON)
        & (u + v <= 1.0 + EPSILON)
        & (t >= t_min)
        & (t <= t_max)
    )
    t = np.where(hit, t, np.inf)
    return hit, t, u, v


#: Pops per frontier lane per loop iteration, keyed by frontier width: wide
#: frontiers take one ordered stack op per lane (best culling), narrow
#: (tail) frontiers drain several stack levels at once so the per-iteration
#: Python overhead amortizes over the few long-running rays.
FRONTIER_POP_SCHEDULE = ((16384, 1), (4096, 2), (1024, 4), (0, 8))


def _pops_for_width(width: int) -> int:
    for threshold, pops in FRONTIER_POP_SCHEDULE:
        if width > threshold:
            return pops
    return FRONTIER_POP_SCHEDULE[-1][1]


def _frontier_lanes(origins, directions, limit_t, max_stack, t_min) -> FrontierLanes:
    """Build the traversal frontier: a contiguous SoA of all mutable ray state.

    Lane liveness is encoded entirely in ``stack_tops``: a lane with an empty
    stack is retired (any-hit occlusion simply empties the stack).  ``limit``
    caches ``min(best_t, limit_t)`` and is tightened in place as hits land.
    """
    n = len(origins)
    dx = np.ascontiguousarray(directions[:, 0], dtype=np.float64)
    dy = np.ascontiguousarray(directions[:, 1], dtype=np.float64)
    dz = np.ascontiguousarray(directions[:, 2], dtype=np.float64)
    stack_node = np.full((n, max_stack), -1, dtype=np.int32)
    stack_entry = np.zeros((n, max_stack))
    stack_node[:, 0] = 0
    stack_entry[:, 0] = t_min
    state = {
        "ox": np.ascontiguousarray(origins[:, 0], dtype=np.float64),
        "oy": np.ascontiguousarray(origins[:, 1], dtype=np.float64),
        "oz": np.ascontiguousarray(origins[:, 2], dtype=np.float64),
        "dx": dx,
        "dy": dy,
        "dz": dz,
        "ix": safe_reciprocal(dx),
        "iy": safe_reciprocal(dy),
        "iz": safe_reciprocal(dz),
        "best_t": np.full(n, np.inf),
        "limit_t": limit_t,
        "limit": limit_t.copy(),
        "best_triangle": np.full(n, -1, dtype=np.int64),
        "best_u": np.zeros(n),
        "best_v": np.zeros(n),
        "visits": np.zeros(n, dtype=np.int64),
        "stack_node": stack_node,
        "stack_entry": stack_entry,
        "stack_tops": np.ones(n, dtype=np.int32),
    }
    return FrontierLanes(np.arange(n, dtype=np.int64), state)


class _TraversalKernel:
    """Ordered BVH traversal as a :class:`repro.dpp.FrontierKernel`.

    One engine step pops (up to ``pops``) stack entries per lane, slab-tests
    both children of every surviving internal node, pushes internal children
    far-below-near, and batch-intersects every discovered leaf.  Lanes retire
    when their stack empties.
    """

    output_fields = ("best_triangle", "best_t", "best_u", "best_v", "visits")

    def __init__(self, bvh: BVH, mesh: TriangleMesh, t_min: float, any_hit_mode: bool):
        self.tri = bvh.triangle_soa(mesh)
        self.boxes = bvh.node_boxes()
        self.left_child = bvh.left_child
        self.right_child = bvh.right_child
        self.first_primitive = bvh.first_primitive
        self.primitive_count = bvh.primitive_count
        self.primitive_order = bvh.primitive_order
        self.t_min = float(t_min)
        self.any_hit_mode = any_hit_mode
        self.max_pops = max(pops for _, pops in FRONTIER_POP_SCHEDULE)
        # Single-pop ordered DFS holds at most depth + 1 entries (a pop at
        # depth d has at most d entries below it and pushes at most 2), plus
        # slack for the multi-pop tail window.  The window expands several
        # subtrees BFS-style, so no depth-based bound holds for it in general
        # (densely overlapping geometry); the step therefore checks capacity
        # before every push round and grows the stacks on demand, with an
        # assertion backing the final bound.
        self.initial_stack = max(bvh.max_depth() + 1 + 2 * (self.max_pops - 1), 2)
        self.max_stack = self.initial_stack
        self.base = np.empty(0, dtype=np.int64)
        self.root_is_leaf = self.primitive_count[0] > 0

    def on_compact(self, lanes: FrontierLanes) -> None:
        """Rebuild the flat stack addressing for the new lane count."""
        self.max_stack = lanes["stack_node"].shape[1]
        self.base = np.arange(len(lanes), dtype=np.int64) * self.max_stack

    def _grow_stack(self, lanes: FrontierLanes, new_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Widen every lane's stack to ``new_max`` entries (contents kept).

        Returns fresh flat views of the widened stacks.
        """
        n = len(lanes)
        old_node = lanes["stack_node"]
        old_entry = lanes["stack_entry"]
        old = old_node.shape[1]
        node = np.full((n, new_max), -1, dtype=np.int32)
        entry = np.zeros((n, new_max))
        node[:, :old] = old_node
        entry[:, :old] = old_entry
        lanes["stack_node"] = node
        lanes["stack_entry"] = entry
        self.max_stack = new_max
        self.base = np.arange(n, dtype=np.int64) * new_max
        return node.reshape(-1), entry.reshape(-1)

    def _intersect_leaves(self, s: dict, slots: np.ndarray, leaf_nodes: np.ndarray) -> None:
        """Batched (ray, triangle) pair expansion + intersection for one batch
        of leaf candidates.

        ``slots`` is sorted and may repeat (one frontier slot can discover
        several leaves in one iteration); per-candidate winners are folded to
        one winner per slot by a second segmented argmin, so the best-hit
        update is race-free.  Ties on t go to the smaller triangle id,
        matching the brute-force reference's serial first-minimum sweep.
        """
        primitive_count = self.primitive_count
        tri = self.tri
        counts = primitive_count.take(leaf_nodes)
        n_candidates = len(slots)
        starts = np.zeros(n_candidates, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        total = int(starts[-1] + counts[-1])
        candidate_of_pair = np.repeat(np.arange(n_candidates, dtype=np.int64), counts)
        local = np.arange(total, dtype=np.int64) - starts.take(candidate_of_pair)
        prims = self.primitive_order.take(
            self.first_primitive.take(leaf_nodes).take(candidate_of_pair) + local
        )
        pair_slots = slots.take(candidate_of_pair)
        _, t, u, v = _moller_components(
            s["ox"].take(pair_slots), s["oy"].take(pair_slots), s["oz"].take(pair_slots),
            s["dx"].take(pair_slots), s["dy"].take(pair_slots), s["dz"].take(pair_slots),
            tri[0].take(prims), tri[1].take(prims), tri[2].take(prims),
            tri[3].take(prims), tri[4].take(prims), tri[5].take(prims),
            tri[6].take(prims), tri[7].take(prims), tri[8].take(prims),
            self.t_min, s["limit"].take(pair_slots),
        )
        # One segmented argmin straight from pairs to slots: pairs are
        # slot-major, so slot segments are contiguous unions of candidates.
        first_of_slot = np.empty(n_candidates, dtype=bool)
        first_of_slot[0] = True
        np.not_equal(slots[1:], slots[:-1], out=first_of_slot[1:])
        slot_starts = np.flatnonzero(first_of_slot)
        unique_slots = slots.take(slot_starts)
        winner = segmented_argmin(t, starts.take(slot_starts), prims)
        winner_t = t.take(winner)
        winner_prims = prims.take(winner)
        winner_u = u.take(winner)
        winner_v = v.take(winner)
        s["visits"][unique_slots] += np.diff(np.append(slot_starts, n_candidates))
        best = s["best_t"].take(unique_slots)
        improved = winner_t < best
        improved |= (
            (winner_t == best)
            & np.isfinite(winner_t)
            & (winner_prims < s["best_triangle"].take(unique_slots))
        )
        winners = unique_slots[improved]
        improved_t = winner_t[improved]
        s["best_t"][winners] = improved_t
        s["best_triangle"][winners] = winner_prims[improved]
        s["best_u"][winners] = winner_u[improved]
        s["best_v"][winners] = winner_v[improved]
        s["limit"][winners] = np.minimum(improved_t, s["limit_t"].take(winners))
        if self.any_hit_mode:
            # Occluded rays retire immediately: an empty stack is retirement.
            s["stack_tops"][winners] = 0

    def step(self, lanes: FrontierLanes) -> np.ndarray:
        s = lanes.state
        n_resident = len(lanes)

        # Degenerate single-leaf hierarchy: intersect the root directly and
        # retire every lane in the first step.
        if self.root_is_leaf:
            all_slots = np.arange(n_resident, dtype=np.int64)
            self._intersect_leaves(s, all_slots, np.zeros(n_resident, dtype=np.int64))
            s["stack_tops"][:] = 0
            return np.ones(n_resident, dtype=bool)

        pops = _pops_for_width(n_resident)
        flat_node = s["stack_node"].reshape(-1)
        flat_entry = s["stack_entry"].reshape(-1)
        tops = s["stack_tops"]
        limit = s["limit"]

        # Pop the top `pops` stack entries of every lane at once.  Lane-major
        # raveling keeps virtual pops of one lane adjacent, ordered top
        # (DFS-next) first; exhausted levels mask off via `read < 0` (their
        # wrapped flat reads stay in bounds because read >= -max_stack).
        if pops == 1:
            read = tops - np.int32(1)
            addr = self.base + read
            nodes = flat_node.take(addr)
            entries = flat_entry.take(addr)
            consider = (read >= 0) & (entries <= limit)
            stack_tops = s["stack_tops"] = np.maximum(read, 0)
            group = np.flatnonzero(consider)
            slots = group
            if len(group) == n_resident:
                group_nodes = nodes
                s["visits"] += 1
            else:
                group_nodes = nodes.take(group)
                s["visits"][slots] += 1
        else:
            read = tops[:, None] - np.arange(1, pops + 1, dtype=np.int32)[None, :]
            addr = self.base[:, None] + read
            nodes = flat_node.take(addr)
            entries = flat_entry.take(addr)
            consider = (read >= 0) & (entries <= limit[:, None])
            stack_tops = s["stack_tops"] = np.maximum(tops - np.int32(pops), 0)
            group = np.flatnonzero(consider.ravel())
            slots = group // pops
            group_nodes = nodes.ravel().take(group)
            s["visits"] += consider.sum(axis=1)

        size = len(group)
        if size:
            boxes = self.boxes
            t_min = self.t_min
            # Lanes whose single pop all survived the cull need no gathers at
            # all -- the frontier arrays are already the group (identity).
            identity = pops == 1 and size == n_resident
            children = np.concatenate(
                [self.left_child.take(group_nodes), self.right_child.take(group_nodes)]
            )
            if identity:
                gox, goy, goz = s["ox"], s["oy"], s["oz"]
                gix, giy, giz = s["ix"], s["iy"], s["iz"]
                glimit = limit
            else:
                gox = s["ox"].take(slots)
                goy = s["oy"].take(slots)
                goz = s["oz"].take(slots)
                gix = s["ix"].take(slots)
                giy = s["iy"].take(slots)
                giz = s["iz"].take(slots)
                glimit = limit.take(slots)
            # Ray state is gathered once and used for both child slab tests.
            hit_left, t_left = _slab_entry(
                gox, goy, goz, gix, giy, giz,
                boxes[0].take(children[:size]), boxes[1].take(children[:size]),
                boxes[2].take(children[:size]),
                boxes[3].take(children[:size]), boxes[4].take(children[:size]),
                boxes[5].take(children[:size]),
                t_min, glimit,
            )
            hit_right, t_right = _slab_entry(
                gox, goy, goz, gix, giy, giz,
                boxes[0].take(children[size:]), boxes[1].take(children[size:]),
                boxes[2].take(children[size:]),
                boxes[3].take(children[size:]), boxes[4].take(children[size:]),
                boxes[5].take(children[size:]),
                t_min, glimit,
            )
            child_is_leaf = self.primitive_count.take(children) > 0
            left, right = children[:size], children[size:]
            left_is_leaf, right_is_leaf = child_is_leaf[:size], child_is_leaf[size:]

            # Internal children are pushed (far below near so the near child
            # pops next); leaf children are intersected immediately below.
            push_left = hit_left & ~left_is_leaf
            push_right = hit_right & ~right_is_leaf
            both = push_left & push_right
            pushes = np.add(push_left, push_right, dtype=np.int64)
            left_is_far = t_left > t_right
            first_is_left = push_left & (~both | left_is_far)
            first_node = np.where(first_is_left, left, right)
            first_entry = np.where(first_is_left, t_left, t_right)

            # Stack write positions: with one pop per lane, slots are unique
            # and pushes land directly at the (post-pop) stack top.  With the
            # multi-pop tail window, virtual pops of one lane are adjacent in
            # `group` with the DFS-next (top) pop first, so each pop's pushes
            # land above the pushes of all deeper pops of the same lane.
            if pops == 1:
                seg_slots = slots
                seg_pushes = pushes
                position = stack_tops if identity else stack_tops.take(slots)
            else:
                first_of_slot = np.empty(size, dtype=bool)
                first_of_slot[0] = True
                np.not_equal(slots[1:], slots[:-1], out=first_of_slot[1:])
                seg_starts = np.flatnonzero(first_of_slot)
                cumulative = np.cumsum(pushes)
                segment_of = np.cumsum(first_of_slot) - 1
                seg_last = np.append(seg_starts[1:], size) - 1
                pushed_below = cumulative.take(seg_last).take(segment_of) - cumulative
                seg_slots = slots.take(seg_starts)
                seg_pushes = np.add.reduceat(pushes, seg_starts)
                position = stack_tops.take(slots) + pushed_below

            new_seg_tops = stack_tops.take(seg_slots) + seg_pushes
            required = int(new_seg_tops.max(initial=0))
            if required > self.max_stack:
                # The multi-pop window expands several subtrees at once, so
                # depth-based sizing can be exceeded on densely overlapping
                # geometry; widen every lane's stack before writing.
                flat_node, flat_entry = self._grow_stack(lanes, required + 2 * self.max_pops)
            assert required <= self.max_stack, "traversal stack overflow"
            first_sel = np.flatnonzero(pushes)
            write = slots.take(first_sel) * self.max_stack + position.take(first_sel)
            flat_node[write] = first_node.take(first_sel)
            flat_entry[write] = first_entry.take(first_sel)
            second_sel = np.flatnonzero(both)
            if len(second_sel):
                near_node = np.where(left_is_far, right, left)
                near_entry = np.where(left_is_far, t_right, t_left)
                write = slots.take(second_sel) * self.max_stack + position.take(second_sel) + 1
                flat_node[write] = near_node.take(second_sel)
                flat_entry[write] = near_entry.take(second_sel)
            s["stack_tops"][seg_slots] = new_seg_tops

            # Leaf children: one merged slot-ordered batch per iteration.
            candidate_mask = np.empty(2 * size, dtype=bool)
            candidate_mask[0::2] = hit_left & left_is_leaf
            candidate_mask[1::2] = hit_right & right_is_leaf
            candidate_sel = np.flatnonzero(candidate_mask)
            if len(candidate_sel):
                child_pair = np.empty(2 * size, dtype=children.dtype)
                child_pair[0::2] = left
                child_pair[1::2] = right
                self._intersect_leaves(
                    s,
                    np.repeat(slots, 2).take(candidate_sel),
                    child_pair.take(candidate_sel),
                )

        # An empty stack is retirement (including any-hit occlusion); the
        # engine flushes and compacts once enough lanes have died.
        return s["stack_tops"] == 0


def _traverse(
    bvh: BVH,
    mesh: TriangleMesh,
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float,
    t_max: float | np.ndarray,
    any_hit_mode: bool,
) -> HitRecord:
    """Shared frontier-engine traversal driver for closest/any-hit queries."""
    origins = np.asarray(origins)
    directions = np.asarray(directions)
    n_rays = len(origins)

    # Full-width result arrays; the engine scatters into these as rays retire.
    outputs = {
        "best_triangle": np.full(n_rays, -1, dtype=np.int64),
        "best_t": np.full(n_rays, np.inf),
        "best_u": np.zeros(n_rays),
        "best_v": np.zeros(n_rays),
        "visits": np.zeros(n_rays, dtype=np.int64),
    }
    record = HitRecord(
        outputs["best_triangle"], outputs["best_t"], outputs["best_u"],
        outputs["best_v"], outputs["visits"],
    )
    if n_rays == 0 or bvh.num_nodes == 0:
        return record

    kernel = _TraversalKernel(bvh, mesh, t_min, any_hit_mode)
    limit_t = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n_rays,)).copy()
    lanes = _frontier_lanes(origins, directions, limit_t, kernel.initial_stack, kernel.t_min)
    FrontierEngine().run(kernel, lanes, outputs)
    return record


def closest_hit(
    bvh: BVH,
    mesh: TriangleMesh,
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float = EPSILON,
    t_max: float | np.ndarray = np.inf,
) -> HitRecord:
    """Nearest intersection of each ray with the mesh."""
    return _traverse(bvh, mesh, origins, directions, t_min, t_max, any_hit_mode=False)


def any_hit(
    bvh: BVH,
    mesh: TriangleMesh,
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float = EPSILON,
    t_max: float | np.ndarray = np.inf,
) -> np.ndarray:
    """Boolean occlusion test: does each ray hit anything within ``[t_min, t_max]``?

    ``t_max`` may be a scalar or a per-ray array (shadow rays bound each ray
    by its own light distance).
    """
    record = _traverse(bvh, mesh, origins, directions, t_min, t_max, any_hit_mode=True)
    return record.hit_mask


def brute_force_closest_hit(
    mesh: TriangleMesh,
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: float = EPSILON,
    t_max: float | np.ndarray = np.inf,
) -> HitRecord:
    """Reference O(rays x triangles) intersector used for differential testing.

    ``t_max`` may be a scalar or a per-ray array, mirroring :func:`any_hit`.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    n_rays = len(origins)
    corners = mesh.corners()
    best_t = np.full(n_rays, np.inf)
    best_triangle = np.full(n_rays, -1, dtype=np.int64)
    best_u = np.zeros(n_rays)
    best_v = np.zeros(n_rays)
    for index in range(mesh.num_triangles):
        hit, t, u, v = moller_trumbore(
            origins,
            directions,
            corners[index, 0],
            corners[index, 1],
            corners[index, 2],
            t_min,
            t_max,
        )
        improved = hit & (t < best_t)
        best_t[improved] = t[improved]
        best_triangle[improved] = index
        best_u[improved] = u[improved]
        best_v[improved] = v[improved]
    return HitRecord(best_triangle, best_t, best_u, best_v, np.zeros(n_rays, dtype=np.int64))
