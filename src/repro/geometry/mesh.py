"""Mesh data model: uniform, rectilinear, structured, and unstructured grids.

The in situ interface (Chapter IV, requirement R4) must support "multiple data
models, including uniform, rectilinear, and unstructured grids" because the
three proxy simulations each use a different one:

* Kripke  -- 3D **uniform** mesh,
* CloverLeaf3D -- 3D **rectilinear** mesh,
* LULESH -- 3D **unstructured hexahedral** mesh.

The unstructured volume renderer of Chapter III additionally needs
**tetrahedral** meshes produced by decomposing hexahedra.

All meshes expose

* ``num_points`` / ``num_cells``,
* ``points()`` returning ``(np, 3)`` vertex coordinates,
* ``bounds`` returning an :class:`repro.geometry.aabb.AABB`,
* ``point_fields`` / ``cell_fields`` dictionaries of numpy arrays, and
* ``cell_centers()``.

Fields are stored flat (C order, x fastest) which matches the index math used
by the structured volume renderer.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import AABB

__all__ = [
    "Mesh",
    "UniformGrid",
    "RectilinearGrid",
    "StructuredGrid",
    "UnstructuredHexMesh",
    "UnstructuredTetMesh",
]


def _structured_cell_connectivity(dims: tuple[int, int, int]) -> np.ndarray:
    """Hexahedral connectivity (8 point ids per cell) of a structured grid.

    ``dims`` is the number of points per axis; cells number ``dims - 1`` per
    axis.  Point ids follow C order with x fastest.
    """
    nx, ny, nz = dims
    if nx < 2 or ny < 2 or nz < 2:
        raise ValueError("structured grids need at least two points per axis")
    cx, cy, cz = nx - 1, ny - 1, nz - 1
    k, j, i = np.meshgrid(np.arange(cz), np.arange(cy), np.arange(cx), indexing="ij")
    base = (i + j * nx + k * nx * ny).ravel()
    # VTK_HEXAHEDRON ordering: bottom quad counter-clockwise, then top quad.
    offsets = np.array(
        [
            0,
            1,
            1 + nx,
            nx,
            nx * ny,
            1 + nx * ny,
            1 + nx + nx * ny,
            nx + nx * ny,
        ],
        dtype=np.int64,
    )
    return base[:, None] + offsets[None, :]


class Mesh:
    """Base class carrying named point-centered and cell-centered fields."""

    def __init__(self) -> None:
        self.point_fields: dict[str, np.ndarray] = {}
        self.cell_fields: dict[str, np.ndarray] = {}

    # -- interface -------------------------------------------------------------
    @property
    def num_points(self) -> int:
        raise NotImplementedError

    @property
    def num_cells(self) -> int:
        raise NotImplementedError

    def points(self) -> np.ndarray:
        raise NotImplementedError

    def cell_centers(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def bounds(self) -> AABB:
        pts = self.points()
        return AABB(pts.min(axis=0), pts.max(axis=0))

    # -- field management --------------------------------------------------------
    def add_point_field(self, name: str, values: np.ndarray) -> None:
        """Attach a point-centered scalar/vector field (leading dim = num_points)."""
        values = np.asarray(values)
        if len(values) != self.num_points:
            raise ValueError(
                f"point field {name!r} has {len(values)} entries, expected {self.num_points}"
            )
        self.point_fields[name] = values

    def add_cell_field(self, name: str, values: np.ndarray) -> None:
        """Attach a cell-centered scalar/vector field (leading dim = num_cells)."""
        values = np.asarray(values)
        if len(values) != self.num_cells:
            raise ValueError(
                f"cell field {name!r} has {len(values)} entries, expected {self.num_cells}"
            )
        self.cell_fields[name] = values

    def field(self, name: str) -> tuple[str, np.ndarray]:
        """Look a field up by name in either association.

        Returns ``(association, values)`` where association is ``"point"`` or
        ``"cell"``.
        """
        if name in self.point_fields:
            return "point", self.point_fields[name]
        if name in self.cell_fields:
            return "cell", self.cell_fields[name]
        raise KeyError(f"no field named {name!r}")


class UniformGrid(Mesh):
    """Axis-aligned grid with constant spacing (Kripke's mesh type)."""

    def __init__(
        self,
        dims: tuple[int, int, int],
        origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
        spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> None:
        super().__init__()
        if any(d < 2 for d in dims):
            raise ValueError("UniformGrid needs at least two points per axis")
        if any(s <= 0 for s in spacing):
            raise ValueError("UniformGrid spacing must be positive")
        self.dims = tuple(int(d) for d in dims)
        self.origin = np.asarray(origin, dtype=np.float64)
        self.spacing = np.asarray(spacing, dtype=np.float64)

    @property
    def cell_dims(self) -> tuple[int, int, int]:
        return (self.dims[0] - 1, self.dims[1] - 1, self.dims[2] - 1)

    @property
    def num_points(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def num_cells(self) -> int:
        cx, cy, cz = self.cell_dims
        return cx * cy * cz

    def axis_coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis point coordinates."""
        return tuple(
            self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])
            for axis in range(3)
        )

    def points(self) -> np.ndarray:
        x, y, z = self.axis_coordinates()
        zz, yy, xx = np.meshgrid(z, y, x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    def cell_centers(self) -> np.ndarray:
        x, y, z = self.axis_coordinates()
        cx = 0.5 * (x[:-1] + x[1:])
        cy = 0.5 * (y[:-1] + y[1:])
        cz = 0.5 * (z[:-1] + z[1:])
        zz, yy, xx = np.meshgrid(cz, cy, cx, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    @property
    def bounds(self) -> AABB:
        high = self.origin + self.spacing * (np.asarray(self.dims) - 1)
        return AABB(self.origin.copy(), high)

    def cell_connectivity(self) -> np.ndarray:
        """Hexahedral (8 point ids per cell) connectivity."""
        return _structured_cell_connectivity(self.dims)

    def point_field_as_volume(self, name: str) -> np.ndarray:
        """Reshape a point field to ``(nz, ny, nx)`` for the volume renderer."""
        values = self.point_fields[name]
        nx, ny, nz = self.dims
        return np.asarray(values).reshape(nz, ny, nx)


class RectilinearGrid(Mesh):
    """Axis-aligned grid with per-axis coordinate arrays (CloverLeaf3D's type)."""

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
        super().__init__()
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.z = np.asarray(z, dtype=np.float64)
        for name, coords in (("x", self.x), ("y", self.y), ("z", self.z)):
            if coords.ndim != 1 or len(coords) < 2:
                raise ValueError(f"{name} coordinates must be 1D with at least two entries")
            if not np.all(np.diff(coords) > 0):
                raise ValueError(f"{name} coordinates must be strictly increasing")
        self.dims = (len(self.x), len(self.y), len(self.z))

    @property
    def cell_dims(self) -> tuple[int, int, int]:
        return (self.dims[0] - 1, self.dims[1] - 1, self.dims[2] - 1)

    @property
    def num_points(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def num_cells(self) -> int:
        cx, cy, cz = self.cell_dims
        return cx * cy * cz

    def points(self) -> np.ndarray:
        zz, yy, xx = np.meshgrid(self.z, self.y, self.x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    def cell_centers(self) -> np.ndarray:
        cx = 0.5 * (self.x[:-1] + self.x[1:])
        cy = 0.5 * (self.y[:-1] + self.y[1:])
        cz = 0.5 * (self.z[:-1] + self.z[1:])
        zz, yy, xx = np.meshgrid(cz, cy, cx, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    @property
    def bounds(self) -> AABB:
        return AABB(
            np.array([self.x[0], self.y[0], self.z[0]]),
            np.array([self.x[-1], self.y[-1], self.z[-1]]),
        )

    def cell_connectivity(self) -> np.ndarray:
        return _structured_cell_connectivity(self.dims)

    def to_uniform_resampled(self) -> UniformGrid:
        """Resample onto a uniform grid with the same dims and bounds.

        The structured volume renderer assumes constant spacing; rectilinear
        data from CloverLeaf3D is resampled through this helper before volume
        rendering (nearest-point semantics for point fields).
        """
        nx, ny, nz = self.dims
        bounds = self.bounds
        spacing = bounds.extent / (np.asarray(self.dims) - 1)
        grid = UniformGrid((nx, ny, nz), origin=tuple(bounds.low), spacing=tuple(spacing))
        for name, values in self.point_fields.items():
            grid.add_point_field(name, np.asarray(values).copy())
        for name, values in self.cell_fields.items():
            grid.add_cell_field(name, np.asarray(values).copy())
        return grid


class StructuredGrid(Mesh):
    """Curvilinear structured grid: explicit points with implicit connectivity."""

    def __init__(self, dims: tuple[int, int, int], points: np.ndarray) -> None:
        super().__init__()
        self.dims = tuple(int(d) for d in dims)
        points = np.asarray(points, dtype=np.float64)
        expected = self.dims[0] * self.dims[1] * self.dims[2]
        if points.shape != (expected, 3):
            raise ValueError(f"points must have shape ({expected}, 3)")
        self._points = points

    @property
    def cell_dims(self) -> tuple[int, int, int]:
        return (self.dims[0] - 1, self.dims[1] - 1, self.dims[2] - 1)

    @property
    def num_points(self) -> int:
        return self._points.shape[0]

    @property
    def num_cells(self) -> int:
        cx, cy, cz = self.cell_dims
        return cx * cy * cz

    def points(self) -> np.ndarray:
        return self._points

    def cell_connectivity(self) -> np.ndarray:
        return _structured_cell_connectivity(self.dims)

    def cell_centers(self) -> np.ndarray:
        conn = self.cell_connectivity()
        return self._points[conn].mean(axis=1)


class UnstructuredHexMesh(Mesh):
    """Explicit hexahedral mesh (LULESH's mesh type)."""

    def __init__(self, points: np.ndarray, connectivity: np.ndarray) -> None:
        super().__init__()
        points = np.asarray(points, dtype=np.float64)
        connectivity = np.asarray(connectivity, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if connectivity.ndim != 2 or connectivity.shape[1] != 8:
            raise ValueError("hex connectivity must have shape (n, 8)")
        if connectivity.size and (connectivity.min() < 0 or connectivity.max() >= len(points)):
            raise IndexError("hex connectivity references a missing point")
        self._points = points
        self.connectivity = connectivity

    @classmethod
    def from_structured(cls, grid: UniformGrid | RectilinearGrid | StructuredGrid) -> "UnstructuredHexMesh":
        """Explicitly materialise a structured grid as an unstructured hex mesh."""
        mesh = cls(grid.points(), grid.cell_connectivity())
        mesh.point_fields.update({k: np.asarray(v) for k, v in grid.point_fields.items()})
        mesh.cell_fields.update({k: np.asarray(v) for k, v in grid.cell_fields.items()})
        return mesh

    @property
    def num_points(self) -> int:
        return self._points.shape[0]

    @property
    def num_cells(self) -> int:
        return self.connectivity.shape[0]

    def points(self) -> np.ndarray:
        return self._points

    def cell_centers(self) -> np.ndarray:
        return self._points[self.connectivity].mean(axis=1)


class UnstructuredTetMesh(Mesh):
    """Explicit tetrahedral mesh consumed by the unstructured volume renderer."""

    def __init__(self, points: np.ndarray, connectivity: np.ndarray) -> None:
        super().__init__()
        points = np.asarray(points, dtype=np.float64)
        connectivity = np.asarray(connectivity, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if connectivity.ndim != 2 or connectivity.shape[1] != 4:
            raise ValueError("tet connectivity must have shape (n, 4)")
        if connectivity.size and (connectivity.min() < 0 or connectivity.max() >= len(points)):
            raise IndexError("tet connectivity references a missing point")
        self._points = points
        self.connectivity = connectivity

    @property
    def num_points(self) -> int:
        return self._points.shape[0]

    @property
    def num_cells(self) -> int:
        return self.connectivity.shape[0]

    def points(self) -> np.ndarray:
        return self._points

    def cell_centers(self) -> np.ndarray:
        return self._points[self.connectivity].mean(axis=1)

    def cell_volumes(self) -> np.ndarray:
        """Signed volume of every tetrahedron (positive for right-handed cells)."""
        tets = self._points[self.connectivity]
        a = tets[:, 1] - tets[:, 0]
        b = tets[:, 2] - tets[:, 0]
        c = tets[:, 3] - tets[:, 0]
        return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
