"""Geometry substrate: meshes, bounding boxes, transforms, surface extraction.

The rendering algorithms in the paper operate on two families of data:

* **Structured data** -- uniform and rectilinear grids owned by the proxy
  simulations (Kripke, CloverLeaf3D) and volume-rendered directly.
* **Unstructured data** -- hexahedral meshes (LULESH) turned into triangles
  (external faces, isosurfaces) for ray tracing / rasterization, or into
  tetrahedra for the unstructured volume renderer.

This package provides those mesh types, the axis-aligned bounding-box math
used by the BVH and the rasterizer, the camera / screen-space transforms, the
external-faces and hex-to-tet operations, a marching-tetrahedra isosurface
extractor, and synthetic data-set generators standing in for the paper's
production data (Richtmyer-Meshkov, Enzo, Nek5000, ...).
"""

from repro.geometry.aabb import AABB, aabb_union, triangle_aabbs
from repro.geometry.mesh import (
    RectilinearGrid,
    StructuredGrid,
    UniformGrid,
    UnstructuredHexMesh,
    UnstructuredTetMesh,
)
from repro.geometry.transforms import (
    Camera,
    look_at_matrix,
    perspective_matrix,
    project_points,
)
from repro.geometry.triangles import TriangleMesh, external_faces, quad_to_triangles
from repro.geometry.tetra import (
    hex_to_tets,
    tet_face_planes,
    tetrahedralize_uniform_grid,
)
from repro.geometry.isosurface import isosurface_marching_tets
from repro.geometry.datasets import (
    enzo_like_field,
    make_named_dataset,
    nek5000_like_field,
    richtmyer_meshkov_like_field,
)

__all__ = [
    "AABB",
    "Camera",
    "RectilinearGrid",
    "StructuredGrid",
    "TriangleMesh",
    "UniformGrid",
    "UnstructuredHexMesh",
    "UnstructuredTetMesh",
    "aabb_union",
    "enzo_like_field",
    "external_faces",
    "hex_to_tets",
    "tet_face_planes",
    "isosurface_marching_tets",
    "look_at_matrix",
    "make_named_dataset",
    "nek5000_like_field",
    "perspective_matrix",
    "project_points",
    "quad_to_triangles",
    "richtmyer_meshkov_like_field",
    "tetrahedralize_uniform_grid",
    "triangle_aabbs",
]
