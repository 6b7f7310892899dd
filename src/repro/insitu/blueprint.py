"""Mesh-description conventions over the Conduit-like node tree.

Strawman "is not creating a new mesh data model.  Instead we provide a set of
conventions to describe mesh data" (Chapter IV).  This module defines those
conventions for the reproduction and converts between them and the concrete
:mod:`repro.geometry` mesh classes:

``coords``
    * uniform:      ``coords/type = "uniform"`` with ``dims``, ``origin``, ``spacing``
    * rectilinear:  ``coords/type = "rectilinear"`` with ``values/x|y|z``
    * explicit:     ``coords/type = "explicit"`` with ``values/x|y|z`` arrays

``topology``
    * structured grids: ``topology/type = "structured"`` (implicit connectivity)
    * unstructured:     ``topology/type = "unstructured"`` with
      ``elements/shape`` (``"hexs"`` or ``"tets"``) and ``elements/connectivity``

``fields``
    ``fields/<name>/association`` (``"vertex"`` or ``"element"``),
    ``fields/<name>/values``.

:func:`validate_mesh_node` checks conformance and raises descriptive errors;
:func:`node_to_mesh` builds the corresponding geometry object (zero-copy where
the arrays allow it).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.mesh import (
    Mesh,
    RectilinearGrid,
    UniformGrid,
    UnstructuredHexMesh,
    UnstructuredTetMesh,
)
from repro.insitu.conduit import ConduitNode
from repro.simulations.base import SimulationProxy

__all__ = ["describe_simulation", "mesh_to_node", "node_to_mesh", "validate_mesh_node"]


def mesh_to_node(mesh: Mesh, zero_copy: bool = True) -> ConduitNode:
    """Describe a geometry mesh with the blueprint conventions.

    ``zero_copy`` publishes field arrays with ``set_external`` (the simulation
    retains ownership), which is requirement R11 of the paper.
    """
    node = ConduitNode()
    setter = (lambda target, values: target.set_external(values)) if zero_copy else (
        lambda target, values: target.set(values)
    )

    if isinstance(mesh, UniformGrid):
        node["coords/type"] = "uniform"
        node["coords/dims"] = np.asarray(mesh.dims, dtype=np.int64)
        node["coords/origin"] = np.asarray(mesh.origin, dtype=np.float64)
        node["coords/spacing"] = np.asarray(mesh.spacing, dtype=np.float64)
        node["topology/type"] = "structured"
    elif isinstance(mesh, RectilinearGrid):
        node["coords/type"] = "rectilinear"
        setter(node.fetch("coords/values/x"), mesh.x)
        setter(node.fetch("coords/values/y"), mesh.y)
        setter(node.fetch("coords/values/z"), mesh.z)
        node["topology/type"] = "structured"
    elif isinstance(mesh, (UnstructuredHexMesh, UnstructuredTetMesh)):
        points = mesh.points()
        node["coords/type"] = "explicit"
        setter(node.fetch("coords/values/x"), points[:, 0])
        setter(node.fetch("coords/values/y"), points[:, 1])
        setter(node.fetch("coords/values/z"), points[:, 2])
        node["topology/type"] = "unstructured"
        node["topology/elements/shape"] = "hexs" if isinstance(mesh, UnstructuredHexMesh) else "tets"
        setter(node.fetch("topology/elements/connectivity"), mesh.connectivity)
    else:
        raise TypeError(f"unsupported mesh type {type(mesh).__name__}")

    for name, values in mesh.point_fields.items():
        node[f"fields/{name}/association"] = "vertex"
        setter(node.fetch(f"fields/{name}/values"), np.asarray(values))
    for name, values in mesh.cell_fields.items():
        node[f"fields/{name}/association"] = "element"
        setter(node.fetch(f"fields/{name}/values"), np.asarray(values))
    return node


def describe_simulation(proxy: SimulationProxy) -> ConduitNode:
    """Publish a proxy's current state as a Conduit-like node tree (Chapter IV)."""
    node = mesh_to_node(proxy.mesh())
    node["state/cycle"] = proxy.cycle
    node["state/time"] = proxy.time
    node["state/name"] = proxy.name
    return node


def validate_mesh_node(node: ConduitNode) -> list[str]:
    """Validate blueprint conformance; returns a list of problems (empty when valid)."""
    problems: list[str] = []
    if "coords/type" not in node:
        return ["missing coords/type"]
    coords_type = node["coords/type"]
    if coords_type == "uniform":
        for key in ("coords/dims", "coords/origin", "coords/spacing"):
            if key not in node:
                problems.append(f"missing {key}")
    elif coords_type in ("rectilinear", "explicit"):
        for axis in "xyz":
            if f"coords/values/{axis}" not in node:
                problems.append(f"missing coords/values/{axis}")
    else:
        problems.append(f"unknown coords/type {coords_type!r}")

    if "topology/type" not in node:
        problems.append("missing topology/type")
    else:
        topo_type = node["topology/type"]
        if topo_type == "unstructured":
            if "topology/elements/shape" not in node:
                problems.append("missing topology/elements/shape")
            elif node["topology/elements/shape"] not in ("hexs", "tets"):
                problems.append(f"unsupported element shape {node['topology/elements/shape']!r}")
            if "topology/elements/connectivity" not in node:
                problems.append("missing topology/elements/connectivity")
        elif topo_type != "structured":
            problems.append(f"unknown topology/type {topo_type!r}")

    if "fields" in node:
        fields_node = node.fetch_existing("fields")
        for name, field_node in fields_node.children():
            if not field_node.has_path("values"):
                problems.append(f"field {name!r} missing values")
            if not field_node.has_path("association"):
                problems.append(f"field {name!r} missing association")
            elif field_node.fetch_existing("association").value() not in ("vertex", "element"):
                problems.append(f"field {name!r} has unknown association")
    return problems


def node_to_mesh(node: ConduitNode) -> Mesh:
    """Reconstruct a geometry mesh from a blueprint-conforming node tree."""
    problems = validate_mesh_node(node)
    if problems:
        raise ValueError("invalid mesh description: " + "; ".join(problems))

    coords_type = node["coords/type"]
    if coords_type == "uniform":
        dims = tuple(int(d) for d in np.asarray(node["coords/dims"]))
        origin = tuple(float(v) for v in np.asarray(node["coords/origin"]))
        spacing = tuple(float(v) for v in np.asarray(node["coords/spacing"]))
        mesh: Mesh = UniformGrid(dims, origin=origin, spacing=spacing)
    elif coords_type == "rectilinear":
        mesh = RectilinearGrid(
            np.asarray(node["coords/values/x"]),
            np.asarray(node["coords/values/y"]),
            np.asarray(node["coords/values/z"]),
        )
    else:  # explicit coordinates -> unstructured
        points = np.column_stack(
            [
                np.asarray(node["coords/values/x"], dtype=np.float64),
                np.asarray(node["coords/values/y"], dtype=np.float64),
                np.asarray(node["coords/values/z"], dtype=np.float64),
            ]
        )
        shape = node["topology/elements/shape"]
        connectivity = np.asarray(node["topology/elements/connectivity"], dtype=np.int64)
        if shape == "hexs":
            mesh = UnstructuredHexMesh(points, connectivity)
        else:
            mesh = UnstructuredTetMesh(points, connectivity)

    if "fields" in node:
        for name, field_node in node.fetch_existing("fields").children():
            values = np.asarray(field_node.fetch_existing("values").value())
            association = field_node.fetch_existing("association").value()
            if association == "vertex":
                mesh.add_point_field(name, values)
            else:
                mesh.add_cell_field(name, values)
    return mesh
