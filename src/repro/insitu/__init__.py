"""In situ visualization infrastructure (the Strawman / Conduit analogue, Chapter IV).

The infrastructure couples simulations to the rendering layer through three
pieces, mirroring the paper's design:

* :mod:`repro.insitu.conduit` -- a hierarchical, path-addressed node tree used
  to describe mesh data and visualization actions (the Conduit analogue,
  including zero-copy ``set_external`` semantics).
* :mod:`repro.insitu.blueprint` -- the mesh-description conventions: how a
  uniform / rectilinear / unstructured mesh and its fields are laid out in a
  node tree, validation, conversion to :mod:`repro.geometry` meshes, and
  ``describe_simulation`` (a :mod:`repro.simulations` proxy's state as a tree).
* :mod:`repro.insitu.strawman` -- the batch in situ interface itself:
  ``Open`` / ``Publish`` / ``Execute`` / ``Close``, an action vocabulary
  (AddPlot / DrawPlots / SaveImage), per-rank rendering with the renderers of
  :mod:`repro.rendering`, and sort-last compositing with
  :mod:`repro.compositing` when run over a simulated communicator.
* :mod:`repro.insitu.imageio` -- PPM/PGM image writers (dependency-free) for
  saving rendered results, standing in for the paper's PNG output + web
  streaming.
"""

from repro.insitu.conduit import ConduitNode
from repro.insitu.blueprint import describe_simulation, mesh_to_node, node_to_mesh, validate_mesh_node
from repro.insitu.strawman import Strawman, StrawmanOptions
from repro.insitu.imageio import write_ppm, write_pgm

__all__ = [
    "ConduitNode",
    "Strawman",
    "StrawmanOptions",
    "describe_simulation",
    "mesh_to_node",
    "node_to_mesh",
    "validate_mesh_node",
    "write_pgm",
    "write_ppm",
]
