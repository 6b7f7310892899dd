"""Sort-last parallel image compositing (the IceT analogue).

Each simulated MPI task renders its own block into a full-resolution
framebuffer; the compositor then merges those sub-images into one final image
using one of three classic algorithms -- direct send, binary swap, or
Radix-k -- exchanging pixel data through the
:class:`repro.runtime.communicator.SimulatedCommunicator` so that message
volume (and hence estimated network time) is accounted exactly.

Two merge modes are supported:

* ``"depth"`` -- z-buffer minimum, used by the surface renderers
  (rasterization and ray tracing);
* ``"over"`` -- front-to-back alpha blending in visibility order, used by the
  volume renderers.
"""

from repro.compositing.algorithms import RadixFactorError, StreamStats, get_algorithm, validate_radices
from repro.compositing.compositor import CompositeResult, Compositor
from repro.compositing.image import SubImage, composite_pixels
from repro.compositing.reference import composite_reference
from repro.compositing.runimage import RunImage, run_image_from_framebuffer
from repro.compositing.scenarios import SCENARIOS, get_scenario, scene_factory

__all__ = [
    "SCENARIOS",
    "CompositeResult",
    "Compositor",
    "RadixFactorError",
    "RunImage",
    "StreamStats",
    "SubImage",
    "composite_pixels",
    "composite_reference",
    "get_algorithm",
    "get_scenario",
    "run_image_from_framebuffer",
    "scene_factory",
    "validate_radices",
]
