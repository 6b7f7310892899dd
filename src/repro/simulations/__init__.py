"""Proxy simulation applications (LULESH-, Kripke-, and CloverLeaf3D-like).

The in situ study couples its rendering infrastructure to three DOE proxy
applications.  The reproduction provides small numpy proxies with the same
externally visible properties:

* :class:`repro.simulations.lulesh.LuleshProxy` -- Lagrangian shock
  hydrodynamics on a 3D **unstructured hexahedral** mesh (nodes move, an
  energy field follows an expanding blast wave).
* :class:`repro.simulations.kripke.KripkeProxy` -- deterministic discrete-
  ordinates transport on a 3D **uniform** mesh (directional sweeps relax a
  scalar flux field).
* :class:`repro.simulations.cloverleaf.CloverleafProxy` -- compressible Euler
  hydrodynamics on a 3D **rectilinear** mesh (a density/energy front advects
  across the domain).

All three implement the :class:`repro.simulations.base.SimulationProxy`
interface: ``advance()`` steps the physics and returns the per-cycle
simulation time and ``mesh()`` exposes the current mesh + fields.
:func:`repro.insitu.describe_simulation` publishes a proxy's state through the
Conduit-like tree consumed by the Strawman-like in situ interface (Chapter IV).
"""

from repro.simulations.amr import AmrProxy
from repro.simulations.base import SimulationProxy
from repro.simulations.cloverleaf import CloverleafProxy
from repro.simulations.kripke import KripkeProxy
from repro.simulations.lulesh import LuleshProxy

__all__ = ["AmrProxy", "CloverleafProxy", "KripkeProxy", "LuleshProxy", "SimulationProxy", "create_proxy"]


def create_proxy(name: str, cells_per_axis: int, seed: int | None = None) -> SimulationProxy:
    """Factory for the three proxies by study name (``lulesh``/``kripke``/``cloverleaf``)."""
    key = name.lower()
    if key == "lulesh":
        return LuleshProxy(cells_per_axis, seed=seed)
    if key == "kripke":
        return KripkeProxy(cells_per_axis, seed=seed)
    if key in ("cloverleaf", "cloverleaf3d"):
        return CloverleafProxy(cells_per_axis, seed=seed)
    if key == "amr":
        return AmrProxy(cells_per_axis, seed=seed)
    raise KeyError(f"unknown simulation proxy {name!r}")
