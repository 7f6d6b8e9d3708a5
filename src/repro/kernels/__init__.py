"""Pluggable distance-kernel backends for the scan-based detectors.

Every scan-based detector routes its inner loop through one narrow ABI
(:class:`~repro.kernels.base.Kernel`), so the whole system — batch,
streaming, checkpointed, and served — picks its distance backend with
one knob:

* ``python`` — the scalar reference loop; slow, but the oracle the
  differential CI job holds every other backend to.
* ``numpy``  — tiled vectorized scan with masked early termination; the
  default, identical results at an order-of-magnitude lower wall time on
  ``distance_evals``-bound workloads.

The backend is what the ``--kernel`` flag / ``kernel=`` argument names;
``"auto"``/``None`` means :data:`DEFAULT_KERNEL`.  See
``docs/kernels.md``.
"""

from __future__ import annotations

from .base import Kernel
from .numpy_backend import NumpyKernel
from .python_backend import PythonKernel

__all__ = [
    "Kernel",
    "PythonKernel",
    "NumpyKernel",
    "KERNEL_REGISTRY",
    "KERNEL_CHOICES",
    "DEFAULT_KERNEL",
    "make_kernel",
    "resolve_kernel",
]

#: Backend registry: name -> constructor (none takes an argument).
KERNEL_REGISTRY: dict[str, type[Kernel]] = {
    PythonKernel.name: PythonKernel,
    NumpyKernel.name: NumpyKernel,
}

#: What a ``--kernel`` flag accepts.
KERNEL_CHOICES = ("auto",) + tuple(KERNEL_REGISTRY)

#: Backend used when nothing is requested.
DEFAULT_KERNEL = "numpy"


def make_kernel(name: str) -> Kernel:
    """Instantiate a backend by name; ``ValueError`` for unknown names."""
    try:
        cls = KERNEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; known: {sorted(KERNEL_REGISTRY)}"
        ) from None
    return cls()


def resolve_kernel(spec=None) -> Kernel:
    """Turn a kernel spec into a ready instance.

    ``spec`` may be a :class:`Kernel` instance (returned as-is, so a
    caller can aggregate stats across several scans), a registry name,
    or ``None``/``"auto"`` — :data:`DEFAULT_KERNEL`.
    """
    if isinstance(spec, Kernel):
        return spec
    if spec is None or spec == "auto":
        spec = DEFAULT_KERNEL
    if not isinstance(spec, str):
        raise TypeError(
            f"kernel spec must be a name or Kernel, got {type(spec)!r}"
        )
    return make_kernel(spec)
