"""The benchmark's shim: ``pipeline.derive_delta_hat`` claims the
signature (gamma; -; [n_1..n_r]) of ker(theta), checks it and keeps it as
``DerivedKernel.signature``.  ``KernelSignatureReport`` stays only because
bench/workloads.py reads ``DerivedKernel.report.signature``, a property
wrapping it, and bench/layers.py imports this module.  The general
index-2 computation is now a test oracle in ``tests/reference.py``."""

from __future__ import annotations

from dataclasses import dataclass

from .signatures import NECSignature


@dataclass(frozen=True)
class KernelSignatureReport:
    """The kernel's signature."""

    signature: NECSignature
