"""The benchmark's shim: ``pipeline.derive_delta_hat`` claims the
signature (gamma; -; [n_1..n_r]) of ker(theta) and checks it, and
``KernelSignatureReport`` stays only because bench/workloads.py reads
``DerivedKernel.report.signature`` and bench/layers.py imports this
module.  The general index-2 computation that read the signature off the
Schreier subgroup is now a test oracle in ``tests/reference.py``."""

from __future__ import annotations

from dataclasses import dataclass

from .signatures import NECSignature


@dataclass(frozen=True)
class KernelSignatureReport:
    """The kernel's signature."""

    signature: NECSignature
