"""C toolchain discovery, fingerprinting, and shared-object builds.

The C backend shells out to the system compiler at bind time.  Three
things matter here:

* **probing** — :func:`have_toolchain` is the availability hook the
  backend ladder consults; on a machine with no compiler the executor
  switch degrades to the NumPy backend with one warning, never an error;
* **fingerprinting** — :func:`toolchain_fingerprint` digests the
  compiler's identity (path + version banner) and the exact flag set, so
  compiled artifacts cached under one toolchain are never reused under
  another;
* **flags** — ``-ffp-contract=off`` is load-bearing: GCC defaults to
  contracting ``a*b+c`` into fused multiply-adds at ``-O2``, which
  changes rounding and would break the bit-identity contract with the
  ``numpy`` tier.  ``-O2`` alone does not reorder or reassociate FP
  arithmetic (that would need ``-ffast-math``), so the emitted operation
  order is the executed operation order.
"""

from __future__ import annotations

import shutil
import subprocess
import threading
from pathlib import Path
from typing import Optional, Tuple

from repro import backends

#: Candidate compilers probed in order when ``REPRO_CC`` is unset.
CC_CANDIDATES = ("gcc", "cc", "clang")

#: Flags for executor shared objects.  See the module docstring for why
#: ``-ffp-contract=off`` is not optional.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_VERSION_CACHE = {}
_VERSION_LOCK = threading.Lock()


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler to use, or ``None``."""
    override = backends.read(backends.CC)
    if override:
        return shutil.which(override)
    for name in CC_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def compiler_version(cc: str) -> str:
    """First line of ``cc --version`` (cached per compiler path)."""
    with _VERSION_LOCK:
        cached = _VERSION_CACHE.get(cc)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            [cc, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        ).stdout
        version = out.splitlines()[0].strip() if out else "unknown"
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        version = "unknown"
    with _VERSION_LOCK:
        _VERSION_CACHE[cc] = version
    return version


def have_toolchain() -> Tuple[bool, str]:
    """Availability probe for the backend ladder: ``(ok, reason)``."""
    cc = find_compiler()
    if cc is None:
        override = backends.read(backends.CC)
        if override:
            return False, f"{backends.CC.name}={override!r} not found"
        return False, "no C compiler found (tried %s)" % ", ".join(
            CC_CANDIDATES
        )
    return True, ""


def toolchain_fingerprint() -> str:
    """Stable id of (compiler, version, flags) — ``"none"`` without one."""
    cc = find_compiler()
    if cc is None:
        return "none"
    return f"{cc}|{compiler_version(cc)}|{' '.join(CFLAGS)}"


def compile_shared(source_path: Path, out_path: Path) -> None:
    """Compile one C source file into a shared object (raises on failure,
    with the compiler's stderr in the message)."""
    cc = find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler available")
    cmd = [cc, *CFLAGS, "-o", str(out_path), str(source_path)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=300, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"C executor build failed ({' '.join(cmd)}):\n{proc.stderr}"
        )


__all__ = [
    "CFLAGS",
    "compile_shared",
    "compiler_version",
    "find_compiler",
    "have_toolchain",
    "toolchain_fingerprint",
]
