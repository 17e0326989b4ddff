"""Loading ``.lang`` sources as explorable benchmarks.

A source kernel is referenced by the spec ``lang:<path>#<digest>`` where
``<digest>`` is the first 12 hex chars of the SHA-256 of the source text.
The digest makes the spec a *content* reference:

* :class:`repro.explore.space.DesignQuery` hashes its ``kernel`` field,
  so query hashes (and the cross-process artifact cache keyed on them)
  change whenever the source file changes;
* exploration workers resolve the spec independently
  (:func:`repro.workloads.benchmark_by_name` delegates here) and refuse
  to compile a file that no longer matches the digest instead of
  silently computing against different source.

``lang_kernel`` accepts the canonical spec, a digest-less ``lang:<path>``,
or a bare ``<path>.lang`` and returns a regular
:class:`repro.workloads.Benchmark` whose builder compiles the file.
"""

from __future__ import annotations

import hashlib
import os

from repro.errors import ReproError

__all__ = ["source_digest", "lang_spec", "lang_kernel"]


def source_digest(text: str) -> str:
    """Content digest of one source text (12 hex chars of SHA-256)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _split_spec(name: str) -> tuple[str, str | None]:
    if name.startswith("lang:"):
        name = name[len("lang:"):]
    path, sep, digest = name.partition("#")
    return path, (digest if sep else None)


def lang_spec(path: str) -> str:
    """The canonical ``lang:<path>#<digest>`` spec for a source file."""
    path = os.path.abspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return f"lang:{path}#{source_digest(text)}"


def lang_kernel(name: str):
    """Resolve a lang kernel spec to a :class:`repro.workloads.Benchmark`.

    Re-reads the file and (when the spec pins a digest) verifies the
    content still matches; raises :class:`~repro.errors.ReproError` when
    the file is missing or has changed.
    """
    from repro.workloads import Benchmark

    path, want_digest = _split_spec(name)
    path = os.path.abspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ReproError(f"cannot read lang kernel {path!r}: {exc}") from exc
    digest = source_digest(text)
    if want_digest is not None and want_digest != digest:
        raise ReproError(
            f"lang kernel {path!r} has changed since it was referenced "
            f"(expected digest {want_digest}, file is {digest})")

    def _build():
        from repro.lang import compile_source
        return compile_source(text, filename=path)

    return Benchmark(
        name=f"lang:{path}#{digest}",
        description=f"repro.lang kernel compiled from {os.path.basename(path)}",
        build=_build)
