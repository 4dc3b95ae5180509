"""The one canonical content-hashing path.

Three subsystems fingerprint content with sha256 -- the depgraph memo
keys on policy rule content, the chaos harness fingerprints a run's
observable outcome, and the serving layer's result cache keys on whole
:class:`~repro.core.instance.PlacementInstance` bundles.  They must
agree on *how* parts are folded into the hash (ordering, separators,
encoding), or two "identical" objects can hash differently depending on
which subsystem asked.  :func:`canonical_digest` is that single folding
rule; the helpers below build the canonical part streams for the shared
network-level objects.

The digest is a pure function of content: no object identities, no
dict iteration order (every stream is explicitly sorted), no floats.
Equal content implies equal digest across processes and sessions.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .net.routing import Routing
    from .net.topology import Topology

__all__ = [
    "canonical_digest",
    "framed",
    "routing_parts",
    "topology_parts",
]


def framed(parts: Iterable[str]) -> Iterator[bytes]:
    """The byte chunks :func:`canonical_digest` hashes for a part stream.

    Each part is UTF-8 encoded and length-framed (``len|part``), which
    keeps the digest injective over the part sequence: ``("ab", "c")``
    and ``("a", "bc")`` hash differently, which plain concatenation or
    separator joining cannot guarantee when parts may contain the
    separator.  Framing is per part, so the framed bytes of a stream
    are the concatenation of its runs' framed bytes: a caller may keep
    the framing of a run that rarely changes and feed it to sha256 in
    place of re-framing the parts.
    """
    for part in parts:
        encoded = part.encode("utf-8")
        yield b"%d|" % len(encoded)
        yield encoded


def canonical_digest(parts: Iterable[str]) -> str:
    """sha256 over a part stream's :func:`framed` chunks."""
    hasher = hashlib.sha256()
    for chunk in framed(parts):
        hasher.update(chunk)
    return hasher.hexdigest()


def topology_parts(topology: "Topology") -> Iterable[str]:
    """Canonical part stream for a topology: switches, links, ports."""
    for switch in sorted(topology.switches, key=lambda s: s.name):
        yield f"switch:{switch.name}:{switch.capacity}:{switch.layer}"
    for a, b in sorted(tuple(sorted(edge)) for edge in topology.graph.edges):
        yield f"link:{a}:{b}"
    for port in sorted(topology.entry_ports, key=lambda p: p.name):
        yield f"port:{port.name}:{port.switch}"


def routing_parts(routing: "Routing") -> Iterable[str]:
    """Canonical part stream for a routing: every path, sorted."""
    specs = []
    for path in routing.all_paths():
        flow = "-" if path.flow is None else path.flow.to_string()
        specs.append(
            f"path:{path.ingress}:{path.egress}:"
            f"{','.join(path.switches)}:{flow}"
        )
    specs.sort()
    return specs
