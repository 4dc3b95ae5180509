"""Ternary match fields and the cube algebra underlying ACL rules.

An OpenFlow/TCAM matching field is an array of ternary elements over
``{0, 1, *}`` where ``*`` matches both 0 and 1 (paper, Section II-A).  A
ternary word of width ``W`` describes a *cube*: the set of all ``W``-bit
packet headers obtained by filling each ``*`` position freely.

We represent a cube compactly with two integers:

* ``mask`` -- bit ``b`` is 1 when position ``b`` is a *care* bit (0 or 1),
  and 0 when it is a wildcard ``*``;
* ``value`` -- the required bit values on care positions (always 0 on
  wildcard positions, kept canonical so equality is plain tuple equality).

Bit 0 is the least-significant (rightmost in string form).  All the set
operations needed by the rule-placement formulation -- overlap tests for
the rule dependency constraint (paper Eq. 1), subset tests for redundancy
removal, and exact region difference for placement verification -- reduce
to a handful of bitwise operations on these two integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TernaryMatch",
    "RegionSet",
    "PackedMatches",
    "concat_matches",
    "overlapping_pairs",
]

#: ``str.translate`` tables of the pattern codec: the first deletes the
#: valid characters (what is left is invalid), the other two turn a
#: pattern into the binary digits of its mask and of its value.
_DELETE_TERNARY = str.maketrans("", "", "01*")
_CARE_DIGITS = str.maketrans("01*", "110")
_VALUE_DIGITS = str.maketrans("01*", "010")

#: Byte table turning summed mask+value digit codes into pattern bytes.
_RENDER = bytes.maketrans(b"\x60\x61\x62", b"*01")


@dataclass(frozen=True, order=True)
class TernaryMatch:
    """An immutable ternary cube over ``width`` header bits.

    Instances are canonical: ``value`` never has bits set outside
    ``mask``, so two objects describe the same cube iff they compare
    equal.  Construction validates this.
    """

    width: int
    mask: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"width must be non-negative, got {self.width}")
        full = (1 << self.width) - 1
        if self.mask & ~full:
            raise ValueError(
                f"mask 0x{self.mask:x} has bits outside width {self.width}"
            )
        if self.value & ~self.mask:
            raise ValueError(
                "value has bits outside mask; cube would not be canonical "
                f"(value=0x{self.value:x}, mask=0x{self.mask:x})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_string(cls, pattern: str) -> "TernaryMatch":
        """Parse a pattern such as ``"01*1"``.

        The leftmost character is the most-significant bit.  Characters
        must be ``0``, ``1`` or ``*``.  Validation runs before ``int``
        sees the digits, because ``int`` also accepts ``_``, a sign,
        surrounding whitespace and non-ASCII digits.
        """
        if not isinstance(pattern, str):
            raise ValueError(
                f"ternary pattern must be a string, got {type(pattern).__name__}"
            )
        invalid = pattern.translate(_DELETE_TERNARY)
        if invalid:
            raise ValueError(
                f"invalid ternary character {invalid[0]!r} in {pattern!r}"
            )
        if not pattern:
            return cls(0, 0, 0)
        return cls(len(pattern), int(pattern.translate(_CARE_DIGITS), 2),
                   int(pattern.translate(_VALUE_DIGITS), 2))

    @classmethod
    def wildcard(cls, width: int) -> "TernaryMatch":
        """The cube matching every ``width``-bit header."""
        return cls(width, 0, 0)

    @classmethod
    def exact(cls, width: int, header: int) -> "TernaryMatch":
        """The singleton cube containing exactly ``header``."""
        full = (1 << width) - 1
        if header & ~full:
            raise ValueError(f"header 0x{header:x} wider than {width} bits")
        return cls(width, full, header)

    @classmethod
    def from_prefix(cls, width: int, prefix_bits: int, prefix_len: int) -> "TernaryMatch":
        """An IP-style prefix cube: the top ``prefix_len`` bits are fixed.

        ``prefix_bits`` supplies the fixed bits, already aligned to the
        top of the field (i.e. ``10.0.0.0/8`` over a 32-bit field is
        ``from_prefix(32, 0x0A000000, 8)``).
        """
        if not 0 <= prefix_len <= width:
            raise ValueError(f"prefix length {prefix_len} outside [0, {width}]")
        if prefix_len == 0:
            return cls.wildcard(width)
        mask = ((1 << prefix_len) - 1) << (width - prefix_len)
        return cls(width, mask, prefix_bits & mask)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def matches(self, header: int) -> bool:
        """True when ``header`` lies inside this cube."""
        return (header ^ self.value) & self.mask == 0

    @property
    def num_wildcards(self) -> int:
        """Number of ``*`` positions."""
        return self.width - self.mask.bit_count()

    def cardinality(self) -> int:
        """Number of distinct headers this cube matches (``2**wildcards``)."""
        return 1 << self.num_wildcards

    def is_full(self) -> bool:
        """True for the all-wildcard cube."""
        return self.mask == 0

    def is_singleton(self) -> bool:
        """True when the cube matches exactly one header."""
        return self.mask == (1 << self.width) - 1

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def _check_width(self, other: "TernaryMatch") -> None:
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}"
            )

    def intersects(self, other: "TernaryMatch") -> bool:
        """True when the cubes share at least one header.

        Two cubes are disjoint exactly when some position is a care bit
        in both and the required values differ.
        """
        self._check_width(other)
        common = self.mask & other.mask
        return (self.value ^ other.value) & common == 0

    def intersection(self, other: "TernaryMatch") -> Optional["TernaryMatch"]:
        """The cube of headers matched by both, or ``None`` if disjoint."""
        self._check_width(other)
        common = self.mask & other.mask
        if (self.value ^ other.value) & common:
            return None
        return TernaryMatch(self.width, self.mask | other.mask, self.value | other.value)

    def is_subset(self, other: "TernaryMatch") -> bool:
        """True when every header in ``self`` is also in ``other``.

        ``self`` is contained in ``other`` iff ``other``'s care bits are
        a subset of ``self``'s and the values agree there.
        """
        self._check_width(other)
        if self.mask & other.mask != other.mask:
            return False
        return (self.value ^ other.value) & other.mask == 0

    def difference(self, other: "TernaryMatch") -> list["TernaryMatch"]:
        """``self`` minus ``other`` as a list of pairwise-disjoint cubes.

        Uses the classic cube-splitting construction: walk the care bits
        of ``other`` that are free or agreeing in ``self``, flipping one
        at a time.  Returns at most ``width`` cubes.
        """
        self._check_width(other)
        inter = self.intersection(other)
        if inter is None:
            return [self]
        if self.is_subset(other):
            return []
        pieces: list[TernaryMatch] = []
        # Progressively constrain a prefix of other's constrained-in-self-
        # free bits to agree with `other`, flipping the next one.
        cur_mask, cur_value = self.mask, self.value
        for bit in range(self.width - 1, -1, -1):
            b = 1 << bit
            if not (other.mask & b):
                continue  # other doesn't care: no split on this bit
            if self.mask & b:
                # self cares too; values must agree (else disjoint, handled).
                continue
            # self has * here, other requires a value: headers with the
            # opposite value are entirely outside `other`.
            flipped_value = (cur_value & ~b) | ((other.value & b) ^ b)
            pieces.append(TernaryMatch(self.width, cur_mask | b, flipped_value))
            cur_mask |= b
            cur_value = (cur_value & ~b) | (other.value & b)
        return pieces

    def sample(self, rng: random.Random) -> int:
        """A uniformly random header inside this cube."""
        free = ~self.mask & ((1 << self.width) - 1)
        header = self.value
        bit = 1
        for _ in range(self.width):
            if free & bit and rng.random() < 0.5:
                header |= bit
            bit <<= 1
        return header

    def enumerate(self) -> Iterator[int]:
        """Yield every header in the cube.  Only for small cubes (tests)."""
        free_bits = [b for b in range(self.width) if not (self.mask >> b) & 1]
        n = len(free_bits)
        for combo in range(1 << n):
            header = self.value
            for i, b in enumerate(free_bits):
                if (combo >> i) & 1:
                    header |= 1 << b
            yield header

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def to_string(self) -> str:
        """Render as a ``{0,1,*}`` pattern, MSB first.

        Added as base-256 numbers, the ASCII binary digits of mask and
        value give one byte per position without carries: ``0x60`` for
        a wildcard, ``0x61`` for a care 0, ``0x62`` for a care 1.  One
        byte translate maps those to ``*``, ``0`` and ``1``.  Every
        conversion is base 2 or base 256, so no Python runs per bit and
        no decimal digit limit applies at any width.
        """
        width = self.width
        if not width:
            return ""
        # A sentinel bit above the field keeps bin() from dropping
        # leading zeros; its "0b1" prefix is sliced off below.
        top = 1 << width
        codes = (int.from_bytes(bin(self.mask | top).encode(), "big")
                 + int.from_bytes(bin(self.value | top).encode(), "big"))
        return codes.to_bytes(width + 3, "big")[3:].translate(_RENDER).decode()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_string()


def concat_matches(fields: Sequence[TernaryMatch]) -> TernaryMatch:
    """Concatenate per-field cubes into one wide cube.

    ``fields[0]`` becomes the most-significant field, matching the
    conventional rendering of 5-tuple classifiers (src IP first).
    """
    width = 0
    mask = 0
    value = 0
    for field in fields:
        width += field.width
        mask = (mask << field.width) | field.mask
        value = (value << field.width) | field.value
    return TernaryMatch(width, mask, value)


#: Below this many cubes the pure-Python pairwise scan beats the numpy
#: kernel's fixed setup cost.
_SMALL_BATCH = 64

#: How many bucket bits the candidate-pruning prepass keys on.
_BUCKET_BITS = 12

#: Row-block size for the blockwise pairwise tests (bounds peak memory
#: at ``block * n`` booleans per intermediate).
_PAIR_BLOCK = 256

_LIMB_MASK = (1 << 64) - 1


class PackedMatches:
    """A batch of same-width cubes packed into parallel integer arrays.

    ``masks``/``values`` are ``(n, limbs)`` uint64 arrays (limb 0 holds
    bits 0..63), so the pairwise disjointness test
    ``(v_a ^ v_b) & (m_a & m_b) != 0`` vectorizes across whole candidate
    sets at once instead of running one Python-level
    :meth:`TernaryMatch.intersects` call per pair.  This is the kernel
    behind the fast dependency-graph build (paper Eq. 1 analysis) and
    the shared policy-structure analytics.
    """

    __slots__ = ("n", "width", "limbs", "masks", "values")

    def __init__(self, matches: Sequence[TernaryMatch]) -> None:
        self.n = len(matches)
        self.width = matches[0].width if matches else 0
        self.limbs = max(1, (self.width + 63) // 64)
        for match in matches:
            if match.width != self.width:
                raise ValueError(
                    f"width mismatch in batch: {match.width} vs {self.width}"
                )
        # Limb extraction through int.to_bytes + frombuffer: serializing
        # each Python int once at C speed beats per-limb shift/mask
        # loops, and little-endian byte order lands limb 0 on bits 0..63
        # exactly as documented.
        nbytes = self.limbs * 8
        if self.n:
            self.masks = np.frombuffer(
                b"".join(m.mask.to_bytes(nbytes, "little") for m in matches),
                dtype=np.uint64,
            ).reshape(self.n, self.limbs).copy()
            self.values = np.frombuffer(
                b"".join(m.value.to_bytes(nbytes, "little") for m in matches),
                dtype=np.uint64,
            ).reshape(self.n, self.limbs).copy()
        else:
            self.masks = np.zeros((0, self.limbs), dtype=np.uint64)
            self.values = np.zeros((0, self.limbs), dtype=np.uint64)

    # ------------------------------------------------------------------

    def _bits(self, words: np.ndarray) -> np.ndarray:
        """``words`` unpacked to an ``(n, width)`` 0/1 array whose column
        ``b`` is bit ``b``: little-endian limb bytes, least-significant
        bit first, so limb ``k`` fills columns ``64k .. 64k+63``."""
        raw = words.astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, :self.width]

    def care_counts(self) -> np.ndarray:
        """How many cubes care about each bit position (length ``width``)."""
        return self._bits(self.masks).sum(axis=0, dtype=np.int64)

    def bucket_patterns(self, positions: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Each cube's (mask, value) restricted to ``positions``, packed
        into single uint64s -- the short pattern the bucketing keys on."""
        columns = np.asarray(positions, dtype=np.int64)
        weights = np.left_shift(np.uint64(1),
                                np.arange(len(columns), dtype=np.uint64))
        bm = self._bits(self.masks)[:, columns] @ weights
        bv = self._bits(self.values)[:, columns] @ weights
        return bm, bv

    def _pairs_block(self, rows: np.ndarray, cols: np.ndarray,
                     keep: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """All intersecting (row, col) pairs for one row-block, optionally
        restricted by a precomputed ``keep`` boolean matrix."""
        disjoint = np.zeros((len(rows), len(cols)), dtype=bool)
        for limb in range(self.limbs):
            mm = self.masks[rows, limb][:, None] & self.masks[cols, limb][None, :]
            vv = self.values[rows, limb][:, None] ^ self.values[cols, limb][None, :]
            disjoint |= (vv & mm) != 0
        hit = ~disjoint
        if keep is not None:
            hit &= keep
        r_idx, c_idx = np.nonzero(hit)
        return rows[r_idx], cols[c_idx]

    def _triangle_pairs(self, group: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Intersecting index pairs (i < j) within one candidate group."""
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for start in range(0, len(group), _PAIR_BLOCK):
            rows = group[start:start + _PAIR_BLOCK]
            cols = group[start:]
            keep = cols[None, :] > rows[:, None]
            out.append(self._pairs_block(rows, cols, keep))
        return out

    def overlapping_pairs(self, bucket_bits: int = _BUCKET_BITS) -> Tuple[np.ndarray, np.ndarray]:
        """Every intersecting index pair ``(i, j)`` with ``i < j``.

        Candidate pruning: key each cube on a short pattern over the
        most-frequently-cared bit positions.  Cubes that care about
        *all* bucket positions can only intersect cubes in the same
        exact bucket (equal pattern value) or cubes wildcarding some
        bucket position, so the quadratic test runs per bucket instead
        of over the full batch; the remaining "mixed" cubes are tested
        blockwise against everything.  Returns two parallel index
        arrays sorted lexicographically by ``(i, j)``.
        """
        if self.n < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        counts = self.care_counts()
        positions = [
            int(bit) for bit in np.argsort(-counts, kind="stable")[:bucket_bits]
            if counts[bit] > 0
        ]
        chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        if not positions:
            # Degenerate batch (every bit wildcarded everywhere): no
            # pruning signal; everything is one group.
            chunks.extend(self._triangle_pairs(np.arange(self.n, dtype=np.int64)))
        else:
            full = np.uint64((1 << len(positions)) - 1)
            bm, bv = self.bucket_patterns(positions)
            exact = bm == full
            mixed_idx = np.nonzero(~exact)[0].astype(np.int64)
            exact_idx = np.nonzero(exact)[0].astype(np.int64)
            # Exact cubes: quadratic only within each equal-pattern bucket.
            if len(exact_idx):
                keys = bv[exact_idx]
                order = np.argsort(keys, kind="stable")
                sorted_idx = exact_idx[order]
                sorted_keys = keys[order]
                boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
                for group in np.split(sorted_idx, boundaries):
                    if len(group) >= 2:
                        chunks.extend(self._triangle_pairs(np.sort(group)))
            # Mixed cubes: blockwise against every cube, counting each
            # mixed/mixed pair once (j > i) and mixed/exact pairs from
            # the mixed side only.
            if len(mixed_idx):
                everything = np.arange(self.n, dtype=np.int64)
                is_mixed = ~exact
                for start in range(0, len(mixed_idx), _PAIR_BLOCK):
                    rows = mixed_idx[start:start + _PAIR_BLOCK]
                    keep = (~is_mixed[everything])[None, :] | (
                        everything[None, :] > rows[:, None]
                    )
                    chunks.append(self._pairs_block(rows, everything, keep))
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        a = np.concatenate([c[0] for c in chunks])
        b = np.concatenate([c[1] for c in chunks])
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        order = np.lexsort((hi, lo))
        return lo[order], hi[order]


def overlapping_pairs(matches: Sequence[TernaryMatch]) -> Tuple[np.ndarray, np.ndarray]:
    """Indices ``(i, j)``, ``i < j``, of every intersecting cube pair.

    Dispatches between a pure-Python scan (small batches, where numpy
    setup cost dominates) and the packed blockwise kernel.  Both return
    identical pairs in identical ``(i, j)`` lexicographic order; the
    differential tests in ``tests/core/test_depgraph_fast.py`` hold the
    two implementations to that contract.
    """
    n = len(matches)
    if n < _SMALL_BATCH:
        first: List[int] = []
        second: List[int] = []
        for i in range(n):
            m_i = matches[i]
            for j in range(i + 1, n):
                if m_i.intersects(matches[j]):
                    first.append(i)
                    second.append(j)
        return (np.asarray(first, dtype=np.int64),
                np.asarray(second, dtype=np.int64))
    return PackedMatches(matches).overlapping_pairs()


class RegionSet:
    """A union of ternary cubes with exact containment/equality tests.

    The placement verifier (``repro.core.verify``) compares the set of
    headers dropped along a path against the set the ingress policy says
    must be dropped.  Both are naturally unions of cubes, so we need a
    small region calculus: union, membership, emptiness of difference,
    and equality.  Cube-cover checking is done by recursive splitting,
    which is exact (no sampling) and fast at ACL-policy sizes.
    """

    def __init__(self, width: int, cubes: Iterable[TernaryMatch] = ()) -> None:
        self.width = width
        self._cubes: list[TernaryMatch] = []
        for cube in cubes:
            self.add(cube)

    # ------------------------------------------------------------------

    @property
    def cubes(self) -> tuple[TernaryMatch, ...]:
        return tuple(self._cubes)

    def add(self, cube: TernaryMatch) -> None:
        """Add a cube to the union (absorbing cubes already covered)."""
        if cube.width != self.width:
            raise ValueError(f"cube width {cube.width} != region width {self.width}")
        for existing in self._cubes:
            if cube.is_subset(existing):
                return
        self._cubes = [c for c in self._cubes if not c.is_subset(cube)]
        self._cubes.append(cube)

    def contains(self, header: int) -> bool:
        """Membership test for a single header."""
        return any(c.matches(header) for c in self._cubes)

    def is_empty(self) -> bool:
        return not self._cubes

    def covers_cube(self, cube: TernaryMatch) -> bool:
        """Exact test: is every header of ``cube`` inside this union?

        Recursive cofactoring: if no single cube covers ``cube``, split
        ``cube`` on a care bit of some intersecting cube and recurse.
        Terminates because each split fixes one more bit.
        """
        relevant = [c for c in self._cubes if c.intersects(cube)]
        return _covers(cube, relevant)

    def covers(self, other: "RegionSet") -> bool:
        """True when ``other`` is a subset of this region."""
        return all(self.covers_cube(c) for c in other._cubes)

    def equals(self, other: "RegionSet") -> bool:
        """Exact set equality of the two unions."""
        return self.covers(other) and other.covers(self)

    def subtract_cube(self, cube: TernaryMatch) -> "RegionSet":
        """A new region equal to this one minus ``cube``."""
        result = RegionSet(self.width)
        for c in self._cubes:
            for piece in c.difference(cube):
                result.add(piece)
        return result

    def difference(self, other: "RegionSet") -> "RegionSet":
        """A new region equal to this one minus ``other``."""
        result = self
        for cube in other._cubes:
            result = result.subtract_cube(cube)
        return result

    def intersect_cube(self, cube: TernaryMatch) -> "RegionSet":
        """A new region equal to this one restricted to ``cube``."""
        result = RegionSet(self.width)
        for c in self._cubes:
            inter = c.intersection(cube)
            if inter is not None:
                result.add(inter)
        return result

    def union(self, other: "RegionSet") -> "RegionSet":
        """A new region equal to the union of the two."""
        result = RegionSet(self.width, self._cubes)
        for cube in other._cubes:
            result.add(cube)
        return result

    def sample_counterexample(self, cube: TernaryMatch, rng: random.Random,
                              attempts: int = 64) -> Optional[int]:
        """Try to find a header in ``cube`` but not in this region.

        Randomized helper used by large-instance verification paths where
        the exact check has already passed and we only spot-check; returns
        ``None`` when no counterexample was found.
        """
        for _ in range(attempts):
            header = cube.sample(rng)
            if not self.contains(header):
                return header
        return None

    def __len__(self) -> int:
        return len(self._cubes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shown = ", ".join(c.to_string() for c in self._cubes[:4])
        extra = "" if len(self._cubes) <= 4 else f", ... ({len(self._cubes)} cubes)"
        return f"RegionSet[{shown}{extra}]"


def _covers(target: TernaryMatch, cubes: list[TernaryMatch]) -> bool:
    """Do ``cubes`` jointly cover every header of ``target``?"""
    for cube in cubes:
        if target.is_subset(cube):
            return True
    if not cubes:
        return False
    # Pick a split bit: a care bit of some cube that is free in `target`.
    split_bit = -1
    for cube in cubes:
        candidates = cube.mask & ~target.mask & ((1 << target.width) - 1)
        if candidates:
            split_bit = candidates.bit_length() - 1
            break
    if split_bit < 0:
        # Every cube is a superset-or-disjoint pattern on target's care
        # bits only; since none contained target above, and each either
        # contains or misses it entirely, coverage fails.
        return False
    b = 1 << split_bit
    for val in (0, b):
        half = TernaryMatch(target.width, target.mask | b, target.value | val)
        relevant = [c for c in cubes if c.intersects(half)]
        if not _covers(half, relevant):
            return False
    return True
