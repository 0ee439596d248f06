"""Operation alphabets with argument biasing (sections 4.1-4.2).

A property-based conformance test is parameterised by an *alphabet* of
operations: the component's API calls plus background operations that are
no-ops in the reference model (Fig. 3).  Each test run draws a random
sequence from the alphabet and applies it to both model and implementation.

Two design rules from the paper are encoded here:

* **Ordering for minimization** (section 4.3): shrinkers prefer earlier
  variants, so alphabets list operations in increasing order of complexity
  -- ``Get`` before ``Put`` before crashes and failure injection.

* **Argument bias** (section 4.2): naive random keys for ``Get`` and
  ``Put`` would rarely coincide, so key selection prefers keys that were
  put earlier; value sizes are biased toward page-size boundaries ("in our
  experience frequent causes of bugs").  Biases are probabilistic only --
  unbiased choices always remain possible.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Operation:
    """One operation in a generated sequence: a name and plain-data args."""

    name: str
    args: Tuple = ()

    def __str__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({rendered})"


@dataclass
class GenContext:
    """Mutable generation context threaded through argument generators.

    Tracks the keys already used so later operations can be biased toward
    them (the successful-``Get``-path bias of section 4.2).
    """

    rng: random.Random
    page_size: int = 128
    num_data_extents: int = 8
    first_data_extent: int = 4
    num_disks: int = 1
    keys_seen: List[bytes] = field(default_factory=list)

    def note_key(self, key: bytes) -> None:
        if key not in self.keys_seen:
            self.keys_seen.append(key)


@dataclass(frozen=True)
class BiasConfig:
    """Probabilities for the section 4.2 argument biases (0 disables)."""

    reuse_key: float = 0.7  # prefer a previously used key
    page_boundary_size: float = 0.35  # prefer sizes near page multiples
    key_space: int = 16  # fresh keys are drawn from k0..k{n-1}
    max_value_len: int = 600

    @classmethod
    def unbiased(cls) -> "BiasConfig":
        """The naive strategy of section 4.2: keys drawn uniformly from a
        large space (so gets and puts rarely coincide), sizes uniform."""
        return cls(reuse_key=0.0, page_boundary_size=0.0, key_space=1 << 16)


def gen_key(ctx: GenContext, bias: BiasConfig) -> bytes:
    """A shard key, biased toward keys already used in this sequence."""
    if ctx.keys_seen and ctx.rng.random() < bias.reuse_key:
        return ctx.rng.choice(ctx.keys_seen)
    key = b"k%d" % ctx.rng.randrange(bias.key_space)
    return key


def gen_value_len(ctx: GenContext, bias: BiasConfig) -> int:
    """A value size, biased toward page-size boundaries (section 4.2)."""
    if ctx.rng.random() < bias.page_boundary_size:
        multiple = ctx.rng.randrange(1, 4) * ctx.page_size
        return max(0, multiple + ctx.rng.randrange(-2, 3))
    return ctx.rng.randrange(0, bias.max_value_len)


def gen_value(ctx: GenContext, bias: BiasConfig) -> bytes:
    """``length`` random bytes, drawn in bulk.

    ``getrandbits(8)`` is the top byte of one 32-bit Mersenne-Twister
    word, and ``getrandbits(32 * n)`` lays ``n`` such words out least
    significant first -- so byte 3 of every little-endian word is the same
    bytes as ``bytes(rng.getrandbits(8) for _ in range(n))`` and leaves the
    generator in the same state: every seeded sequence is unchanged.
    """
    length = gen_value_len(ctx, bias)
    if not length:
        return b""  # getrandbits(0) is an error before Python 3.9
    return ctx.rng.getrandbits(32 * length).to_bytes(4 * length, "little")[3::4]


def gen_extent(ctx: GenContext) -> int:
    return ctx.first_data_extent + ctx.rng.randrange(ctx.num_data_extents)


@dataclass(frozen=True)
class OpSpec:
    """One alphabet entry: a name, a weight, and an argument generator."""

    name: str
    weight: float
    gen_args: Callable[[GenContext, BiasConfig], Tuple]


class Alphabet:
    """An ordered, weighted set of operation specs."""

    def __init__(self, specs: Sequence[OpSpec]) -> None:
        if not specs:
            raise ValueError("empty alphabet")
        self.specs = list(specs)
        self._rank = {spec.name: rank for rank, spec in enumerate(self.specs)}
        if len(self._rank) != len(self.specs):
            raise ValueError("duplicate operation names in alphabet")
        # ``sum`` for the total and a left-to-right running total for the
        # thresholds, exactly what a per-op loop computes (the two can differ
        # in the last bit): the same ``rng.random()`` picks the same spec.
        self._total = sum(spec.weight for spec in self.specs)
        self._cumulative = list(
            itertools.accumulate(spec.weight for spec in self.specs)
        )

    def names(self) -> List[str]:
        return [spec.name for spec in self.specs]

    def variant_rank(self, name: str) -> int:
        """Position in the alphabet; shrinking prefers lower ranks."""
        return self._rank[name]

    def generate_op(self, ctx: GenContext, bias: BiasConfig) -> Operation:
        point = ctx.rng.random() * self._total
        # First spec whose running total exceeds the point; the last spec
        # when rounding leaves the point at or past the final total.
        rank = bisect.bisect_right(self._cumulative, point)
        chosen = self.specs[min(rank, len(self.specs) - 1)]
        op = Operation(chosen.name, chosen.gen_args(ctx, bias))
        if op.name in ("Put", "Get", "Delete") and op.args:
            ctx.note_key(op.args[0])
        return op

    def generate_sequence(
        self, rng: random.Random, length: int, bias: BiasConfig, **ctx_kwargs
    ) -> List[Operation]:
        ctx = GenContext(rng=rng, **ctx_kwargs)
        return [self.generate_op(ctx, bias) for _ in range(length)]


# ----------------------------------------------------------------------
# concrete alphabets (ordered by increasing complexity, section 4.3)

def _no_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return ()


def _key_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (gen_key(ctx, bias),)


def _put_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (gen_key(ctx, bias), gen_value(ctx, bias))


def _extent_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (gen_extent(ctx),)


def _pump_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (ctx.rng.randrange(1, 24),)


def store_alphabet() -> Alphabet:
    """The Fig. 3 alphabet for the single-store conformance test."""
    return Alphabet(
        [
            OpSpec("Get", 3.0, _key_args),
            OpSpec("Put", 3.0, _put_args),
            OpSpec("Delete", 1.0, _key_args),
            OpSpec("FlushIndex", 0.6, _no_args),
            OpSpec("FlushSuperblock", 0.6, _no_args),
            OpSpec("Compact", 0.4, _no_args),
            OpSpec("Reclaim", 0.8, _extent_args),
            OpSpec("PumpIo", 0.8, _pump_args),
            OpSpec("Scrub", 0.3, _no_args),
            OpSpec("Reboot", 0.3, _no_args),
        ]
    )


def _dirty_reboot_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    flush_index = ctx.rng.random() < 0.4
    flush_superblock = ctx.rng.random() < 0.4
    pump = ctx.rng.choice([0, 1, 4, 16, None])
    return (flush_index, flush_superblock, pump)


def _partial_reclaim_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (gen_extent(ctx), ctx.rng.randrange(1, 4))


def crash_alphabet() -> Alphabet:
    """The section 5 alphabet: store ops + component flushes + DirtyReboot.

    ``PartialReclaim`` interrupts garbage collection mid-pass, so a
    following ``DirtyReboot`` lands in a crash-during-reclamation state --
    the setting of the paper's issue #9.
    """
    base = store_alphabet()
    return Alphabet(
        base.specs
        + [
            OpSpec("PartialReclaim", 0.4, _partial_reclaim_args),
            OpSpec("DirtyReboot", 0.9, _dirty_reboot_args),
        ]
    )


def _fail_extent_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (gen_extent(ctx),)


def failure_alphabet() -> Alphabet:
    """The section 4.4 alphabet: store ops + IO failure injection."""
    base = store_alphabet()
    return Alphabet(
        base.specs
        + [
            OpSpec("FailDiskOnce", 0.5, _fail_extent_args),
            OpSpec("ClearFaults", 0.3, _no_args),
        ]
    )


def _disk_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (ctx.rng.randrange(ctx.num_disks),)


def _bulk_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    count = ctx.rng.randrange(1, 5)
    keys = tuple(gen_key(ctx, bias) for _ in range(count))
    for key in keys:
        ctx.note_key(key)
    return (keys,)


def _bulk_create_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    (keys,) = _bulk_args(ctx, bias)
    return (tuple((key, gen_value(ctx, bias)) for key in keys),)


def _migrate_args(ctx: GenContext, bias: BiasConfig) -> Tuple:
    return (gen_key(ctx, bias), ctx.rng.randrange(ctx.num_disks))


def node_alphabet() -> Alphabet:
    """The storage-node (RPC/control-plane) alphabet: section 2.1's API."""
    return Alphabet(
        [
            OpSpec("Get", 3.0, _key_args),
            OpSpec("Put", 3.0, _put_args),
            OpSpec("Delete", 1.0, _key_args),
            OpSpec("ListShards", 0.8, _no_args),
            OpSpec("BulkCreate", 0.5, _bulk_create_args),
            OpSpec("BulkDelete", 0.5, _bulk_args),
            OpSpec("MigrateShard", 0.5, _migrate_args),
            OpSpec("RemoveDisk", 0.5, _disk_args),
            OpSpec("ReturnDisk", 0.5, _disk_args),
        ]
    )


#: Every conformance alphabet by name (the CLI's ``--alphabet`` choices).
ALPHABETS: Dict[str, Callable[[], Alphabet]] = {
    "store": store_alphabet,
    "crash": crash_alphabet,
    "failure": failure_alphabet,
    "node": node_alphabet,
}
