"""Unit tests for operation alphabets, generation, and biasing."""

import hashlib
import random

import pytest

from repro.core.alphabet import (
    Alphabet,
    BiasConfig,
    GenContext,
    Operation,
    OpSpec,
    crash_alphabet,
    failure_alphabet,
    gen_key,
    gen_value,
    gen_value_len,
    node_alphabet,
    store_alphabet,
)


class TestGeneration:
    def test_deterministic_for_seed(self):
        alphabet = store_alphabet()
        a = alphabet.generate_sequence(random.Random(5), 40, BiasConfig())
        b = alphabet.generate_sequence(random.Random(5), 40, BiasConfig())
        assert a == b

    def test_different_seeds_differ(self):
        alphabet = store_alphabet()
        a = alphabet.generate_sequence(random.Random(1), 40, BiasConfig())
        b = alphabet.generate_sequence(random.Random(2), 40, BiasConfig())
        assert a != b

    def test_length_respected(self):
        ops = store_alphabet().generate_sequence(random.Random(0), 25, BiasConfig())
        assert len(ops) == 25

    def test_all_ops_from_alphabet(self):
        alphabet = crash_alphabet()
        names = set(alphabet.names())
        ops = alphabet.generate_sequence(random.Random(3), 200, BiasConfig())
        assert {op.name for op in ops} <= names

    def test_weights_bias_distribution(self):
        alphabet = store_alphabet()
        ops = alphabet.generate_sequence(random.Random(0), 2000, BiasConfig())
        counts = {}
        for op in ops:
            counts[op.name] = counts.get(op.name, 0) + 1
        assert counts["Get"] > counts["Reboot"]
        assert counts["Put"] > counts["Compact"]


#: SHA-256 of ``repr`` of the 60-op sequence each alphabet generates from
#: ``Random(seed)``, computed at 935676e (per-byte ``gen_value``, weights
#: re-summed per op).  Seeds 50058, 70278, 70380 and 110477 are the known
#: fault-free crash-alphabet failures (ROADMAP item 1): a generator change
#: that moves any stream moves them too.
_SEQUENCE_SHA256 = {
    ("store", 0): "0b78845dcd302b45632bf62a7390ba0f7cc5aa05790774d6bb92b66cc9c87b1d",
    ("store", 7): "94ce1d4d07e3844dc4e290a0f48ced9a9bf4609f29075dcabb250771c97a64dd",
    ("store", 50058): "5f013b299b683fadfdb54360d19eb3bc7eb58bc9b6165cd2129a7a8070186f05",
    ("store", 70278): "17c1d47879395a896d42b13550481eeafadc9b9cc57afcc2952ec86329444ce0",
    ("store", 70380): "0a7f2c1203c67997605060ba85a4221f32e38839d9415e46fe2f0840f038577b",
    ("store", 110477): "60742d430f44a2a9f647c819acc599fea834093206710f7fb02d59b5a7683df1",
    ("crash", 0): "119963d1e9e6a4435b2a18d8a514b3abd8860b3c3ea87314708edf17c19f4188",
    ("crash", 7): "113e020c1aea0ddbe8740fce884a4169a04f63d089322d460bac8022125edda9",
    ("crash", 50058): "93887c0903847cb8214be8f7ad6cf40200ad1a6c9f28d2be930f31307a86a5a1",
    ("crash", 70278): "85b19221a720a5d06d7bb403672f92c1c72d9e01151d0ab7904823d343872a79",
    ("crash", 70380): "7810594754bf837f8552053b37911f33865a19c772e87b059ce1d0f1acb4d74f",
    ("crash", 110477): "38a0b0637151a9dd4198f9c7f47745c3922a05c8eb127762e7fa58d70f6d8f8e",
    ("failure", 0): "8b339f7c5653c524d44dbd9da75421a9d868b29b315867d7ec4a85bce6dda8aa",
    ("failure", 7): "67a5cb1caa4f375f3658cad8586ec8283cb9368a4c9d7ef50df5fd163ec74ef0",
    ("failure", 50058): "86cca11400e8ec0edc46708c53df760dbf4ea796ea9f9383d919f777ae1f1569",
    ("failure", 70278): "213bf7b9e05cbbbb0fff87e9b6f8cbab3bec512a152c7de611c7b304ed8defd3",
    ("failure", 70380): "ee35b183509ef8dfc35d2daddb9a2b029b5e67238215a4dfd2191705e437804f",
    ("failure", 110477): "56439fc807d71a43b13d0f1681b6cc6cbf77e5e493d4741d3446fd1be1e76a59",
    ("node", 0): "ca944c2d1b1779b2ac3d6aee29c1055f03b18fb37acb1e394fef0caea626ff9e",
    ("node", 7): "137914cb4d917b7ec835a659a4f6a0a3fa3f405c475239869b9e39a647016f04",
    ("node", 50058): "14c87716fd4d7e7279375f5d0a1b6f39a4ee457016b7592e01dd38820c612379",
    ("node", 70278): "a766d9ce34a078028501e457a3484414c28b21ec1114cb6f6ade6971e6a8cd33",
    ("node", 70380): "947324b15ba2e95d32ec2967c725ca274d95557521a45d6f233d782251998805",
    ("node", 110477): "22a9b5ace28b8f99c76eeae3ef3d940fd20965b958536f798bb06b4ade42d958",
}

#: Alphabet and generation-context arguments as the ladder's
#: ``check-conformance`` workload passes them.
_STREAMS = {
    "store": (store_alphabet, {}),
    "crash": (crash_alphabet, {}),
    "failure": (failure_alphabet, {}),
    "node": (node_alphabet, {"num_disks": 3}),
}


class TestStreamIdentity:
    """Generated sequences are a function of the seed alone, across PRs."""

    @pytest.mark.parametrize("name,seed", sorted(_SEQUENCE_SHA256))
    def test_sequence_digest_is_pinned(self, name, seed):
        make, ctx_kwargs = _STREAMS[name]
        ops = make().generate_sequence(
            random.Random(seed), 60, BiasConfig(), **ctx_kwargs
        )
        digest = hashlib.sha256(repr(ops).encode()).hexdigest()
        assert digest == _SEQUENCE_SHA256[(name, seed)]

    def test_gen_value_equals_per_byte_draw(self):
        """``gen_value`` yields the bytes of one ``getrandbits(8)`` per byte
        and leaves the generator where those draws would, at every length."""
        bias = BiasConfig(page_boundary_size=0.0, max_value_len=701)
        lengths = set()
        for seed in range(300):
            ours = GenContext(rng=random.Random(seed))
            reference = GenContext(rng=random.Random(seed))
            for _ in range(40):
                value = gen_value(ours, bias)
                length = gen_value_len(reference, bias)
                assert value == bytes(
                    reference.rng.getrandbits(8) for _ in range(length)
                )
                lengths.add(length)
            assert ours.rng.random() == reference.rng.random()
        assert lengths == set(range(701))


class TestAlphabets:
    def test_store_alphabet_is_fig3_shaped(self):
        names = store_alphabet().names()
        # API operations first, background operations after (section 4.3's
        # increasing-complexity ordering for minimization).
        assert names.index("Get") < names.index("Reclaim")
        assert names.index("Put") < names.index("Reboot")

    def test_crash_alphabet_extends_store(self):
        assert set(store_alphabet().names()) < set(crash_alphabet().names())
        assert "DirtyReboot" in crash_alphabet().names()

    def test_failure_alphabet_has_injection_ops(self):
        names = failure_alphabet().names()
        assert "FailDiskOnce" in names and "ClearFaults" in names

    def test_node_alphabet_has_control_plane(self):
        names = node_alphabet().names()
        for op in ("ListShards", "RemoveDisk", "ReturnDisk", "BulkCreate"):
            assert op in names

    def test_variant_rank(self):
        alphabet = store_alphabet()
        assert alphabet.variant_rank("Get") == 0
        with pytest.raises(KeyError):
            alphabet.variant_rank("Nope")

    def test_duplicate_names_rejected(self):
        spec = OpSpec("X", 1.0, lambda ctx, bias: ())
        with pytest.raises(ValueError):
            Alphabet([spec, spec])

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Alphabet([])


class TestBias:
    def test_key_reuse_bias(self):
        ctx = GenContext(rng=random.Random(0))
        ctx.note_key(b"known")
        bias = BiasConfig(reuse_key=1.0)
        assert all(gen_key(ctx, bias) == b"known" for _ in range(20))

    def test_no_reuse_without_bias(self):
        ctx = GenContext(rng=random.Random(0))
        ctx.note_key(b"known")
        bias = BiasConfig(reuse_key=0.0, key_space=1 << 16)
        keys = {gen_key(ctx, bias) for _ in range(50)}
        assert b"known" not in keys or len(keys) > 40

    def test_page_boundary_bias(self):
        ctx = GenContext(rng=random.Random(0), page_size=128)
        bias = BiasConfig(page_boundary_size=1.0)
        sizes = [gen_value_len(ctx, bias) for _ in range(100)]
        assert all(min(abs(s - m * 128) for m in (1, 2, 3)) <= 2 for s in sizes)

    def test_unbiased_uniform_sizes(self):
        ctx = GenContext(rng=random.Random(0), page_size=128)
        sizes = [gen_value_len(ctx, BiasConfig.unbiased()) for _ in range(300)]
        near = sum(1 for s in sizes if min(abs(s - m * 128) for m in (1, 2, 3)) <= 2)
        assert near < 30  # boundary sizes are rare without bias

    def test_generation_notes_keys_for_reuse(self):
        alphabet = store_alphabet()
        rng = random.Random(1)
        ops = alphabet.generate_sequence(rng, 100, BiasConfig(reuse_key=0.9))
        keyed = [op.args[0] for op in ops if op.name in ("Get", "Put", "Delete")]
        assert len(set(keyed)) < len(keyed), "reuse should repeat keys"


class TestOperation:
    def test_str_rendering(self):
        op = Operation("Put", (b"k", b"v"))
        assert str(op) == "Put(b'k', b'v')"

    def test_equality_and_hash(self):
        assert Operation("Get", (b"k",)) == Operation("Get", (b"k",))
        assert hash(Operation("Get", (b"k",))) == hash(Operation("Get", (b"k",)))
