#!/usr/bin/env python3
"""Failure injection and relaxed conformance checking (section 4.4).

Disks fail; at S3's scale they fail constantly, and ShardStore must handle
IO errors without operator intervention.  This example shows:

1. a transient read failure surfacing through the API and the store
   carrying on afterwards;
2. the conformance harness's *relaxed equivalence*: after an injected
   failure an operation may fail with no data, but may never return wrong
   data -- and untouched keys stay strictly checked;
3. the property-based failure-injection suite (the ``FailDiskOnce``
   alphabet) running clean against the correct implementation.

    python examples/failure_injection_demo.py
"""

from repro.core import BiasConfig, StoreHarness, failure_alphabet, run_conformance
from repro.shardstore import (
    FailureMode,
    FaultSet,
    IoError,
    StoreConfig,
    StoreSystem,
)


def main() -> None:
    system = StoreSystem(StoreConfig(seed=5))
    store = system.store

    print("== 1. a transient read failure ==")
    store.put(b"important", b"payload" * 40)
    store.flush_index()
    store.drain()
    extent = store.index.get(b"important")[0].extent
    store.cache.invalidate_all()  # force the next read to touch the disk
    system.disk.arm_fault(extent, FailureMode.ONCE, writes=False)
    try:
        store.get(b"important")
    except IoError as exc:
        print(f"  read failed as injected: {exc}")
    value = store.get(b"important")  # transient: the retry succeeds
    print(f"  retry succeeded: {len(value)} bytes intact\n")

    print("== 2. relaxed equivalence after a failed write ==")
    harness = StoreHarness(FaultSet.none(), seed=9)
    hstore = harness.system.store
    hstore.put(b"stable", b"S" * 100)
    harness.model.apply(b"stable", b"S" * 100)
    from repro.core.alphabet import Operation

    # Arm a write fault, then attempt a put that will fail midway.
    target = harness.system.config.data_extents[0]
    failure = harness.apply(0, Operation("FailDiskOnce", (target,)))
    assert failure is None
    failure = harness.apply(1, Operation("PumpIo", (50,)))  # fault fires here
    assert failure is None
    print(f"  harness entered relaxed mode (has_failed={harness.has_failed})")
    # The untouched key is still checked strictly:
    failure = harness.apply(2, Operation("Get", (b"stable",)))
    print(f"  strict check on untouched key: "
          f"{'violation!' if failure else 'passes'}\n")

    print("== 3. the failure-injection property suite (correct impl) ==")
    report = run_conformance(
        lambda seed: StoreHarness(FaultSet.none(), seed),
        failure_alphabet(),
        sequences=40,
        ops_per_sequence=80,
        bias=BiasConfig(),
    )
    assert report.passed, report.failure
    print(f"  {report.sequences_run} sequences with injected IO failures: "
          "no wrong data ever returned")


if __name__ == "__main__":
    main()
