"""Tests for the Fig. 5 fault registry itself."""


from repro.shardstore import FAULT_CATALOG, Fault, FaultSet, detector_for


class TestCatalog:
    def test_sixteen_issues(self):
        assert len(Fault) == 16
        assert len(FAULT_CATALOG) == 16
        assert sorted(f.value for f in Fault) == list(range(1, 17))

    def test_paper_property_distribution(self):
        """Fig. 5's grouping: 5 functional, 5 crash, 6 concurrency."""
        by_property = {}
        for meta in FAULT_CATALOG.values():
            by_property.setdefault(meta["property"], []).append(meta)
        assert len(by_property["Functional Correctness"]) == 5
        assert len(by_property["Crash Consistency"]) == 5
        assert len(by_property["Concurrency"]) == 6

    def test_paper_component_distribution(self):
        """Fig. 5's components: chunk store is the biggest source."""
        components = [meta["component"] for meta in FAULT_CATALOG.values()]
        assert components.count("Chunk store") == 6
        assert components.count("Superblock") == 3
        assert components.count("API") == 3
        assert components.count("Buffer cache") == 2
        assert components.count("Index") == 2

    def test_every_fault_has_detector(self):
        for fault in Fault:
            assert detector_for(fault) in (
                "conformance PBT",
                "crash-consistency PBT",
                "stateless model checking",
            )


class TestFaultSet:
    def test_none_is_empty(self):
        faults = FaultSet.none()
        assert not faults
        assert all(not faults.enabled(f) for f in Fault)

    def test_only_enables_one(self):
        faults = FaultSet.only(Fault.RECLAIM_OFF_BY_ONE)
        assert faults.enabled(Fault.RECLAIM_OFF_BY_ONE)
        assert not faults.enabled(Fault.CACHE_NOT_DRAINED_ON_RESET)

    def test_iteration_ordered_by_number(self):
        faults = FaultSet([Fault.LIST_REMOVE_RACE, Fault.RECLAIM_OFF_BY_ONE])
        assert [f.value for f in faults] == [1, 13]

    def test_repr_names_faults(self):
        assert "RECLAIM_OFF_BY_ONE" in repr(FaultSet.only(Fault.RECLAIM_OFF_BY_ONE))
