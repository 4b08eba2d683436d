"""Epoch tables: seal, check at the kernel, bump.

Each fault epoch's level table is one read-only in-process ``int8``
vector (:func:`repro.service.epoch.seal_epoch_table`), which the routing
kernel walks as it is.  The guarantees under test are the service's
consistency substrate:

* a sealed table holds a private copy of the levels and nothing else,
  and nothing a reader can write;
* the kernel-side check (:func:`repro.service.attach_epoch_table`)
  refuses a table of another epoch or dimension as
  :class:`TornTableError` — a kernel call never routes on the wrong
  table;
* a fault event publishes a new table and leaves every earlier one as
  it was, alive exactly as long as something refers to it.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core import FaultSet, Hypercube
from repro.safety.levels import compute_safety_levels
from repro.service import EpochManager, TornTableError, attach_epoch_table
from repro.service.epoch import seal_epoch_table

FAULTS = FaultSet(nodes=[0, 5])


def _levels(n=4, faults=FAULTS):
    return np.asarray(compute_safety_levels(Hypercube(n), faults),
                      dtype=np.int8)


class TestPublishAttach:
    def test_round_trip_is_bit_identical(self):
        levels = _levels()
        view = seal_epoch_table(3, 4, levels, FAULTS)
        assert (view.epoch, view.n, view.faults) == (3, 4, FAULTS)
        got_levels = attach_epoch_table(view, 3, 4)
        assert got_levels is view.levels
        assert got_levels.dtype == np.int8
        assert np.array_equal(got_levels, levels)
        # a private copy: the caller's array may change afterwards
        levels[1] = 0
        assert got_levels[1] != 0

    def test_attached_views_are_read_only(self):
        view = seal_epoch_table(1, 4, _levels(), FAULTS)
        levels = attach_epoch_table(view, 1, 4)
        with pytest.raises(ValueError):
            levels[0] = 9

    def test_view_carries_only_its_levels(self):
        # the level vector is the whole table, on every cube size: no
        # derived per-node array rides beside it
        assert [f.name for f in dataclasses.fields(seal_epoch_table(
            1, 4, _levels(), FAULTS))] == ["epoch", "n", "faults", "levels"]
        n = 16
        levels = np.full(1 << n, n, dtype=np.int8)
        view = seal_epoch_table(1, n, levels, FaultSet())
        got_levels = attach_epoch_table(view, 1, n)
        assert np.array_equal(got_levels, levels)
        assert not got_levels.flags.writeable

    def test_epoch_zero_is_rejected_at_publish(self):
        with pytest.raises(ValueError, match="epochs start at 1"):
            seal_epoch_table(0, 4, _levels(), FAULTS)


class TestTornDetection:
    def test_wrong_epoch_fails_fast(self):
        view = seal_epoch_table(2, 4, _levels(), FAULTS)
        with pytest.raises(TornTableError, match="have epoch 2"):
            attach_epoch_table(view, 5, 4)
        with pytest.raises(TornTableError, match="n=4"):
            attach_epoch_table(view, 2, 5)


class TestEpochManagerLifecycle:
    def test_bump_retires_and_recycles_old_epoch(self):
        """Retired: the manager serves the new epoch.  Recycled: the old
        table is freed once nothing refers to it — the manager keeps no
        reference of its own."""
        with EpochManager(Hypercube(4), FaultSet(nodes=[0])) as mgr:
            old = weakref.ref(mgr.current.levels)
            swap = mgr.apply_fault_event(add=[9])
            assert swap.epoch == 2 and swap.spare
            assert mgr.current.epoch == 2
            gc.collect()
            assert old() is None

    def test_held_view_survives_bump(self):
        """A flush that took epoch 1's view keeps routing on it after a
        fault event publishes epoch 2."""
        with EpochManager(Hypercube(4), FaultSet(nodes=[0])) as mgr:
            held = mgr.current
            before = held.levels.copy()
            mgr.apply_fault_event(add=[9])
            assert held.epoch == 1
            assert np.array_equal(held.levels, before)
            assert attach_epoch_table(held, 1, 4) is held.levels
            with pytest.raises(TornTableError):
                attach_epoch_table(mgr.current, 1, 4)

    def test_no_mixed_epoch_reads_across_bump(self):
        # every epoch's table matches the fixed point of that epoch's
        # fault set, never a blend of adjacent epochs
        topo = Hypercube(4)
        with EpochManager(topo, FaultSet(nodes=[0])) as mgr:
            views = [mgr.current]
            for victim in (3, 9, 12):
                swap = mgr.apply_fault_event(add=[victim])
                views.append(mgr.current)
                assert views[-1].epoch == swap.epoch
            for view in views:
                levels = attach_epoch_table(view, view.epoch, 4)
                assert np.array_equal(levels, _levels(faults=view.faults))
            for prev, view in zip(views, views[1:]):
                assert not np.array_equal(prev.levels, view.levels)

    def test_close_refuses_events_and_keeps_views_readable(self):
        mgr = EpochManager(Hypercube(4), FaultSet(nodes=[0]))
        mgr.apply_fault_event(add=[9])
        view = mgr.current
        mgr.close()
        with pytest.raises(RuntimeError, match="closed"):
            mgr.apply_fault_event(add=[3])
        assert mgr.current is view
        assert attach_epoch_table(view, 2, 4) is view.levels
        mgr.close()  # idempotent
