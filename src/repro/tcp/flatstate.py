"""Packed struct-of-arrays store for per-connection hot state.

Per-connection sender state (``snd_una``/``snd_nxt``/``cwnd``, RTT and
Vegas CAM accumulators, coarse-timer countdowns, the send-time heap
index) lives here in typed columns — one ``array('q')``/``array('d')``
per field, one slot index per connection — instead of being scattered
across ``TCPConnection``/``CongestionControl``/estimator instance
dictionaries.  Two things fall out of the layout:

* the host protocol's 500 ms/200 ms timer scans walk a handful of
  flat arrays over the open slots instead of bouncing through five
  attribute dictionaries per connection, which is what makes
  thousand-conversation runs affordable (see ``TCPProtocol``);
* the hot columns are exactly the state a compiled (mypyc/Cython)
  dispatch loop would need, without further refactoring.

(Plain-list columns were measured as an alternative SoA
representation: a list subscript is ~2x cheaper than a typed-array
subscript in isolation, but end-to-end the typed arrays win ~5% —
the contiguous C columns keep the protocol scans and per-ACK updates
cache-resident, and they enforce int-ness at every write.)

Every connection of a simulator shares one store (``store_for(sim)``),
so a protocol scan is sequential over packed memory.  There is no
per-object layout to fall back to: estimators, receiver halves and
controllers build a private single-slot store only when used
standalone (unit tests), never inside a connection.

Columns use sentinels instead of ``None``: ``-1`` for absent
ints (``t_rexmt``, ``timing_seq``, ``cam_end``) and NaN for absent
floats (``fine_srtt``, ``fine_base``, ...).  Accessor properties on
the owning objects translate back to ``None`` so the public API is
unchanged.
"""

from __future__ import annotations

from array import array
from typing import List

NAN = float("nan")

#: Typed integer columns (``array('q')``) and their slot defaults.
_INT_COLS = (
    # --- TCPConnection sender half --------------------------------
    ("snd_una", 0),
    ("snd_nxt", 0),
    ("snd_max", 0),
    ("peer_wnd", 0),
    ("dupacks", 0),
    ("t_rexmt", -1),          # ticks until coarse timeout; -1 = unarmed
    ("rexmt_shift", 0),
    ("consec_timeouts", 0),
    ("timing_seq", -1),       # coarse-timed sequence; -1 = none
    ("timing_ticks", 0),
    ("persist_shift", 0),
    ("persist_countdown", 0),
    # --- CongestionControl ----------------------------------------
    ("cwnd", 0),
    ("ssthresh", 0),
    # --- Vegas CAM epoch accumulators -----------------------------
    ("cam_end", -1),          # distinguished segment end; -1 = none
    ("cam_window", 0),
    ("cam_bytes_base", 0),
    ("cam_cwnd0", 0),
    ("cam_max_flight", 0),
    # --- RTT estimators (integer parts) ---------------------------
    ("coarse_rto_ticks", 0),
    ("coarse_samples", 0),
    ("fine_samples", 0),
)

#: Typed float columns (``array('d')``) and their slot defaults.
_FLT_COLS = (
    ("pace_next", 0.0),
    ("cam_sent", 0.0),
    ("fine_srtt", NAN),
    ("fine_rttvar", 0.0),
    ("fine_rto", 0.0),
    ("fine_base", NAN),
    ("fine_latest", NAN),
    ("coarse_srtt", NAN),
    ("coarse_rttvar", 0.0),
)

#: Small flag columns (``array('b')``).
_FLAG_COLS = (
    ("state_code", 0),        # State.<...>.value mirror (CLOSED == 0)
    ("delack", 0),            # ReceiverHalf.delack_pending
)

#: Per-slot container columns (plain Python lists of objects).
_OBJ_COLS = ("send_times", "ends_heap", "ambiguous", "probe_ends",
             "cam_samples")


def _fresh_containers():
    return {}, [], set(), set(), []


class ConnStateStore:
    """Slot-indexed struct-of-arrays backing store.

    ``alloc()`` hands out a slot initialised to the column defaults;
    ``release()`` recycles it.  Columns are public attributes so hot
    code hoists them into locals (``snd_nxt = store.snd_nxt``) and
    indexes by slot.
    """

    __slots__ = tuple(n for n, _ in _INT_COLS) \
        + tuple(n for n, _ in _FLT_COLS) \
        + tuple(n for n, _ in _FLAG_COLS) \
        + _OBJ_COLS + ("free_slots",)

    def __init__(self) -> None:
        for name, _ in _INT_COLS:
            setattr(self, name, array("q"))
        for name, _ in _FLT_COLS:
            setattr(self, name, array("d"))
        for name, _ in _FLAG_COLS:
            setattr(self, name, array("b"))
        for name in _OBJ_COLS:
            setattr(self, name, [])
        self.free_slots: List[int] = []

    def __len__(self) -> int:
        return len(self.snd_una)

    @property
    def live_slots(self) -> int:
        return len(self.snd_una) - len(self.free_slots)

    def alloc(self) -> int:
        """Return a slot index initialised to the column defaults."""
        free = self.free_slots
        if free:
            slot = free.pop()
            self.reset(slot)
            return slot
        for name, default in _INT_COLS:
            getattr(self, name).append(default)
        for name, default in _FLT_COLS:
            getattr(self, name).append(default)
        for name, default in _FLAG_COLS:
            getattr(self, name).append(default)
        for name, container in zip(_OBJ_COLS, _fresh_containers()):
            getattr(self, name).append(container)
        return len(self.snd_una) - 1

    def reset(self, slot: int) -> None:
        """Restore *slot* to the column defaults (fresh containers)."""
        for name, default in _INT_COLS:
            getattr(self, name)[slot] = default
        for name, default in _FLT_COLS:
            getattr(self, name)[slot] = default
        for name, default in _FLAG_COLS:
            getattr(self, name)[slot] = default
        for name, container in zip(_OBJ_COLS, _fresh_containers()):
            getattr(self, name)[slot] = container

    def release(self, slot: int) -> None:
        """Recycle *slot* for a future :meth:`alloc`."""
        self.free_slots.append(slot)


def store_for(sim) -> ConnStateStore:
    """The simulator-wide shared store (created on first use)."""
    store = getattr(sim, "_conn_store", None)
    if store is None:
        store = ConnStateStore()
        sim._conn_store = store
    return store
