"""TCP segments.

Segments carry virtual data: a starting sequence number and a payload
length, never actual bytes.  SYN and FIN each consume one sequence
number, as in real TCP.  Sequence numbers are plain Python integers —
the library's transfers are far below wrap-around, and unbounded ints
keep the arithmetic transparent.
"""

from __future__ import annotations

from repro.tcp.constants import HEADER_BYTES

# Flag bits.
FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4
#: ECN-Echo: the receiver saw a congestion-marked packet (RFC 3168).
FLAG_ECE = 0x8
#: SACK-permitted (RFC 2018), offered on an active open's SYN.  Like
#: the SYN's other options (MSS, window scale) it adds no wire bytes.
FLAG_SACK_OK = 0x10


#: Bytes each SACK block adds to the wire (two 4-byte sequence numbers).
SACK_BLOCK_BYTES = 8

#: At most this many SACK blocks fit in the option space (RFC 1072/2018).
MAX_SACK_BLOCKS = 3


class TCPSegment:
    """One TCP segment (header fields only; data is a byte count).

    ``sack`` carries selective-acknowledgement blocks — the RFC 1072
    extension the paper's §6 discusses — as a tuple of ``(start, end)``
    byte ranges the receiver holds above the cumulative ACK.
    """

    __slots__ = ("src_port", "dst_port", "seq", "length", "ack", "flags",
                 "wnd", "sack")

    def __init__(self, src_port: int, dst_port: int, seq: int, length: int,
                 ack: int = 0, flags: int = 0, wnd: int = 0,
                 sack: tuple = ()):
        if length < 0:
            raise ValueError("segment length must be non-negative")
        if len(sack) > MAX_SACK_BLOCKS:
            raise ValueError(f"at most {MAX_SACK_BLOCKS} SACK blocks fit")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.length = length
        self.ack = ack
        self.flags = flags
        self.wnd = wnd
        self.sack = sack if type(sack) is tuple else tuple(sack)

    # ------------------------------------------------------------------
    # Flag helpers
    # ------------------------------------------------------------------
    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def ece(self) -> bool:
        return bool(self.flags & FLAG_ECE)

    # ------------------------------------------------------------------
    # Sequence space
    # ------------------------------------------------------------------
    @property
    def seq_consumed(self) -> int:
        """Sequence numbers consumed: payload plus SYN/FIN flags."""
        return self.length + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def end_seq(self) -> int:
        """First sequence number *after* this segment."""
        return self.seq + self.seq_consumed

    @property
    def wire_size(self) -> int:
        """Bytes this segment occupies on the wire."""
        return HEADER_BYTES + self.length + SACK_BLOCK_BYTES * len(self.sack)

    def flag_names(self) -> str:
        names = []
        if self.syn:
            names.append("SYN")
        if self.has_ack:
            names.append("ACK")
        if self.fin:
            names.append("FIN")
        if self.ece:
            names.append("ECE")
        return "|".join(names) or "-"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TCPSegment({self.src_port}->{self.dst_port} "
                f"seq={self.seq} len={self.length} ack={self.ack} "
                f"{self.flag_names()} wnd={self.wnd})")
