"""AMBA AHB protocol types and encoding helpers (AMBA spec rev 2.0).

The enumerations follow the encodings of the ARM AMBA Specification
(Rev 2.0, ARM IHI 0011A), chapter 3: ``HTRANS`` transfer types,
``HBURST`` burst kinds, ``HRESP`` slave responses and ``HSIZE``
transfer sizes.
"""

from __future__ import annotations

from enum import IntEnum


class HTRANS(IntEnum):
    """Transfer type driven by the granted master."""

    IDLE = 0b00
    BUSY = 0b01
    NONSEQ = 0b10
    SEQ = 0b11


class HBURST(IntEnum):
    """Burst kind driven by the granted master."""

    SINGLE = 0b000
    INCR = 0b001
    WRAP4 = 0b010
    INCR4 = 0b011
    WRAP8 = 0b100
    INCR8 = 0b101
    WRAP16 = 0b110
    INCR16 = 0b111


class HRESP(IntEnum):
    """Slave transfer response."""

    OKAY = 0b00
    ERROR = 0b01
    RETRY = 0b10
    SPLIT = 0b11


class HSIZE(IntEnum):
    """Transfer size (bytes = 2**HSIZE)."""

    BYTE = 0b000
    HALFWORD = 0b001
    WORD = 0b010
    DWORD = 0b011
    LINE4 = 0b100
    LINE8 = 0b101
    LINE16 = 0b110
    LINE32 = 0b111


#: Architected beat count by ``HBURST`` code (``None``: INCR, undefined
#: length), and whether each code wraps.  Indexed by code because an
#: enum member hashes in Python, not in C, and these run per beat.
_BEATS = (1, None, 4, 4, 8, 8, 16, 16)
_WRAPS = (False, False, True, False, True, False, True, False)

#: Members by code, and whether each ``HTRANS`` code addresses a slave.
#: The per-cycle model bodies look bus codes up here through
#: :func:`htrans_of`, :func:`hresp_of`, :func:`hburst_of` and
#: :func:`is_active_code`: an enum constructor costs about 1 µs, a dict
#: lookup a few tens of ns.  A code missing from a table is out of
#: range (a stuck-at fault can drive one); it goes to the constructor,
#: which raises the usual ``ValueError``.
HTRANS_BY_CODE = {member.value: member for member in HTRANS}
HRESP_BY_CODE = {member.value: member for member in HRESP}
HBURST_BY_CODE = {member.value: member for member in HBURST}
ACTIVE_BY_CODE = {member.value: member in (HTRANS.NONSEQ, HTRANS.SEQ)
                  for member in HTRANS}


def htrans_of(code):
    """``HTRANS(code)``, from :data:`HTRANS_BY_CODE`."""
    try:
        return HTRANS_BY_CODE[code]
    except (KeyError, TypeError):
        return HTRANS(code)


def hresp_of(code):
    """``HRESP(code)``, from :data:`HRESP_BY_CODE`."""
    try:
        return HRESP_BY_CODE[code]
    except (KeyError, TypeError):
        return HRESP(code)


def hburst_of(code):
    """``HBURST(code)``, from :data:`HBURST_BY_CODE`."""
    try:
        return HBURST_BY_CODE[code]
    except (KeyError, TypeError):
        return HBURST(code)


def is_active_code(code):
    """``is_active(HTRANS(code))``, from :data:`ACTIVE_BY_CODE`."""
    try:
        return ACTIVE_BY_CODE[code]
    except (KeyError, TypeError):
        return is_active(HTRANS(code))


def size_bytes(hsize):
    """Return the number of bytes moved per beat for *hsize*."""
    return 1 << int(hsize)


def burst_beats(hburst):
    """Return the architected beat count of *hburst*.

    ``HBURST.INCR`` (undefined length) returns ``None``; the master
    decides when the burst ends.
    """
    return _BEATS[hburst_of(hburst)]


def is_wrapping(hburst):
    """True when *hburst* is one of the wrapping burst kinds."""
    return _WRAPS[hburst_of(hburst)]


def aligned(address, hsize):
    """True when *address* is aligned for transfers of size *hsize*.

    AHB requires every beat address to be size-aligned (spec §3.4).
    """
    return address % size_bytes(hsize) == 0


def next_burst_address(address, hburst, hsize):
    """Return the address of the beat following *address* in a burst.

    Incrementing bursts add the beat size.  Wrapping bursts wrap at the
    boundary of ``beats * size_bytes`` (spec §3.5.4): a WRAP4 of word
    transfers at 0x38 proceeds 0x38, 0x3C, 0x30, 0x34.
    """
    hburst = hburst_of(hburst)
    step = size_bytes(hsize)
    if not _WRAPS[hburst]:
        return address + step
    span = _BEATS[hburst] * step
    boundary = (address // span) * span
    return boundary + (address + step - boundary) % span


def burst_addresses(start, hburst, hsize, beats=None):
    """Return the list of beat addresses of a whole burst.

    ``beats`` is required (and only allowed) for ``HBURST.INCR``.
    """
    hburst = hburst_of(hburst)
    fixed = _BEATS[hburst]
    if fixed is None:
        if beats is None:
            raise ValueError("INCR bursts need an explicit beat count")
    else:
        if beats is not None and beats != fixed:
            raise ValueError(
                "burst %s has %d beats, not %r" % (hburst.name, fixed, beats)
            )
        beats = fixed
    if beats < 1:
        raise ValueError("burst needs at least one beat")
    if not aligned(start, hsize):
        raise ValueError(
            "start address %#x is not aligned for %s"
            % (start, HSIZE(hsize).name)
        )
    if not _WRAPS[hburst]:
        # Fast path: incrementing bursts are a fixed-stride range.
        step = size_bytes(hsize)
        return [start + index * step for index in range(beats)]
    addresses = [start]
    for _ in range(beats - 1):
        addresses.append(next_burst_address(addresses[-1], hburst, hsize))
    return addresses


def is_active(htrans):
    """True for transfer types that address a slave (NONSEQ or SEQ)."""
    return htrans in (HTRANS.NONSEQ, HTRANS.SEQ)


def response_name(hresp):
    """Human-readable response name (tolerates raw integers)."""
    try:
        return HRESP(hresp).name
    except ValueError:
        return "HRESP(%r)" % hresp
