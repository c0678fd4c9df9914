"""The canonical JSON writer: emit(obj, nl, out) appends to out, in pieces,
the bytes of json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False),
and cli.canonical_json joins them and adds a newline. cli imports this
module on the first write, so a fresh start of the command line compiles
none of it.

The stdlib's indented form runs on its pure-Python encoder, item by item.
This writer fills every list whose rows one %-template spells from that
template in one step: arrays of one length down to int or str leaves (a
point list, a [num, den] vector, a label list), and records, dicts of one
key set whose values share, key by key, one shape (cone face rows,
polytope hyperplanes, Gelfand-Tsetlin vertex rows). Strs are escaped
before they fill a template, and keys are escaped into it with each %
doubled. Every column of a record list is checked at its top level before
any is descended, so a ragged list fails before it is flattened and is
written row by row. Row templates are kept per shape and indent, a bounded
number of them, and no whole-list string is kept; a list longer than
CHUNK_ROWS rows is filled in chunks of about CHUNK_CHARS of template, sized
by its first row, so the writer's working memory stays bounded. On the
42 MB output of `gt --n 5 subdivide --face full` the writer took 0.30 s
and the stdlib 2.17 s (best of 5, in process, one CPU of a shared 2-CPU
host).
"""

from __future__ import annotations

import functools
import itertools
from json.encoder import encode_basestring as _escape  # the C escaper
from operator import itemgetter
from typing import Optional, Sequence

CHUNK_ROWS = 512  # a longer list is filled in chunks of rows, each from one template
CHUNK_CHARS = 1 << 18  # about the largest chunk template
_ARRAYS = {list, tuple}
_STR = {str}


def emit(obj, nl: str, out: list[str]) -> None:
    """Append obj's canonical JSON to out, in pieces; nl is a newline plus
    the indent of the line obj starts on."""
    t = type(obj)
    if t is str:
        out.append(_escape(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner, sep, lead, close = _indent(nl)
        size = len(obj)
        if size > CHUNK_ROWS:  # chunks of as many rows as fill CHUNK_CHARS, by the first
            found = _fill(obj[:1])
            size = CHUNK_ROWS if found is None else CHUNK_CHARS // len(_template(found[0], inner)) + 1
        for start in range(0, len(obj), size):
            rows = obj if size >= len(obj) else obj[start:start + size]
            found = _fill(rows)
            if found is not None:  # one template for the chunk's rows
                out.append(lead)
                out.append(sep.join([_template(found[0], inner)] * len(rows)) % tuple(found[1]))
                lead = sep
                continue
            for x in rows:
                out.append(lead)
                lead = sep
                emit(x, inner, out)
        out.append(close)
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        if not all(type(k) is str for k in obj):
            raise TypeError("canonical JSON keys must be str")
        inner = nl + "  "
        sep = "," + inner
        for i, k in enumerate(sorted(obj)):
            out.append((sep if i else "{" + inner) + _escape(k) + ": ")
            emit(obj[k], inner, out)
        out.append(nl + "}")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"canonical JSON has no form for {t.__name__}")


def _head(col: Sequence):
    """What a nonempty column's values share at their top level: "%d" or
    "%s" for ints or strs, one length for lists and tuples, the first's
    sorted keys for dicts of one size; None for nothing."""
    types = set(map(type, col))
    t = types.pop() if len(types) == 1 else list if types == _ARRAYS else None
    if t is int or t is str:
        return "%d" if t is int else "%s"
    if t is list or t is tuple or t is dict:
        sizes = set(map(len, col))
        return None if len(sizes) > 1 else tuple(sorted(col[0])) if t is dict else sizes.pop()
    return None


def _fill(col: Sequence, head=None) -> Optional[tuple[object, tuple]]:
    """For a nonempty column of values that one row template spells: its
    shape and their leaves, row by row, strs escaped; else None. A shape is
    "%d", "%s", "[]", "{}", (length, item shape) or (keys, value shapes).
    An array's items are one column, a record's values one column per key,
    and every column's head is checked before any is descended."""
    head = _head(col) if head is None else head
    if head is None:
        return None
    if type(head) is str:
        return head, (col if head == "%d" else tuple(map(_escape, col)))
    if not head:
        return ("[]" if type(head) is int else "{}"), ()
    if type(head) is int:
        found = _fill(tuple(itertools.chain.from_iterable(col)))
        return None if found is None else ((head, found[0]), found[1])
    try:  # a dict of the head's size has its keys unless this raises; for
        # one key, itemgetter gives the value itself, not a 1-tuple
        columns = (list(zip(*map(itemgetter(*head), col))) if len(head) > 1
                   else [tuple(map(itemgetter(*head), col))])
    except KeyError:
        return None
    heads = []
    for c in columns:  # stops at the first ragged column
        heads.append(_head(c))
        if heads[-1] is None:
            return None
    # the first row's keys, which the template spells; every other row has
    # keys equal to these, so only an equal str subclass can differ there,
    # and the template spells it as json.dumps does
    if set(map(type, head)) != _STR:
        raise TypeError("canonical JSON keys must be str")
    found = list(map(_fill, columns, heads))
    if None in found:
        return None
    shapes, flats = zip(*found)
    flats = list(filter(None, flats))
    if len(flats) < 2:
        return (head, shapes), (flats[0] if flats else ())
    if sum(map(len, flats)) == len(flats) * len(col):  # one leaf a row in each column
        return (head, shapes), tuple(itertools.chain.from_iterable(zip(*flats)))
    # each column's leaves cut into rows, then interleaved row by row
    rows = zip(*(zip(*[iter(flat)] * (len(flat) // len(col))) for flat in flats))
    return (head, shapes), tuple(itertools.chain.from_iterable(itertools.chain.from_iterable(rows)))


@functools.lru_cache(maxsize=64)
def _indent(nl: str) -> tuple[str, str, str, str]:
    """A list's items' indent and separator and its two brackets, for a
    list on the indent nl; kept, so that each is one object in out."""
    inner = nl + "  "
    return inner, "," + inner, "[" + inner, nl + "]"


@functools.lru_cache(maxsize=256)
def _template(shape, nl: str) -> str:
    """The %-template of a row of the shape on the indent nl, its keys
    escaped into it with each % doubled."""
    if type(shape) is str:
        return shape
    head, items = shape
    inner = nl + "  "
    if type(head) is int:
        return "[" + inner + ("," + inner).join([_template(items, inner)] * head) + nl + "]"
    return "{" + inner + ("," + inner).join(
        _escape(k).replace("%", "%%") + ": " + _template(s, inner)
        for k, s in zip(head, items)) + nl + "}"
