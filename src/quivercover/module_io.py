"""JSON (de)serialization of modules over base and covering carriers.

Base modules use plain vertex and arrow ids; covering modules suffix the
shift: "v@g" and "arrow@g", where g renders as a comma-separated integer
tuple for free-abelian groups and a single residue for cyclic ones.  A
module over an opposite spells the keys of its base.
"""

from __future__ import annotations

from .carrier import OppositeCarrier
from .errors import SchemaError
from .field import Mat
from .groups import _is_integer
from .modules import FDModule


def _shift_to_str(group, g) -> str:
    if group.kind == "cyclic":
        return str(g)
    return ",".join(str(c) for c in g)


def _shift_from_str(group, text: str):
    """The shift a key spells, checked against the group by the carrier."""
    try:
        if group.kind == "cyclic":
            return int(text)
        return tuple(int(c) for c in text.split(",")) if text else ()
    except ValueError:
        raise SchemaError(f"bad shift {text!r}") from None


def _keyed(carrier):
    """The carrier whose objects and generators the keys spell."""
    return carrier.base if isinstance(carrier, OppositeCarrier) else carrier


def _object_key(carrier, x) -> str:
    if carrier.is_cover:
        v, g = x
        return f"{v}@{_shift_to_str(carrier.group, g)}"
    return x


def _object_from_key(carrier, key: str):
    if carrier.is_cover:
        if "@" not in key:
            raise SchemaError(f"covering module keys need a shift: {key!r}")
        v, _, shift = key.rpartition("@")
        return (v, _shift_from_str(carrier.group, shift))
    return key


def _gen_key(carrier, g) -> str:
    if carrier.is_cover:
        name, shift = g
        return f"{name}@{_shift_to_str(carrier.group, shift)}"
    return g


def _gen_from_key(carrier, key: str):
    if carrier.is_cover:
        if "@" not in key:
            raise SchemaError(f"covering arrow keys need a shift: {key!r}")
        name, _, shift = key.rpartition("@")
        return (name, _shift_from_str(carrier.group, shift))
    return key


def _entry_to_json(field, value):
    return int(value) if field.is_prime_field else str(value)


def module_to_json(M: FDModule) -> dict:
    field = M.carrier.field
    keyed = _keyed(M.carrier)
    dims = {_object_key(keyed, x): d for x, d in sorted(M.dims.items(), key=str)}
    maps = {}
    for g, m in M.gen_mats.items():
        rows = m.tolists()
        maps[_gen_key(keyed, g)] = [[_entry_to_json(field, x) for x in row] for row in rows]
    return {"dims": dims, "arrowmaps": dict(sorted(maps.items()))}


def module_from_json(carrier, doc: dict) -> FDModule:
    if not isinstance(doc, dict) or not isinstance(doc.get("dims"), dict):
        raise SchemaError("module document needs a 'dims' object")
    if not isinstance(doc.get("arrowmaps", {}), dict):
        raise SchemaError("module 'arrowmaps' must be an object")
    field = carrier.field
    keyed = _keyed(carrier)
    dims = {}
    for key, d in doc["dims"].items():
        x = _object_from_key(keyed, key)
        # a key names its object only as module_to_json spells it, so no
        # two keys name one object
        if not carrier.has_object(x) or _object_key(keyed, x) != key:
            raise SchemaError(f"unknown object {key!r}")
        if not _is_integer(d) or d < 0:
            raise SchemaError(f"bad dimension {d!r} at {key!r}")
        dims[x] = d
    mats = {}
    for key, rows in doc.get("arrowmaps", {}).items():
        g = _gen_from_key(keyed, key)
        if not carrier.has_generator(g) or _gen_key(keyed, g) != key:
            raise SchemaError(f"unknown arrow {key!r}")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise SchemaError(f"map {key!r} must be a list of rows")
        try:
            entries = [[field.scalar_from_string(str(v)) for v in row] for row in rows]
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad entry in map {key!r}: {exc}") from exc
        s, t = carrier.gen_src(g), carrier.gen_tgt(g)
        ds, dt = dims.get(s, 0), dims.get(t, 0)
        # every given map is ds x dt, so [] when ds = 0 and [[], ...] when dt = 0
        if len(entries) != ds or any(len(r) != dt for r in entries):
            raise SchemaError(f"map {key!r} has shape {len(entries)}x?, expected {ds}x{dt}")
        if ds and dt:
            mats[g] = Mat.from_rows(field, entries)
    return FDModule(carrier, dims, mats)


def listing_to_json(modules: list) -> list:
    """Module listing: the module schema plus id and decomposition fields."""
    out = []
    for i, M in enumerate(modules):
        doc = module_to_json(M)
        doc["id"] = i
        doc["decomposition"] = [[i, 1]]
        out.append(doc)
    return out
