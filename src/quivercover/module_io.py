"""JSON (de)serialization of modules over base and covering carriers.

Base modules use plain vertex and arrow ids; covering modules suffix the
shift: "v@g" and "arrow@g", where g renders as a comma-separated integer
tuple for free-abelian groups and a single residue for cyclic ones.
"""

from __future__ import annotations

from .errors import SchemaError
from .field import Mat
from .modules import FDModule


def _shift_to_str(group, g) -> str:
    if group.kind == "cyclic":
        return str(g)
    return ",".join(str(c) for c in g)


def _shift_from_str(group, text: str):
    """The shift a key spells, checked against the group by the carrier."""
    try:
        if group.kind == "cyclic":
            return int(text) % group.order
        return tuple(int(c) for c in text.split(",")) if text else ()
    except ValueError:
        raise SchemaError(f"bad shift {text!r}") from None


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
    dims = {_object_key(M.carrier, x): d for x, d in sorted(M.dims.items(), key=str)}
    maps = {}
    for g, m in M.gen_mats.items():
        maps[_gen_key(M.carrier, g)] = [
            [_entry_to_json(field, m.a[i, j]) for j in range(m.cols)] for i in range(m.rows)
        ]
    return {"dims": dims, "arrowmaps": dict(sorted(maps.items()))}


def module_from_json(carrier, doc: dict) -> FDModule:
    if not isinstance(doc, dict) or "dims" not in doc:
        raise SchemaError("module document needs a 'dims' object")
    field = carrier.field
    dims = {}
    for key, d in doc["dims"].items():
        x = _object_from_key(carrier, key)
        if not carrier.has_object(x):
            raise SchemaError(f"unknown object {key!r}")
        if not isinstance(d, int) or d < 0:
            raise SchemaError(f"bad dimension {d!r} at {key!r}")
        dims[x] = d
    mats = {}
    for key, rows in doc.get("arrowmaps", {}).items():
        g = _gen_from_key(carrier, key)
        if not carrier.has_generator(g):
            raise SchemaError(f"unknown arrow {key!r}")
        entries = [[field.scalar_from_string(str(v)) for v in row] for row in rows]
        s, t = carrier.gen_src(g), carrier.gen_tgt(g)
        ds, dt = dims.get(s, 0), dims.get(t, 0)
        if ds and dt:
            if len(entries) != ds or any(len(r) != dt for r in entries):
                raise SchemaError(
                    f"map {key!r} has shape {len(entries)}x?, expected {ds}x{dt}"
                )
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
