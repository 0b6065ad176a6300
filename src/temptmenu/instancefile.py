"""Reading and writing problem instances as YAML documents.

Schema::

    alternatives:                 # one entry per product
      - {id: A, u: 10, v: 10, c: 5}
      - {id: B, u: 8, v: 14, c: 5}
    cost_function:
      kind: piecewise_linear      # or "power"
      l: 0.5                      # piecewise_linear: l, k, w
      k: 2.0
      w: 1.0
    solver:                       # optional
      grid:                       # default grid for verification
        price_step: 0.01
        price_min: 0.0
        price_max: 20.0
        max_menu_size: 3
        include_analytic_prices: true

Parse errors carry the YAML line/column where available; validation
errors name the offending key or alternatives.  A key the schema does not
list is an error naming its path, not ignored; so is a key repeated in one
mapping, which YAML would otherwise resolve silently to its last value.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields
from typing import get_args

import yaml

from .model import Alternative, CostFunction, ProblemInstance
from .oracle import GridSpec


class InstanceFileError(ValueError):
    """A document failed to parse or does not follow the schema."""


@dataclass(frozen=True)
class InstanceDocument:
    """A parsed instance plus its optional default verification grid."""

    instance: ProblemInstance
    grid: GridSpec | None = None


def _fail(path: str, why: str):
    raise InstanceFileError(f"{path}: {why}")


def _as_map(node, path: str) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected a mapping, got {type(node).__name__}")
    return node


_MERGE_TAG = "tag:yaml.org,2002:merge"


def _no_duplicate_keys(loader: yaml.SafeLoader, node, path: str, seen: set) -> None:
    """Raise naming the path and position of the first key repeated in a mapping.

    ``path`` is the node's own path; keys of the document's top level are
    named ``document.<key>``, as unknown keys are.
    """
    if id(node) in seen:  # an alias of a node already checked
        return
    seen.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _no_duplicate_keys(loader, item, f"{path}[{i}]", seen)
    elif isinstance(node, yaml.MappingNode):
        keys = set()
        for key_node, value_node in node.value:
            if key_node.tag == _MERGE_TAG or not isinstance(key_node, yaml.ScalarNode):
                continue  # merged keys may be overridden; other keys are YAML's to reject
            key = loader.construct_object(key_node)
            if key in keys:
                mark = key_node.start_mark
                _fail(f"{path}.{key}", f"duplicate key at line {mark.line + 1}, "
                                       f"column {mark.column + 1}")
            keys.add(key)
            child = str(key) if path == "document" else f"{path}.{key}"
            _no_duplicate_keys(loader, value_node, child, seen)


def _safe_load(text: str):
    """``yaml.safe_load`` that rejects a repeated key instead of keeping its last value."""
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        _no_duplicate_keys(loader, node, "document", set())
        return loader.construct_document(node)
    finally:
        loader.dispose()


def _known(node: dict, keys: list[str], path: str) -> dict:
    for key in node:
        if key not in keys:
            _fail(f"{path}.{key}", f"unknown key; expected one of {', '.join(keys)}")
    return node


def _get(node: dict, key: str, path: str):
    if key not in node:
        _fail(path, f"missing required key {key!r}")
    return node[key]


def _number(node: dict, key: str, path: str) -> float:
    value = _get(node, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int past the doubles
        _fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _cost_function(node, path: str) -> CostFunction:
    node = _as_map(node, path)
    kind = _get(node, "kind", path)
    # the family named ``kind``; its other keys are the class's dataclass fields
    cls = next((c for c in get_args(CostFunction) if c.kind == kind), None)
    if cls is None:
        _fail(f"{path}.kind", f"unknown cost function kind {kind!r}")
    names = [f.name for f in fields(cls)]
    _known(node, ["kind", *names], path)
    params = {name: _number(node, name, path) for name in names}
    try:
        return cls(**params)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_instance(text: str) -> InstanceDocument:
    """Parse a YAML instance document; see the module docstring for the schema.

    Model-assumption violations (tied maximizers and the like) propagate
    as ``AssumptionViolated`` with the tied alternatives named.
    """
    try:
        root = _safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        # kept to one line: str(exc) quotes the document over several
        parts = [getattr(exc, name, None) for name in ("context", "problem")]
        why = "; ".join(part for part in parts if part) or " ".join(str(exc).split())
        raise InstanceFileError(f"invalid YAML{where}: {why}") from exc
    root = _known(_as_map(root, "document"), ["alternatives", "cost_function", "solver"],
                  "document")

    raw_alts = _get(root, "alternatives", "document")
    if not isinstance(raw_alts, list) or not raw_alts:
        _fail("alternatives", "expected a non-empty list")
    alts = []
    for i, entry in enumerate(raw_alts):
        path = f"alternatives[{i}]"
        entry = _known(_as_map(entry, path), [f.name for f in fields(Alternative)], path)
        alt_id = _get(entry, "id", path)
        if not isinstance(alt_id, str) or not alt_id:
            _fail(f"{path}.id", f"expected a non-empty string, got {alt_id!r}")
        alts.append(
            Alternative(
                id=alt_id,
                u=_number(entry, "u", path),
                v=_number(entry, "v", path),
                c=_number(entry, "c", path),
            )
        )
    cost_fn = _cost_function(_get(root, "cost_function", "document"), "cost_function")

    grid = None
    if "solver" in root and root["solver"] is not None:
        solver = _known(_as_map(root["solver"], "solver"), ["grid"], "solver")
        if "grid" in solver and solver["grid"] is not None:
            gnode = _as_map(solver["grid"], "solver.grid")
            _known(gnode, [f.name for f in fields(GridSpec)], "solver.grid")
            kwargs = {
                "price_step": _number(gnode, "price_step", "solver.grid"),
                "price_min": _number(gnode, "price_min", "solver.grid"),
                "price_max": _number(gnode, "price_max", "solver.grid"),
            }
            if "max_menu_size" in gnode:
                size = _number(gnode, "max_menu_size", "solver.grid")
                if not size.is_integer():
                    _fail("solver.grid.max_menu_size", f"expected an integer, got {size!r}")
                kwargs["max_menu_size"] = int(size)
            if "include_analytic_prices" in gnode:
                flag = gnode["include_analytic_prices"]
                if not isinstance(flag, bool):
                    _fail("solver.grid.include_analytic_prices", f"expected a boolean, got {flag!r}")
                kwargs["include_analytic_prices"] = flag
            try:
                grid = GridSpec(**kwargs)
            except ValueError as exc:
                _fail("solver.grid", str(exc))

    try:
        instance = ProblemInstance(tuple(alts), cost_fn)
    except ValueError as exc:
        if exc.__class__ is ValueError:
            _fail("alternatives", str(exc))
        raise  # AssumptionViolated carries its own diagnostic
    return InstanceDocument(instance, grid)


def load_instance(path: str) -> InstanceDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def dump_instance(doc: InstanceDocument | ProblemInstance) -> str:
    """Serialize back to YAML; a parsed document round-trips to an equal one."""
    if isinstance(doc, ProblemInstance):
        doc = InstanceDocument(doc)
    inst = doc.instance
    cost = inst.cost_fn
    cost_node = {"kind": cost.kind, **asdict(cost)}
    root: dict = {
        "alternatives": [
            {"id": a.id, "u": a.u, "v": a.v, "c": a.c} for a in inst.alternatives
        ],
        "cost_function": cost_node,
    }
    if doc.grid is not None:
        root["solver"] = {"grid": asdict(doc.grid)}
    return yaml.safe_dump(root, sort_keys=False)
