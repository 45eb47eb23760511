"""Command-line front end: group ingestion, queries, facts and cache admin.

Every command prints a single JSON document on stdout.  Exit codes: 0 on
success, 2 on input errors (with a machine-readable {error, detail} payload),
3 when a query is out of the certified scope.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .abelian import rank
from .chartab import cache_directory, character_table
from .engine import FactStore, covdim, edim
from .errors import EdimkitError, FactConflict, OutOfScope, ParseError
from .fields import (
    is_semi_faithful,
    k_center,
    parse_field,
    supports_splitting,
)
from .groups import FiniteGroup
from .mhom import OneParamSubgroup, homogenize, map_from_json
from .named import load_group
from .repdim import rdim


def _dumps(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _print(payload: dict, pretty: bool) -> None:
    sys.stdout.write(_dumps(payload, pretty))


def _load_group(path: str) -> FiniteGroup:
    if not os.path.exists(path):
        raise ParseError(f"group file not found: {path}")
    return load_group(path)


def _facts(args) -> FactStore:
    store = FactStore()
    if getattr(args, "facts", None):
        store.merge(FactStore.load(args.facts))
    return store


def _trace_strings(result) -> list:
    out = []
    for rule, citation, detail, bound in result.trace:
        out.append(f"{rule}: {citation} [{detail}] => {bound}")
    return out


# ---------------------------------------------------------------------------
# verbs


def cmd_invariants(args) -> dict:
    g = _load_group(args.group)
    f = parse_field(args.field)
    feet = g.feet()
    soc = g.socle()
    zk = k_center(g, f)
    return {
        "order": g.order,
        "exponent": g.exponent(),
        "abelian": g.is_abelian(),
        "n_classes": len(g.conjugacy_classes()),
        "center_order": g.center().order,
        "commutator_order": g.commutator_subgroup().order,
        "feet": sorted(ft.order for ft in feet),
        "socle_order": soc.order,
        "socle_abelian": soc.is_abelian(),
        "socle_central": soc.is_central(),
        "k_center_order": zk.order,
        "k_center_rank": rank(zk),
        "semi_faithful": is_semi_faithful(g, f),
        "supports_splitting": supports_splitting(g, f),
        "field": f.spec(),
        "fingerprint": g.fingerprint(),
    }


def cmd_chartab(args) -> dict:
    g = _load_group(args.group)
    table = character_table(g, cache_dir=args.cache_dir,
                            use_cache=not args.no_cache)
    out = {
        "order": g.order,
        "n_classes": table.n_classes,
        "conductor": table.conductor,
        "degrees": table.degrees,
        "class_sizes": table.class_sizes,
    }
    if args.full:
        # {"key": "c/1"} per value, from the nonzero tensor coefficients
        keys, classes, c = table.tensor_coefficients()
        names, classes = [str(k) for k in keys.tolist()], classes.tolist()
        n = table.n_classes
        values: list = [[{} for _ in range(n)] for _ in range(n)]
        texts: dict = {}
        rows, cols = c.nonzero()
        for i, j, v in zip(rows.tolist(), cols.tolist(), c[rows, cols].tolist()):
            values[i][classes[j]][names[j]] = texts.get(v) or \
                texts.setdefault(v, f"{v}/1")
        out["values"] = values
    return out


def cmd_rdim(args) -> dict:
    g = _load_group(args.group)
    f = parse_field(args.field)
    w = rdim(g, f)
    return w.as_dict()


def cmd_edim(args) -> dict:
    g = _load_group(args.group)
    f = parse_field(args.field)
    r = edim(g, f, facts=_facts(args), subgroups=args.subgroups)
    out = r.as_dict()
    out["trace"] = _trace_strings(r)
    return out


def cmd_covdim(args) -> dict:
    g = _load_group(args.group)
    f = parse_field(args.field)
    r = covdim(g, f, facts=_facts(args), subgroups=args.subgroups)
    out = r.as_dict()
    out["trace"] = _trace_strings(r)
    return out


def cmd_mhom(args) -> dict:
    if args.action != "homogenize":
        raise ParseError(f"unknown mhom action {args.action!r}")
    if not os.path.exists(args.file):
        raise ParseError(f"covariant file not found: {args.file}")
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    phi, _, _ = map_from_json(data)
    lam = None
    if args.lam:
        try:
            weights = tuple(int(t) for t in args.lam.split(","))
        except ValueError:
            raise ParseError(f"bad --lambda value {args.lam!r}") from None
        lam = OneParamSubgroup(weights)
    h, m = homogenize(phi, lam)
    names = data.get("source_variables") or phi.source.variable_names()
    return {
        "H": [p.render(names) for p in h.numerators],
        "denominator": h.denominator.render(names),
        "M": m.as_lists(),
        "rank": m.rank(),
        "zero_columns": sorted(m.zero_columns),
    }


def cmd_facts(args) -> dict:
    if args.action == "merge":
        if args.new is None:
            raise ParseError("facts merge needs a second file")
        store = FactStore()
        if os.path.exists(args.store):
            store.merge(FactStore.load(args.store))
        store.merge(FactStore.load(args.new))
        store.save(args.store)
        return {"merged": len(store.data), "store": args.store}
    if args.action == "show":
        store = FactStore.load(args.store)
        return {"facts": store.serialize()}
    raise ParseError(f"unknown facts action {args.action!r}")


def cmd_cache(args) -> dict:
    directory = cache_directory(args.cache_dir)
    if args.action == "path":
        return {"cache_dir": directory}
    if args.action == "clear":
        removed = 0
        p = Path(directory)
        if p.is_dir():
            for item in sorted(p.glob("chartab_*.json")):
                item.unlink()
                removed += 1
        return {"cache_dir": directory, "removed": removed}
    raise ParseError(f"unknown cache action {args.action!r}")


# ---------------------------------------------------------------------------
# argument grammar


def _add_common(p, field=True, facts=False):
    if field:
        p.add_argument("--field", default="Q", help="field spec, e.g. "
                       "Q, Q(zeta_12), algclosed:0, char=2;zeta=7")
    p.add_argument("--pretty", action="store_true")
    if facts:
        p.add_argument("--facts", default=None,
                       help="JSON facts file with literature intervals")
        p.add_argument("--subgroups", default="cyclic",
                       choices=["cyclic", "all"],
                       help="subgroup enumeration for lower bounds")


def _group_args(p):
    p.add_argument("group")
    _add_common(p)


def _interval_args(p):
    p.add_argument("group")
    _add_common(p, facts=True)


def _chartab_args(p):
    p.add_argument("group")
    p.add_argument("--full", action="store_true", help="include all values")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    _add_common(p, field=False)


def _mhom_args(p):
    p.add_argument("action", choices=["homogenize"])
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated one-parameter subgroup weights")
    _add_common(p, field=False)


def _facts_args(p):
    p.add_argument("action", choices=["merge", "show"])
    p.add_argument("store")
    p.add_argument("new", nargs="?")
    _add_common(p, field=False)


def _cache_args(p):
    p.add_argument("action", choices=["path", "clear"])
    p.add_argument("--cache-dir", default=None)
    _add_common(p, field=False)


# verb -> (help text, function adding its arguments, command)
VERBS = {
    "invariants": ("structural invariants of a group", _group_args,
                   cmd_invariants),
    "chartab": ("exact character table", _chartab_args, cmd_chartab),
    "rdim": ("minimal faithful representation dimension", _group_args,
             cmd_rdim),
    "edim": ("essential-dimension interval", _interval_args, cmd_edim),
    "covdim": ("covariant-dimension interval", _interval_args, cmd_covdim),
    "mhom": ("multihomogenization of a graded map", _mhom_args, cmd_mhom),
    "facts": ("manage a facts store", _facts_args, cmd_facts),
    "cache": ("character-table cache admin", _cache_args, cmd_cache),
}


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument grammar: every verb, or only `verb` when it is known.

    A call names one verb, so it needs only that subparser.  The metavar
    keeps the top-level usage line listing every verb, as the full tree
    prints it; the full tree itself keeps argparse's default, which its
    "invalid choice" and "required: verb" messages name.
    """
    ap = argparse.ArgumentParser(
        prog="edimkit",
        description="exact representation invariants and essential-dimension "
                    "bounds for finite groups")
    ap.add_argument("--version", action="version", version=__version__)
    if verb in VERBS:
        names = [verb]
        sub = ap.add_subparsers(dest="verb", required=True,
                                metavar="{" + ",".join(VERBS) + "}")
    else:
        names = list(VERBS)
        sub = ap.add_subparsers(dest="verb", required=True)
    for name in names:
        help_text, add_arguments, fn = VERBS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    pretty = getattr(args, "pretty", False)
    try:
        # encoded here: an int past Python's digit limit for str() raises
        # ValueError, which is reported like any other
        text = _dumps(args.fn(args), pretty)
    except OutOfScope as exc:
        _print({"error": "out_of_scope", "detail": str(exc)}, pretty)
        return 3
    except (EdimkitError, FactConflict, OSError, ValueError,
            json.JSONDecodeError) as exc:
        _print({"error": type(exc).__name__, "detail": str(exc)}, pretty)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
