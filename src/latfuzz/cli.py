"""Batch front door: load an instance document, run one computation or
check, print a single JSON report on stdout.

Exit statuses: 0 ok, 1 check failed (counterexample in the report), 2 input
error (diagnostic on stderr), 3 enumeration budget exceeded.

Reports are deterministic: stable key order, values as display strings, no
timestamps.  Timing lives in a trailing `timing_ms` field that `--no-timing`
drops, so byte-comparison of reports is possible.

One table, `_KINDS`, says for each kind of object the CLI derives
(relation, system, operator, coalgebra, dialgebra) how to build it from a
partition or another source, which reference prefixes it accepts, how to
find it by document name and how to print it.  The `closure`, `operator`,
`relation`, `coalg` and `dialg` commands are rows of `_CONSTRUCTIONS`;
`functor f1…f4inv` are names for six of them (`_FUNCTORS`); `check
fas|fcss|fcs` resolve their references through the same table.  A system
reference is a document name, `partition:P` or `relation:R`; a relation
reference is a name, `partition:P` or `system:S`.  After a prefix comes a
reference to the prefix's kind in turn, so `relation:partition:P` is the
system of the relation of partition P.  Closure operators are never
serialized; an operator reference is a system reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from . import algebra, closure, ftransform, lattice, morphism, partition, relation
from .document import SECTIONS, InstanceDocument, load_document
from .errors import (
    BudgetExceeded,
    DocumentError,
    PreconditionError,
    WorkbenchError,
)
from .fuzzyset import Space
from .lattice import DEFAULT_BUDGET

ENV_BUDGET = "LATFUZZ_BUDGET"

OK, CHECK_FAILED, INPUT_ERROR, BUDGET_EXCEEDED = 0, 1, 2, 3


def _resolve_budget(args) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get(ENV_BUDGET)
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget, source = int(env), ENV_BUDGET
        except ValueError:
            raise DocumentError(f"{ENV_BUDGET} is not an integer: {env!r}")
    if budget < 1:
        raise DocumentError(f"{source} must be at least 1, got {budget}")
    return budget


def _required(args, name: str) -> str:
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise DocumentError(f"this command needs --{name}")
    return value


def _table_json(struct) -> dict:
    """A closure system or operator: one [set, image] entry per set of the
    space, the image a membership value or a closed set."""
    d = struct.lattice.displays
    if isinstance(struct, closure.ClosureSystem):
        show = d.__getitem__
    else:
        def show(image):
            return [d[v] for v in image]
    return {
        "universe": struct.universe.name,
        "provenance": struct.provenance,
        "entries": [
            [[d[v] for v in values], show(image)]
            for values, image in zip(
                Space(struct.lattice, struct.universe).values(), struct.table)
        ],
    }


def _relation_json(rel) -> dict:
    return {
        "universe": rel.universe.name,
        "elements": list(rel.universe.elements),
        "rows": rel.display_rows(),
    }


def _structure_json(struct) -> dict:
    lat = struct.lattice
    return {
        "universe": struct.universe.name,
        "provenance": struct.provenance,
        "space": Space(lat, struct.universe).size,
        "table": [
            {"element": e, "values": [lat.displays[v] for v in row]}
            for e, row in zip(struct.universe.elements, struct.table)
        ],
    }


# ---------------------------------------------------------------------------
# the construction table: one entry per kind of object the CLI derives

@dataclass(frozen=True)
class _Kind:
    """How the CLI builds, finds and prints one kind of object.

    `derive` maps a source kind to the construction from it ("partition":
    from a partition object).  `prefixes` are the source kinds a reference
    may name as `kind:ref`, where `ref` is a reference to that kind in
    turn.  `lookup` finds the object by document name.
    """

    derive: dict = field(default_factory=dict)
    prefixes: tuple[str, ...] = ()
    lookup: Callable | None = None
    to_json: Callable | None = None


def _resolve(doc: InstanceDocument, kind: str, ref: str, budget: int):
    """The object of `kind` that `ref` names: a document name, or
    `prefix:ref` for the construction from the source `ref` names."""
    entry = _KINDS[kind]
    prefix, sep, rest = ref.partition(":")
    if sep and prefix in entry.prefixes:
        return _derive(doc, kind, prefix, rest, budget)
    return entry.lookup(doc, ref, budget)


def _derive(doc: InstanceDocument, kind: str, source: str, ref: str,
            budget: int):
    """Build an object of `kind` from the `source` object `ref` names."""
    built_from = _resolve(doc, source, ref, budget)
    return _KINDS[kind].derive[source](built_from, budget)


def _from_partition(kind: str, p, budget: int):
    return _KINDS[kind].derive["partition"](p, budget)


# The lambdas look functions up on their modules at call time, so wrappers
# installed on a module (the benchmark's tracer) see every call.
_KINDS = {
    "partition": _Kind(lookup=lambda doc, name, b: doc.partition(name)),
    "relation": _Kind(
        derive={"partition": lambda p, b: partition.relation_from_partition(p),
                "system": lambda s, b: relation.relation_from_system(s, b)},
        prefixes=("partition", "system"),
        lookup=lambda doc, name, b: doc.relation(name),
        to_json=_relation_json,
    ),
    "system": _Kind(
        derive={"partition": lambda p, b: closure.system_from_partition(p, b),
                "relation": lambda r, b: closure.system_from_relation(r, b),
                "operator": lambda o, b: closure.system_from_operator(o, b)},
        prefixes=("partition", "relation"),
        lookup=lambda doc, name, b: doc.system(name),
        to_json=_table_json,
    ),
    # never serialized: an operator reference is a system reference
    "operator": _Kind(
        derive={"partition": lambda p, b: closure.operator_from_system(
                    closure.system_from_partition(p, b), b),
                "system": lambda s, b: closure.operator_from_system(s, b)},
        lookup=lambda doc, ref, b: _derive(doc, "operator", "system", ref, b),
        to_json=_table_json,
    ),
    "coalgebra": _Kind(
        derive={"partition": lambda p, b:
                algebra.coalgebra_from_partition(p, b)},
        to_json=_structure_json,
    ),
    "dialgebra": _Kind(
        derive={"partition": lambda p, b:
                algebra.dialgebra_from_partition(p, b)},
        to_json=_structure_json,
    ),
}

# (command, construction) -> (kind built, option naming the source, source
# kind); each report's payload key is the kind built
_CONSTRUCTIONS = {
    ("relation", "from-partition"): ("relation", "partition", "partition"),
    ("relation", "from-system"): ("relation", "system", "system"),
    ("closure", "from-partition"): ("system", "partition", "partition"),
    ("closure", "from-relation"): ("system", "relation", "relation"),
    ("closure", "from-operator"): ("system", "system", "operator"),
    ("operator", "from-system"): ("operator", "system", "system"),
    ("coalg", None): ("coalgebra", "partition", "partition"),
    ("dialg", None): ("dialgebra", "partition", "partition"),
}

# the six functors' object maps are names for constructions
_FUNCTORS = {
    "f1": ("relation", "from-partition"),
    "f2": ("closure", "from-relation"),
    "f2inv": ("relation", "from-system"),
    "f3": ("closure", "from-partition"),
    "f4": ("operator", "from-system"),
    "f4inv": ("closure", "from-operator"),
}

# greatest-witness check -> (kind compared, option suffix naming its
# references, witness)
_WITNESS_CHECKS = {
    "fas": ("relation", "relation",
            lambda phi, x, y, b: morphism.fas_witness(phi, x, y)),
    "fcss": ("system", "system",
             lambda phi, x, y, b: morphism.fcss_witness(phi, x, y, b)),
    "fcs": ("operator", "system",
            lambda phi, x, y, b: morphism.fcs_witness(phi, x, y, b)),
}


def _witness_json(w: morphism.Witness) -> dict:
    out = {"witness": w.display, "admissible": w.admissible}
    if w.attained is not None:
        site = []
        for part in w.attained:
            site.append(list(part) if isinstance(part, tuple) else part)
        out["attained_at"] = site
    return out


# ---------------------------------------------------------------------------
# command handlers: each returns (payload dict, exit code)

def _cmd_validate(doc, args, budget):
    scan = lattice.zero_divisor_scan(doc.lattice)
    payload = {
        "lattice": {
            "name": doc.lattice.name,
            "size": len(doc.lattice),
            "axioms": scan.axioms,
            "zero_divisors": [list(p) for p in scan.zero_divisors],
        },
        "objects": {
            section: sorted(getattr(doc, section)) for section in SECTIONS
        },
        "warnings": list(doc.warnings),
    }
    return payload, OK


def _cmd_ft(doc, args, budget):
    p = doc.partition(args.partition)
    f = doc.fuzzy_set(args.set)
    result = ftransform.ft_transform(p, f)
    fld = ftransform.ft_field(p, f)
    return {
        "partition": args.partition,
        "set": args.set,
        "components": result.display_map(),
        "field": {
            "universe": p.universe.name,
            "values": list(fld.displays()),
        },
    }, OK


def _check_payload(w: morphism.Witness):
    payload = _witness_json(w)
    code = OK if w.admissible else CHECK_FAILED
    if not w.admissible and w.attained is not None:
        payload["counterexample"] = payload.pop("attained_at")
    return payload, code


def _cmd_construct(doc, args, budget):
    if args.command == "functor":
        key = _FUNCTORS[args.name]
    else:
        key = (args.command, getattr(args, "construction", None))
    kind, option, source = _CONSTRUCTIONS[key]
    built = _derive(doc, kind, source, _required(args, option), budget)
    return {kind: _KINDS[kind].to_json(built)}, OK


def _cmd_check(doc, args, budget):
    kind = args.kind
    if kind == "fp":
        return _check_payload(
            morphism.fp_witness(doc.candidate(_required(args, "cand")))
        )
    if kind in _WITNESS_CHECKS:
        compared, option, witness = _WITNESS_CHECKS[kind]
        if args.cand:
            cand = doc.candidate(args.cand)
            phi = cand.phi
            x = _from_partition(compared, cand.source, budget)
            y = _from_partition(compared, cand.target, budget)
        else:
            phi = doc.map(_required(args, "map"))
            x, y = (
                _resolve(doc, compared, _required(args, f"{end}-{option}"),
                         budget)
                for end in ("source", "target")
            )
        return _check_payload(witness(phi, x, y, budget))
    if kind in ("coa-hom", "dia-hom"):
        phi = doc.map(_required(args, "map"))
        px = doc.partition(_required(args, "source-partition"))
        py = doc.partition(_required(args, "target-partition"))
        if kind == "coa-hom":
            view, check = "coalgebra", algebra.check_coa_hom
        else:
            view, check = "dialgebra", algebra.check_dia_hom
        verdict = check(phi, _from_partition(view, px, budget),
                        _from_partition(view, py, budget), budget)
        return verdict.to_dict(), OK if verdict.holds else CHECK_FAILED
    raise DocumentError(f"unknown check kind {kind!r}")


def _cmd_roundtrip(doc, args, budget):
    name = args.name
    if name in ("f2", "f4"):
        kind = "relation" if name == "f2" else "system"
        roundtrip = (closure.roundtrip_relation if name == "f2"
                     else closure.roundtrip_system)
        report = roundtrip(_resolve(doc, kind, _required(args, kind), budget),
                           budget)
        return {"roundtrip": report.to_dict()}, OK
    if name == "coa-dia":
        p = doc.partition(_required(args, "partition"))
        c = _from_partition("coalgebra", p, budget)
        d = _from_partition("dialgebra", p, budget)
        back_c = algebra.dia_to_coa(algebra.coa_to_dia(c))
        back_d = algebra.coa_to_dia(algebra.dia_to_coa(d))
        payload = {
            "coa_dia_coa_exact": back_c.table == c.table,
            "dia_coa_dia_exact": back_d.table == d.table,
            "triangle_exact": algebra.coa_to_dia(c).table == d.table,
        }
        ok = all(payload.values())
        return {"roundtrip": payload}, OK if ok else CHECK_FAILED
    raise DocumentError(f"unknown roundtrip {name!r}")


def _cmd_product(doc, args, budget):
    left = doc.partition(args.left)
    right = doc.partition(args.right)
    prod = morphism.fps_product(left, right)
    payload = {
        "product_universe": prod.product.universe.name,
        "blocks": {
            name: list(block.displays())
            for name, block in zip(prod.product.names, prod.product.blocks)
        },
        "projection_left": _witness_json(prod.proj_left_witness),
        "projection_right": _witness_json(prod.proj_right_witness),
    }
    if args.pairing:
        lname, rname = doc.pairings.get(args.pairing, (None, None))
        if lname is None:
            raise DocumentError(f"document names no pairing {args.pairing!r}")
        cand, bound = prod.pair(doc.candidate(lname), doc.candidate(rname))
        payload["pairing"] = {
            "left": lname,
            "right": rname,
            "certified_bound": bound.display,
            "actual_witness": morphism.fp_witness(cand).display,
        }
    return payload, OK


def _cmd_diagnostic(doc, args, budget):
    report = morphism.index_square_diagnostic(
        doc.candidate(_required(args, "cand"))
    )
    return {"index_square": report.to_dict()}, OK


def _cmd_laws(doc, args, budget):
    kind = args.kind
    if kind == "lattice":
        suite = lattice.law_suite(doc.lattice, budget)
        scan = lattice.zero_divisor_scan(doc.lattice)
        payload = {
            "laws": suite.to_dict(),
            "zero_divisors": [list(p) for p in scan.zero_divisors],
        }
        return payload, OK if suite.all_pass else CHECK_FAILED
    if kind == "ftransform":
        report = ftransform.transform_law_suite(
            doc.partition(_required(args, "partition")), budget
        )
        return {"laws": report.to_dict()}, OK if report.all_pass else CHECK_FAILED
    if kind == "closure":
        sys_ = _resolve(doc, "system", _required(args, "system"), budget)
        report = closure.check_system(sys_, budget)
        ok = report.holds("axiom_i") and report.holds("axiom_ii")
        return {"check": report.to_dict()}, OK if ok else CHECK_FAILED
    raise DocumentError(f"unknown law suite {kind!r}")


def _cmd_adjunction(doc, args, budget):
    phi = doc.map(args.map)
    c = _derive(doc, "coalgebra", "partition", args.source_partition, budget)
    d = _derive(doc, "dialgebra", "partition", args.target_partition, budget)
    verdict = algebra.adjunction_check(c, d, phi, budget)
    return {"adjunction": verdict.to_dict()}, OK if verdict.holds else CHECK_FAILED


def _cmd_transfer(doc, args, budget):
    phi = doc.map(args.map)
    px = doc.partition(args.source_partition)
    py = doc.partition(args.target_partition)
    view = "coalgebra" if args.direction == "coa-dia" else "dialgebra"
    verdict = algebra.morphism_transfer_check(
        phi, _from_partition(view, px, budget),
        _from_partition(view, py, budget), args.direction, budget
    )
    payload = {"transfer": verdict.to_dict()}
    if verdict.status == "proviso unmet":
        return payload, OK, "proviso-unmet"
    return payload, OK if verdict.status == "holds" else CHECK_FAILED


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfuzz",
        description="Finite residuated-lattice workbench (batch runner).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--doc", required=True, help="instance document (JSON)")
        p.add_argument("--budget", type=int, default=None,
                       help=f"enumeration budget (default {DEFAULT_BUDGET}, "
                            f"env {ENV_BUDGET})")
        p.add_argument("--no-timing", action="store_true",
                       help="omit the timing field for byte comparison")
        p.set_defaults(handler=handler)
        return p

    cmd("validate", _cmd_validate, help="validate the lattice and all objects")

    p = cmd("ft", _cmd_ft, help="direct upper transform of a named set")
    p.add_argument("--partition", required=True)
    p.add_argument("--set", required=True)

    p = cmd("closure", _cmd_construct, help="build a closure system")
    p.add_argument("construction",
                   choices=["from-partition", "from-relation", "from-operator"])
    p.add_argument("--partition")
    p.add_argument("--relation", help="relation reference")
    p.add_argument("--system", help="system reference (operator is derived)")

    p = cmd("operator", _cmd_construct, help="build a closure operator")
    p.add_argument("construction", choices=["from-system"])
    p.add_argument("--system", required=True, help="system reference")

    p = cmd("relation", _cmd_construct, help="build a relation")
    p.add_argument("construction", choices=["from-partition", "from-system"])
    p.add_argument("--partition")
    p.add_argument("--system", help="system reference")

    p = cmd("check", _cmd_check, help="greatest-witness / homomorphism checks")
    p.add_argument("kind",
                   choices=["fp", "fas", "fcss", "fcs", "coa-hom", "dia-hom"])
    p.add_argument("--cand")
    p.add_argument("--map")
    p.add_argument("--source-relation")
    p.add_argument("--target-relation")
    p.add_argument("--source-system")
    p.add_argument("--target-system")
    p.add_argument("--source-partition")
    p.add_argument("--target-partition")

    p = cmd("functor", _cmd_construct, help="object maps of the six functors")
    p.add_argument("name", choices=list(_FUNCTORS))
    p.add_argument("--partition")
    p.add_argument("--relation", help="relation reference")
    p.add_argument("--system", help="system reference")

    p = cmd("roundtrip", _cmd_roundtrip, help="informational round-trip reports")
    p.add_argument("name", choices=["f2", "f4", "coa-dia"])
    p.add_argument("--relation", help="relation reference")
    p.add_argument("--system", help="system reference")
    p.add_argument("--partition")

    p = cmd("product", _cmd_product, help="binary product with projections")
    p.add_argument("kind", choices=["fps"])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--pairing")

    p = cmd("diagnostic", _cmd_diagnostic, help="non-asserting diagnostics")
    p.add_argument("kind", choices=["index-square"])
    p.add_argument("--cand", required=True)

    p = cmd("laws", _cmd_laws, help="exhaustive law suites")
    p.add_argument("kind", choices=["lattice", "ftransform", "closure"])
    p.add_argument("--partition")
    p.add_argument("--system", help="system reference")

    p = cmd("coalg", _cmd_construct, help="coalgebra table of a partition")
    p.add_argument("--partition", required=True)

    p = cmd("dialg", _cmd_construct, help="dialgebra table of a partition")
    p.add_argument("--partition", required=True)

    p = cmd("adjunction", _cmd_adjunction, help="adjunction triangle verdict")
    p.add_argument("--map", required=True)
    p.add_argument("--source-partition", required=True)
    p.add_argument("--target-partition", required=True)

    p = cmd("transfer", _cmd_transfer,
            help="re-check a homomorphism in the other view")
    p.add_argument("direction", choices=["coa-dia", "dia-coa"])
    p.add_argument("--map", required=True)
    p.add_argument("--source-partition", required=True)
    p.add_argument("--target-partition", required=True)

    return parser


def _command_echo(args) -> str:
    parts = [args.command]
    for attr in ("construction", "kind", "name"):
        extra = getattr(args, attr, None)
        if isinstance(extra, str):
            parts.append(extra)
    return " ".join(parts)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    report = {"command": _command_echo(args)}
    try:
        budget = _resolve_budget(args)
        report["budget"] = budget
        doc = load_document(args.doc, budget)
        outcome = args.handler(doc, args, budget)
        payload, code = outcome[0], outcome[1]
        verdict = outcome[2] if len(outcome) > 2 else (
            "ok" if code == OK else "fail"
        )
        report["verdict"] = verdict
        report.update(payload)
    except BudgetExceeded as exc:
        report["verdict"] = "budget-exceeded"
        report["error"] = str(exc)
        report["cardinality"] = exc.cardinality
        code = BUDGET_EXCEEDED
    except PreconditionError as exc:
        report["verdict"] = "fail"
        report["error"] = str(exc)
        code = CHECK_FAILED
    except (DocumentError, WorkbenchError) as exc:
        print(f"latfuzz: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if not args.no_timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    print(_json(report, ""))
    return code


# ---------------------------------------------------------------------------
# report output: the text `json.dumps` writes with an indent of 2, built with
# the C string encoder and one join per container, since any indent makes
# `json` fall back to its pure-Python encoder

_encode_str = json.encoder.encode_basestring_ascii


def _key_json(key) -> str:
    """A dict key as json writes it: other scalars become their JSON text."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json(value, indent: str) -> str:
    """`value` as `json.dumps` writes it with an indent of 2, each of its
    lines after the first indented by `indent` more."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(value[0], str):
            # a list of strings in one C-level pass; a later non-string
            # makes the encoder raise and the list go item by item
            try:
                return ("[\n" + inner + sep.join(map(_encode_str, value))
                        + "\n" + indent + "]")
            except TypeError:
                pass
        return ("[\n" + inner + sep.join([_json(v, inner) for v in value])
                + "\n" + indent + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_key_json(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(value)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
