"""Batch front door: load an instance document, run one computation or
check, print a single JSON report on stdout.

Exit statuses: 0 ok, 1 check failed (counterexample in the report), 2 input
error (diagnostic on stderr), 3 enumeration budget exceeded.

Reports are deterministic: stable key order, values as display strings, no
timestamps.  Timing lives in a trailing `timing_ms` field that `--no-timing`
drops, so byte-comparison of reports is possible.

Where a command needs a closure system or relation, the reference may be a
document name or a derivation: `partition:P` / `relation:R` for systems,
`partition:P` / `system:S` for relations.  Closure operators are never
serialized; they are always derived from a system reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import algebra, closure, ftransform, lattice, morphism, partition, relation
from .document import InstanceDocument, load_document
from .errors import (
    BudgetExceeded,
    DocumentError,
    PreconditionError,
    WorkbenchError,
)
from .fuzzyset import set_at, space_size
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


def _system_ref(doc: InstanceDocument, ref: str, budget: int):
    if ref.startswith("partition:"):
        return closure.system_from_partition(
            doc.partition(ref.split(":", 1)[1]), budget
        )
    if ref.startswith("relation:"):
        return closure.system_from_relation(
            doc.relation(ref.split(":", 1)[1]), budget
        )
    return doc.system(ref)


def _relation_ref(doc: InstanceDocument, ref: str, budget: int):
    if ref.startswith("partition:"):
        return partition.relation_from_partition(
            doc.partition(ref.split(":", 1)[1])
        )
    if ref.startswith("system:"):
        return relation.relation_from_system(
            _system_ref(doc, ref.split(":", 1)[1], budget), budget
        )
    return doc.relation(ref)


def _operator_ref(doc: InstanceDocument, ref: str, budget: int):
    return closure.operator_from_system(_system_ref(doc, ref, budget), budget)


def _fuzzy_set_json(f) -> list:
    return list(f.displays())


def _system_json(sys_) -> dict:
    return {
        "universe": sys_.universe.name,
        "provenance": sys_.provenance,
        "entries": [
            [list(f.displays()), sys_.lattice.displays[v]]
            for f, v in sys_.entries()
        ],
    }


def _operator_json(op) -> dict:
    lat = op.lattice
    return {
        "universe": op.universe.name,
        "provenance": op.provenance,
        "entries": [
            [
                list(set_at(lat, op.universe, i).displays()),
                [lat.displays[v] for v in image],
            ]
            for i, image in enumerate(op.table)
        ],
    }


def _relation_json(rel) -> dict:
    return {
        "universe": rel.universe.name,
        "elements": list(rel.universe.elements),
        "rows": rel.display_rows(),
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
            "universes": sorted(doc.universes),
            "fuzzy_sets": sorted(doc.fuzzy_sets),
            "partitions": sorted(doc.partitions),
            "relations": sorted(doc.relations),
            "maps": sorted(doc.maps),
            "index_maps": sorted(doc.index_maps),
            "candidates": sorted(doc.candidates),
            "pairings": sorted(doc.pairings),
            "systems": sorted(doc.systems),
        },
        "warnings": list(doc.warnings),
    }
    return payload, OK


def _cmd_ft(doc, args, budget):
    p = doc.partition(args.partition)
    f = doc.fuzzy_set(args.set)
    result = ftransform.ft_transform(p, f)
    field = ftransform.ft_field(p, f)
    return {
        "partition": args.partition,
        "set": args.set,
        "components": result.display_map(),
        "field": {
            "universe": p.universe.name,
            "values": _fuzzy_set_json(field),
        },
    }, OK


def _cmd_closure(doc, args, budget):
    if args.construction == "from-partition":
        sys_ = closure.system_from_partition(
            doc.partition(_required(args, "partition")), budget
        )
    elif args.construction == "from-relation":
        sys_ = closure.system_from_relation(
            _relation_ref(doc, _required(args, "relation"), budget), budget
        )
    else:  # from-operator
        op = _operator_ref(doc, _required(args, "system"), budget)
        sys_ = closure.system_from_operator(op, budget)
    return {"system": _system_json(sys_)}, OK


def _cmd_operator(doc, args, budget):
    op = _operator_ref(doc, args.system, budget)
    return {"operator": _operator_json(op)}, OK


def _cmd_relation(doc, args, budget):
    if args.construction == "from-partition":
        rel = partition.relation_from_partition(
            doc.partition(_required(args, "partition"))
        )
    else:  # from-system
        rel = relation.relation_from_system(
            _system_ref(doc, _required(args, "system"), budget), budget
        )
    return {"relation": _relation_json(rel)}, OK


def _check_payload(w: morphism.Witness):
    payload = _witness_json(w)
    code = OK if w.admissible else CHECK_FAILED
    if not w.admissible and w.attained is not None:
        payload["counterexample"] = payload.pop("attained_at")
    return payload, code


def _cmd_check(doc, args, budget):
    kind = args.kind
    if kind == "fp":
        return _check_payload(
            morphism.fp_witness(doc.candidate(_required(args, "cand")))
        )
    if kind == "fas":
        if args.cand:
            cand = doc.candidate(args.cand)
            phi = cand.phi
            rx = partition.relation_from_partition(cand.source)
            ry = partition.relation_from_partition(cand.target)
        else:
            phi = doc.map(_required(args, "map"))
            rx = _relation_ref(doc, _required(args, "source-relation"), budget)
            ry = _relation_ref(doc, _required(args, "target-relation"), budget)
        return _check_payload(morphism.fas_witness(phi, rx, ry))
    if kind == "fcss":
        if args.cand:
            cand = doc.candidate(args.cand)
            phi = cand.phi
            sx = closure.system_from_partition(cand.source, budget)
            sy = closure.system_from_partition(cand.target, budget)
        else:
            phi = doc.map(_required(args, "map"))
            sx = _system_ref(doc, _required(args, "source-system"), budget)
            sy = _system_ref(doc, _required(args, "target-system"), budget)
        return _check_payload(morphism.fcss_witness(phi, sx, sy, budget))
    if kind == "fcs":
        if args.cand:
            cand = doc.candidate(args.cand)
            phi = cand.phi
            cx = closure.operator_from_system(
                closure.system_from_partition(cand.source, budget), budget
            )
            cy = closure.operator_from_system(
                closure.system_from_partition(cand.target, budget), budget
            )
        else:
            phi = doc.map(_required(args, "map"))
            cx = _operator_ref(doc, _required(args, "source-system"), budget)
            cy = _operator_ref(doc, _required(args, "target-system"), budget)
        return _check_payload(morphism.fcs_witness(phi, cx, cy, budget))
    if kind in ("coa-hom", "dia-hom"):
        phi = doc.map(_required(args, "map"))
        px = doc.partition(_required(args, "source-partition"))
        py = doc.partition(_required(args, "target-partition"))
        if kind == "coa-hom":
            verdict = algebra.check_coa_hom(
                phi,
                algebra.coalgebra_from_partition(px, budget),
                algebra.coalgebra_from_partition(py, budget),
                budget,
            )
        else:
            verdict = algebra.check_dia_hom(
                phi,
                algebra.dialgebra_from_partition(px, budget),
                algebra.dialgebra_from_partition(py, budget),
                budget,
            )
        return verdict.to_dict(), OK if verdict.holds else CHECK_FAILED
    raise DocumentError(f"unknown check kind {kind!r}")


def _cmd_functor(doc, args, budget):
    name = args.name
    if name == "f1":
        rel = partition.relation_from_partition(
            doc.partition(_required(args, "partition"))
        )
        return {"relation": _relation_json(rel)}, OK
    if name == "f2":
        sys_ = closure.system_from_relation(
            _relation_ref(doc, _required(args, "relation"), budget), budget
        )
        return {"system": _system_json(sys_)}, OK
    if name == "f2inv":
        rel = relation.relation_from_system(
            _system_ref(doc, _required(args, "system"), budget), budget
        )
        return {"relation": _relation_json(rel)}, OK
    if name == "f3":
        sys_ = closure.system_from_partition(
            doc.partition(_required(args, "partition")), budget
        )
        return {"system": _system_json(sys_)}, OK
    if name == "f4":
        op = _operator_ref(doc, _required(args, "system"), budget)
        return {"operator": _operator_json(op)}, OK
    if name == "f4inv":
        sys_ = closure.system_from_operator(
            _operator_ref(doc, _required(args, "system"), budget), budget
        )
        return {"system": _system_json(sys_)}, OK
    raise DocumentError(f"unknown functor {name!r}")


def _cmd_roundtrip(doc, args, budget):
    name = args.name
    if name == "f2":
        report = closure.roundtrip_relation(
            _relation_ref(doc, _required(args, "relation"), budget), budget
        )
        return {"roundtrip": report.to_dict()}, OK
    if name == "f4":
        report = closure.roundtrip_system(
            _system_ref(doc, _required(args, "system"), budget), budget
        )
        return {"roundtrip": report.to_dict()}, OK
    if name == "coa-dia":
        p = doc.partition(_required(args, "partition"))
        c = algebra.coalgebra_from_partition(p, budget)
        d = algebra.dialgebra_from_partition(p, budget)
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
            name: _fuzzy_set_json(block)
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
        sys_ = _system_ref(doc, _required(args, "system"), budget)
        report = closure.check_system(sys_, budget)
        ok = report.axiom_i and report.axiom_ii
        return {"check": report.to_dict()}, OK if ok else CHECK_FAILED
    raise DocumentError(f"unknown law suite {kind!r}")


def _structure_json(struct) -> dict:
    lat = struct.lattice
    return {
        "universe": struct.universe.name,
        "provenance": struct.provenance,
        "space": space_size(lat, struct.universe),
        "table": [
            {"element": e, "values": [lat.displays[v] for v in row]}
            for e, row in zip(struct.universe.elements, struct.table)
        ],
    }


def _cmd_coalg(doc, args, budget):
    c = algebra.coalgebra_from_partition(doc.partition(args.partition), budget)
    return {"coalgebra": _structure_json(c)}, OK


def _cmd_dialg(doc, args, budget):
    d = algebra.dialgebra_from_partition(doc.partition(args.partition), budget)
    return {"dialgebra": _structure_json(d)}, OK


def _cmd_adjunction(doc, args, budget):
    phi = doc.map(args.map)
    c = algebra.coalgebra_from_partition(
        doc.partition(args.source_partition), budget
    )
    d = algebra.dialgebra_from_partition(
        doc.partition(args.target_partition), budget
    )
    verdict = algebra.adjunction_check(c, d, phi, budget)
    return {"adjunction": verdict.to_dict()}, OK if verdict.holds else CHECK_FAILED


def _cmd_transfer(doc, args, budget):
    phi = doc.map(args.map)
    px = doc.partition(args.source_partition)
    py = doc.partition(args.target_partition)
    if args.direction == "coa-dia":
        source = algebra.coalgebra_from_partition(px, budget)
        target = algebra.coalgebra_from_partition(py, budget)
    else:
        source = algebra.dialgebra_from_partition(px, budget)
        target = algebra.dialgebra_from_partition(py, budget)
    verdict = algebra.morphism_transfer_check(
        phi, source, target, args.direction, budget
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

    p = cmd("closure", _cmd_closure, help="build a closure system")
    p.add_argument("construction",
                   choices=["from-partition", "from-relation", "from-operator"])
    p.add_argument("--partition")
    p.add_argument("--relation", help="relation reference")
    p.add_argument("--system", help="system reference (operator is derived)")

    p = cmd("operator", _cmd_operator, help="build a closure operator")
    p.add_argument("construction", choices=["from-system"])
    p.add_argument("--system", required=True, help="system reference")

    p = cmd("relation", _cmd_relation, help="build a relation")
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

    p = cmd("functor", _cmd_functor, help="object maps of the six functors")
    p.add_argument("name", choices=["f1", "f2", "f2inv", "f3", "f4", "f4inv"])
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

    p = cmd("coalg", _cmd_coalg, help="coalgebra table of a partition")
    p.add_argument("--partition", required=True)

    p = cmd("dialg", _cmd_dialg, help="dialgebra table of a partition")
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
    print(json.dumps(report, indent=2))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
