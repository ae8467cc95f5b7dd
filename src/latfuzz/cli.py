"""Batch front door: load an instance document, run one computation or
check, print a single JSON report on stdout.

Exit statuses: 0 ok, 1 check failed (counterexample in the report), 2 input
or output error (diagnostic on stderr, such as a full disk under stdout), 3
enumeration budget exceeded, 141 stdout closed before the report was written
(128 + SIGPIPE, no traceback).

Reports are deterministic: stable key order, values as display strings, no
timestamps.  Timing lives in a trailing `timing_ms` field that `--no-timing`
drops, so byte-comparison of reports is possible.

One table, `_COMMANDS`, gives each command its handler, help line,
positional word and flags, and one loop builds the parser from it: only the
named command's subparser, or all of them for `-h` and a missing or unknown
command.  Each handler returns a payload and a verdict, and the verdict sets
the exit status.  The handlers and the `_json` helpers are the only code that
knows a report's keys and nesting: the library returns plain results.

Another table, `_KINDS`, says for each kind of object the CLI derives
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
from itertools import product

from . import algebra, closure, ftransform, lattice, morphism, partition, relation
from .document import SECTIONS, InstanceDocument, load_document
from .errors import (BudgetExceeded, DocumentError, PreconditionError,
                     WorkbenchError)
from .fuzzyset import Space
from .lattice import DEFAULT_BUDGET
from .record import Record

ENV_BUDGET = "LATFUZZ_BUDGET"

OK, CHECK_FAILED, INPUT_ERROR, BUDGET_EXCEEDED = 0, 1, 2, 3
STDOUT_CLOSED = 141  # 128 + SIGPIPE, as a shell shows a pipe's writer killed
# a report's exit status follows from its verdict: any other verdict is OK
_EXIT_CODES = {"fail": CHECK_FAILED, "budget-exceeded": BUDGET_EXCEEDED}


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
    space, the image a membership value or a closed set.  The writer calls
    `entries` to emit them one at a time as `_lay_out` would their list: the
    sets come in `product` order, so each is one format of joined displays."""
    enc = [_encode_str(s) for s in struct.lattice.displays]
    dim = len(struct.universe)

    def entries(indent, emit):
        inner, at = indent + "  ", indent + "    "
        sep = ",\n" + at + "  "
        wrap = "[\n" + at + "  {}\n" + at + "]" if dim else "[]"
        if isinstance(struct, closure.ClosureSystem):
            image, images = "{1}", map(enc.__getitem__, struct.table)
        else:
            image = wrap.format("{1}")
            images = (sep.join(map(enc.__getitem__, im))
                      for im in struct.table)
        form = ("[\n" + at + wrap.format("{0}") + ",\n" + at + image
                + "\n" + inner + "]").format
        texts = map(form, map(sep.join, product(enc, repeat=dim)), images)
        emit("[\n" + inner + next(texts))
        for text in texts:
            emit(",\n" + inner + text)
        emit("\n" + indent + "]")

    return {"universe": struct.universe.name,
            "provenance": struct.provenance, "entries": entries}


def _suite_json(report, subject: str, clauses: str) -> dict:
    """`laws lattice` and `laws ftransform`: the subject under `subject`, and
    each clause's verdict and counterexample under `clauses`."""
    return {
        subject: report.subject,
        clauses: {
            clause: {"passed": report.holds(clause),
                     "counterexample": report.counterexamples.get(clause)}
            for clause in report.clauses
        },
        "all_pass": report.all_hold,
    }


def _axioms_json(report) -> dict:
    """`laws closure`, and a closure operator's axioms: one verdict per
    clause, then the counterexamples in the order the check found them."""
    out: dict = {clause: report.holds(clause) for clause in report.clauses}
    out["counterexamples"] = dict(report.counterexamples)
    out["all_ok"] = report.all_hold
    return out


def _relation_json(rel) -> dict:
    d = rel.lattice.displays
    return {
        "universe": rel.universe.name,
        "elements": list(rel.universe.elements),
        "rows": [[d[v] for v in row] for row in rel.rows],
    }


def _structure_json(struct) -> dict:
    lat = struct.lattice
    return {
        "universe": struct.universe.name,
        "provenance": struct.provenance,
        "space": Space(lat, struct.universe).size,
        "table": [
            {"element": e, "values": [lat.displays[v] for v in row]}
            for e, row in zip(struct.universe.elements,
                              algebra.transform_table(struct.partition))
        ],
    }


# ---------------------------------------------------------------------------
# the construction table: one entry per kind of object the CLI derives

class _Kind(Record):
    """How the CLI builds, finds and prints one kind of object.

    `derive` maps a source kind to the construction from it ("partition":
    from a partition object).  `prefixes` are the source kinds a reference
    may name as `kind:ref`, where `ref` is a reference to that kind in
    turn.  `lookup` finds the object by document name.
    """

    derive: dict = {}
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
        out["attained_at"] = [list(part) if isinstance(part, tuple) else part
                              for part in w.attained]
    return out


# ---------------------------------------------------------------------------
# command handlers: each returns (payload dict, verdict)

def _cmd_validate(doc, args, budget):
    scan = lattice.zero_divisor_scan(doc.lattice)
    return {
        "lattice": {
            "name": doc.lattice.name,
            "size": len(doc.lattice),
            "zero_divisors": [list(p) for p in scan],
        },
        "objects": {
            section: sorted(getattr(doc, section)) for section in SECTIONS
        },
        "warnings": list(doc.warnings),
    }, "ok"


def _cmd_ft(doc, args, budget):
    p = doc.partition(args.partition)
    f = doc.fuzzy_set(args.set)
    d = p.lattice.displays
    return {
        "partition": args.partition,
        "set": args.set,
        "components": {name: d[v] for name, v in
                       zip(p.names, ftransform.ft_transform(p, f))},
        "field": {
            "universe": p.universe.name,
            "values": list(ftransform.ft_field(p, f).displays()),
        },
    }, "ok"


def _verdict(holds: bool) -> str:
    return "ok" if holds else "fail"


def _hom_json(v: algebra.HomVerdict | None) -> dict | None:
    """A homomorphism verdict, with its violation if it has one; `None` for
    a check that was not run."""
    if v is None:
        return None
    out = {"holds": v.holds}
    if v.violation is not None:
        element, values = v.violation
        out["violation"] = {"element": element, "set": list(values)}
    return out


def _check_payload(w: morphism.Witness):
    payload = _witness_json(w)
    if not w.admissible and w.attained is not None:
        payload["counterexample"] = payload.pop("attained_at")
    return payload, _verdict(w.admissible)


def _cmd_construct(doc, args, budget):
    if args.command == "functor":
        key = _FUNCTORS[args.name]
    else:
        key = (args.command, getattr(args, "construction", None))
    kind, option, source = _CONSTRUCTIONS[key]
    built = _derive(doc, kind, source, _required(args, option), budget)
    return {kind: _KINDS[kind].to_json(built)}, "ok"


def _cmd_check(doc, args, budget):
    kind = args.kind
    if kind == "fp":
        return _check_payload(morphism.fp_witness(
            doc.candidate(_required(args, "cand"))))
    if kind in _WITNESS_CHECKS:
        compared, option, witness = _WITNESS_CHECKS[kind]
        if args.cand:
            cand = doc.candidate(args.cand)
            phi = cand.phi
            x = _from_partition(compared, cand.source, budget)
            y = _from_partition(compared, cand.target, budget)
        else:
            phi = doc.map(_required(args, "map"))
            x, y = (_resolve(doc, compared,
                             _required(args, f"{end}-{option}"), budget)
                    for end in ("source", "target"))
        return _check_payload(witness(phi, x, y, budget))
    if kind == "coa-hom":
        view, check = "coalgebra", algebra.check_coa_hom
    else:
        view, check = "dialgebra", algebra.check_dia_hom
    verdict = check(*_hom_ends(doc, args, view, budget))
    return _hom_json(verdict), _verdict(verdict.holds)


def _hom_ends(doc, args, view: str, budget: int):
    """The map, and the `view` of its source and target partitions."""
    phi = doc.map(_required(args, "map"))
    px = doc.partition(_required(args, "source-partition"))
    py = doc.partition(_required(args, "target-partition"))
    return (phi, _from_partition(view, px, budget),
            _from_partition(view, py, budget))


def _cmd_roundtrip(doc, args, budget):
    name = args.name
    if name in ("f2", "f4"):
        kind = "relation" if name == "f2" else "system"
        start = _resolve(doc, kind, _required(args, kind), budget)
        d = start.lattice.displays
        # a mismatch's site is a pair of point labels or a set's values
        if name == "f2":
            label, total = "relation-system", len(start.universe) ** 2
            mismatches = [(list(at), a, b) for at, a, b
                          in closure.roundtrip_relation(start, budget)]
        else:
            label, total = "system-operator", len(start.table)
            mismatches = [([d[v] for v in at], a, b) for at, a, b
                          in closure.roundtrip_system(start, budget)]
        return {"roundtrip": {
            "kind": label,
            "total": total,
            "exact": not mismatches,
            "mismatches": [{"at": at, "original": d[a], "mapped_back": d[b]}
                           for at, a, b in mismatches],
        }}, "ok"
    p = doc.partition(_required(args, "partition"))
    c = _from_partition("coalgebra", p, budget)
    d = _from_partition("dialgebra", p, budget)
    back_c = algebra.dia_to_coa(algebra.coa_to_dia(c))
    back_d = algebra.coa_to_dia(algebra.dia_to_coa(d))
    # a table's rows are `transform_table` of its partition, so equal
    # partitions are equal tables, and no table is built to compare them
    payload = {
        "coa_dia_coa_exact": back_c.partition == c.partition,
        "dia_coa_dia_exact": back_d.partition == d.partition,
        "triangle_exact": algebra.coa_to_dia(c).partition == d.partition,
    }
    return {"roundtrip": payload}, _verdict(all(payload.values()))


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
    return payload, "ok"


def _cmd_diagnostic(doc, args, budget):
    failures = morphism.index_square_diagnostic(
        doc.candidate(_required(args, "cand")))
    return {"index_square": {
        "holds": not failures,
        "failures": [{"element": e, "target_index_of_image": got,
                      "psi_of_index": expected}
                     for e, got, expected in failures],
    }}, "ok"


def _cmd_laws(doc, args, budget):
    kind = args.kind
    if kind == "lattice":
        report = lattice.law_suite(doc.lattice, budget)
        scan = lattice.zero_divisor_scan(doc.lattice)
        return {
            "laws": _suite_json(report, "lattice", "clauses"),
            "zero_divisors": [list(p) for p in scan],
        }, _verdict(report.all_hold)
    if kind == "ftransform":
        report = ftransform.transform_law_suite(
            doc.partition(_required(args, "partition")), budget)
        payload = {"laws": _suite_json(report, "universe", "laws")}
        return payload, _verdict(report.all_hold)
    sys_ = _resolve(doc, "system", _required(args, "system"), budget)
    report = closure.check_system(sys_, budget)
    ok = report.holds("axiom_i") and report.holds("axiom_ii")
    return {"check": _axioms_json(report)}, _verdict(ok)


def _cmd_adjunction(doc, args, budget):
    phi = doc.map(args.map)
    c = _derive(doc, "coalgebra", "partition", args.source_partition, budget)
    d = _derive(doc, "dialgebra", "partition", args.target_partition, budget)
    rho = algebra.adjunction_check(c, d, phi)
    payload = {"holds": rho.holds, "rho_is_dialgebra_morphism": _hom_json(rho)}
    return {"adjunction": payload}, _verdict(rho.holds)


def _cmd_transfer(doc, args, budget):
    view = "coalgebra" if args.direction == "coa-dia" else "dialgebra"
    verdict = algebra.morphism_transfer_check(
        *_hom_ends(doc, args, view, budget), args.direction)
    payload = {"status": verdict.status,
               "original": _hom_json(verdict.original),
               "converted": _hom_json(verdict.converted)}
    verdicts = {"holds": "ok", "proviso unmet": "proviso-unmet"}
    return {"transfer": payload}, verdicts.get(verdict.status, "fail")


# ---------------------------------------------------------------------------
# the command table, read by one builder loop

class _Command(Record):
    """One subcommand.  `word` is its positional word as (dest, choices);
    `echo` says whether the report's `command` field repeats that word."""

    handler: Callable
    help: str
    word: tuple | None = None
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    echo: bool = True


def _built_by(command: str) -> list:
    return [construction for cmd, construction in _CONSTRUCTIONS
            if cmd == command]


# a flag's help line, looked up as "command --flag", then as "flag"
_FLAG_HELP = {"relation": "relation reference", "system": "system reference",
              "closure --system": "system reference (operator is derived)"}
_HOM = ("map", "source-partition", "target-partition")

_COMMANDS = {
    "validate": _Command(_cmd_validate, "validate the lattice and all objects"),
    "ft": _Command(_cmd_ft, "direct upper transform of a named set",
                   required=("partition", "set")),
    "closure": _Command(_cmd_construct, "build a closure system",
                        ("construction", _built_by("closure")),
                        optional=("partition", "relation", "system")),
    "operator": _Command(_cmd_construct, "build a closure operator",
                         ("construction", _built_by("operator")), ("system",)),
    "relation": _Command(_cmd_construct, "build a relation",
                         ("construction", _built_by("relation")),
                         optional=("partition", "system")),
    "check": _Command(
        _cmd_check, "greatest-witness / homomorphism checks",
        ("kind", ["fp", "fas", "fcss", "fcs", "coa-hom", "dia-hom"]),
        optional=("cand", "map", "source-relation", "target-relation",
                  "source-system", "target-system", "source-partition",
                  "target-partition")),
    "functor": _Command(_cmd_construct, "object maps of the six functors",
                        ("name", list(_FUNCTORS)),
                        optional=("partition", "relation", "system")),
    "roundtrip": _Command(_cmd_roundtrip, "informational round-trip reports",
                          ("name", ["f2", "f4", "coa-dia"]),
                          optional=("relation", "system", "partition")),
    "product": _Command(_cmd_product, "binary product with projections",
                        ("kind", ["fps"]), ("left", "right"), ("pairing",)),
    "diagnostic": _Command(_cmd_diagnostic, "non-asserting diagnostics",
                           ("kind", ["index-square"]), ("cand",)),
    "laws": _Command(_cmd_laws, "exhaustive law suites",
                     ("kind", ["lattice", "ftransform", "closure"]),
                     optional=("partition", "system")),
    "coalg": _Command(_cmd_construct, "coalgebra table of a partition",
                      required=("partition",)),
    "dialg": _Command(_cmd_construct, "dialgebra table of a partition",
                      required=("partition",)),
    "adjunction": _Command(
        _cmd_adjunction,
        "is the mate of a coalgebra morphism a dialgebra morphism", None, _HOM),
    "transfer": _Command(
        _cmd_transfer, "re-check a homomorphism in the other view",
        ("direction", ["coa-dia", "dia-coa"]), _HOM, echo=False),
}


def _build_parser(first: str | None) -> argparse.ArgumentParser:
    """The parser for a command line whose first word is `first`.  When
    that names a command, only its subparser is built, and the metavar
    keeps every command in the usage line that errors print.  Otherwise
    (`-h`, a missing or unknown command) all of them are built, without the
    metavar, which would rename `argument command` in their errors."""
    chosen = first if first in _COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="latfuzz",
        description="Finite residuated-lattice workbench (batch runner).",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if chosen else None)
    for name, command in _COMMANDS.items():
        if chosen not in (None, name):
            continue
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--doc", required=True, help="instance document (JSON)")
        p.add_argument("--budget", type=int, default=None,
                       help=f"enumeration budget (default {DEFAULT_BUDGET}, "
                            f"env {ENV_BUDGET})")
        p.add_argument("--no-timing", action="store_true",
                       help="omit the timing field for byte comparison")
        if command.word:
            dest, choices = command.word
            p.add_argument(dest, choices=choices)
        for flag in command.required + command.optional:
            p.add_argument(f"--{flag}", required=flag in command.required,
                           help=_FLAG_HELP.get(f"{name} --{flag}",
                                               _FLAG_HELP.get(flag)))
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    command = _COMMANDS[args.command]
    started = time.perf_counter()
    words = [args.command]
    if command.word and command.echo:
        words.append(getattr(args, command.word[0]))
    report = {"command": " ".join(words)}
    try:
        report["budget"] = budget = _resolve_budget(args)
        doc = load_document(args.doc, budget)
        payload, report["verdict"] = command.handler(doc, args, budget)
        report.update(payload)
    except BudgetExceeded as exc:
        report.update(verdict="budget-exceeded", error=str(exc),
                      cardinality=exc.cardinality)
    except PreconditionError as exc:
        report.update(verdict="fail", error=str(exc))
    except (DocumentError, WorkbenchError) as exc:
        _complain(f"latfuzz: {exc}")
        return INPUT_ERROR
    if not args.no_timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    # looked up now: a caller may have redirected stdout
    _write_json(report, sys.stdout.write)
    return _EXIT_CODES.get(report["verdict"], OK)


# ---------------------------------------------------------------------------
# report output: the text `json.dumps` writes with an indent of 2, laid out
# with the C string encoder and one join per list of strings, since any
# indent makes `json` fall back to its pure-Python encoder.  The text goes out
# in chunks, so a large report never exists as one string; and not piece by
# piece, since where stdout is unbuffered (PYTHONUNBUFFERED) each write is a
# system call.

CHUNK = 1 << 16  # characters per write; the text is ASCII, so bytes too

_encode_str = json.encoder.encode_basestring_ascii


def _key_json(key) -> str:
    """A dict key as json writes it: other scalars become their JSON text."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_json(value, write) -> None:
    """Pass `value` as `json.dumps(value, indent=2)` writes it, and a
    newline, to `write` in pieces of at least `CHUNK` characters, the last
    one shorter."""
    pieces = []
    size = 0

    def emit(piece):
        nonlocal size
        pieces.append(piece)
        size += len(piece)
        if size >= CHUNK:
            write("".join(pieces))
            pieces.clear()
            size = 0

    _lay_out(value, "", emit)
    pieces.append("\n")
    write("".join(pieces))


def _lay_out(value, indent: str, emit) -> None:
    """Emit the text of `value`, each of its lines after the first indented
    by `indent` more.  A callable value lays itself out."""
    if isinstance(value, str):
        return emit(_encode_str(value))
    if callable(value):
        return value(indent, emit)
    if not isinstance(value, (list, tuple, dict)):
        return emit(json.dumps(value))
    if not value:
        return emit("{}" if isinstance(value, dict) else "[]")
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        head = "{\n" + inner
        for k, v in value.items():
            emit(head + _key_json(k) + ": ")
            _lay_out(v, inner, emit)
            head = sep
        return emit("\n" + indent + "}")
    head = "[\n" + inner
    if isinstance(value[0], str):
        # a list of strings in one C-level pass; a later non-string makes
        # the encoder raise and the list go item by item
        try:
            return emit(head + sep.join(map(_encode_str, value))
                        + "\n" + indent + "]")
        except TypeError:
            pass
    for v in value:
        emit(head)
        _lay_out(v, inner, emit)
        head = sep
    emit("\n" + indent + "]")


def _complain(line: str) -> None:
    """`line` on stderr; if stderr fails, the line and what else is still
    buffered there go nowhere, so the exit flush cannot raise."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a write error shows here, not at exit
    except OSError as exc:
        # `run` turns every read error into a DocumentError, so this comes
        # from writing stdout.  What is still buffered goes nowhere, as in
        # `_complain`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = STDOUT_CLOSED
        else:
            _complain(f"latfuzz: cannot write the report: {exc}")
            code = INPUT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
