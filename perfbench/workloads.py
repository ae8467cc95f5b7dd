"""Seeded instance documents and the command list of each workload.

A workload is a fixed list of CLI commands over a fixed set of document
slots.  Each slot fixes the structure that sets a command's cost: the
lattice, the universe sizes, the partition shape and where each closure
system comes from.  The seed only varies the contents: graded values,
random system tables, core assignments and candidate maps.  So every seed
costs about the same to run, and no seed can make a check exit early.

Each generated slot has VARIANTS contents; the seed picks one per slot.
`reference.json` records the seed commit's result for every variant, so the
correctness gate covers every seed, not only the ones used while writing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

VARIANTS = 8
SWEEP_BUDGET = "16384"


# ---------------------------------------------------------------------------
# lattices, as the generator needs them: a spec plus display strings


@dataclass(frozen=True)
class Carrier:
    spec: dict
    displays: tuple[str, ...]
    bottom: int
    top: int

    def non_top(self) -> list[int]:
        return [a for a in range(len(self.displays)) if a != self.top]

    def non_bottom(self) -> list[int]:
        return [a for a in range(len(self.displays)) if a != self.bottom]


def _chain(kind: str, n: int) -> Carrier:
    labels = tuple(str(Fraction(k, n - 1)) for k in range(n))
    return Carrier({"kind": kind, "n": n}, labels, 0, n - 1)


def godel(n: int) -> Carrier:
    return _chain("godel_chain", n)


def lukasiewicz(n: int) -> Carrier:
    return _chain("lukasiewicz_chain", n)


def boolean(atoms: int) -> Carrier:
    def show(mask):
        return "{" + ",".join("abcd"[i] for i in range(atoms) if mask >> i & 1) + "}"

    n = 1 << atoms
    return Carrier({"kind": "boolean", "atoms": atoms},
                   tuple(show(m) for m in range(n)), 0, n - 1)


def grid23() -> Carrier:
    spec = json.loads((FIXTURES / "grid23.json").read_text())["lattice"]
    elements = tuple(spec["elements"])
    return Carrier(spec, elements, elements.index("00"), elements.index("12"))


# ---------------------------------------------------------------------------
# document parts


def universe(name: str, size: int) -> list[str]:
    return [f"{name.lower()}{i}" for i in range(size)]


def partition(rng: random.Random, car: Carrier, uname: str, points: list[str],
              shape: str, nblocks: int = 2) -> dict:
    """A partition of `points` whose cores are `crisp` (bottom tails),
    `graded` (random non-top tails) or `identity` (one singleton core per
    point, named by the point)."""
    if shape == "identity":
        cores = {p: [p] for p in points}
    else:
        order = list(points)
        rng.shuffle(order)
        cores = {f"B{b}": [order[b]] for b in range(nblocks)}
        for p in order[nblocks:]:
            cores[f"B{rng.randrange(nblocks)}"].append(p)
    tails = [car.bottom] if shape == "crisp" else car.non_top()
    d = car.displays
    blocks = {
        name: {p: d[car.top] if p in core else d[rng.choice(tails)]
               for p in points}
        for name, core in cores.items()
    }
    return {"universe": uname, "blocks": blocks}


def candidate(rng: random.Random, doc: dict, src: str, tgt: str,
              top_display: str, name: str = "m") -> None:
    """Add candidate `name` from partition `src` to `tgt`: a random index
    map and a point map that sends each core into the core of its image
    block, so the candidate is core-aligned as the morphism corpus
    requires."""
    p, q = doc["partitions"][src], doc["partitions"][tgt]
    q_cores = {block: [y for y, v in vals.items() if v == top_display]
               for block, vals in q["blocks"].items()}
    psi = {block: rng.choice(sorted(q_cores)) for block in p["blocks"]}
    phi = {}
    for block, vals in p["blocks"].items():
        for x, v in vals.items():
            if v == top_display:
                phi[x] = rng.choice(q_cores[psi[block]])
    doc.setdefault("maps", {})[f"{name}_phi"] = {
        "source": p["universe"], "target": q["universe"], "values": phi}
    doc.setdefault("index_maps", {})[f"{name}_psi"] = {
        "source": src, "target": tgt, "values": psi}
    doc.setdefault("candidates", {})[name] = {
        "source": src, "target": tgt, "phi": f"{name}_phi",
        "psi": f"{name}_psi"}


def explicit_system(rng: random.Random, car: Carrier, uname: str,
                    npoints: int) -> dict:
    """A random membership table over the whole space.  The all-bottom set
    gets bottom, the all-top set top, every other set a random non-bottom
    value, so the axiom check fails on the same few rows for every seed."""
    n = len(car.displays)
    size = n ** npoints
    d = car.displays
    choices = car.non_bottom()
    entries = []
    for i in range(size):
        vals, rest = [], i
        for _ in range(npoints):
            rest, v = divmod(rest, n)
            vals.append(d[v])
        vals.reverse()
        if i == 0:
            member = car.bottom
        elif i == size - 1:
            member = car.top
        else:
            member = rng.choice(choices)
        entries.append([vals, d[member]])
    return {"universe": uname, "entries": entries}


def explicit_relation(rng: random.Random, car: Carrier, uname: str,
                      points: list[str]) -> dict:
    d = car.displays
    return {"universe": uname, "rows": [
        [d[car.top] if i == j else d[rng.randrange(len(d))]
         for j in range(len(points))]
        for i in range(len(points))
    ]}


def permuted_partition(part: dict, sigma: dict) -> dict:
    """The image of an identity-indexed partition under a permutation, so
    that `sigma` is an isomorphism and every homomorphism check on it holds
    (and sweeps the whole space instead of stopping at a violation)."""
    return {"universe": part["universe"], "blocks": {
        sigma[name]: {sigma[p]: v for p, v in vals.items()}
        for name, vals in part["blocks"].items()
    }}


# ---------------------------------------------------------------------------
# slot contents: each function maps a seeded rng to a document


def _base(car: Carrier, **universes: int) -> tuple[dict, dict]:
    unis = {name: universe(name, size) for name, size in universes.items()}
    return {"lattice": car.spec, "universes": unis}, unis


def pairwise_slot(car: Carrier, npoints: int, shape: str, nblocks: int,
                  target_points: int):
    def build(rng):
        doc, unis = _base(car, X=npoints, Y=target_points)
        doc["partitions"] = {
            "P": partition(rng, car, "X", unis["X"], shape, nblocks),
            "Q": partition(rng, car, "Y", unis["Y"], "graded", 2),
        }
        candidate(rng, doc, "P", "Q", car.displays[car.top])
        doc["systems"] = {"S": explicit_system(rng, car, "X", npoints)}
        # small extras so that every layer is reached on every workload
        doc["partitions"]["I"] = partition(rng, car, "Y", unis["Y"],
                                           "identity")
        doc["maps"]["idY"] = {"source": "Y", "target": "Y",
                              "values": {y: y for y in unis["Y"]}}
        return doc
    return build


def sweep_structure_slot(car: Carrier, npoints: int):
    def build(rng):
        doc, unis = _base(car, X=npoints)
        points = unis["X"]
        ipart = partition(rng, car, "X", points, "identity")
        image = list(points)
        rng.shuffle(image)
        sigma = dict(zip(points, image))
        doc["partitions"] = {"I": ipart, "J": permuted_partition(ipart, sigma)}
        doc["maps"] = {"sigma": {"source": "X", "target": "X", "values": sigma}}
        doc["systems"] = {"S": explicit_system(rng, car, "X", npoints)}
        doc["relations"] = {"R": explicit_relation(rng, car, "X", points)}
        return doc
    return build


def sweep_candidate_slot(car: Carrier, npoints: int):
    def build(rng):
        doc, unis = _base(car, X=npoints, Y=npoints, Z=2)
        doc["partitions"] = {
            "P": partition(rng, car, "X", unis["X"], "graded", 3),
            "Q": partition(rng, car, "Y", unis["Y"], "crisp", 2),
            # small extras so that every layer is reached on every workload
            "PZ": partition(rng, car, "Z", unis["Z"], "graded", 2),
        }
        candidate(rng, doc, "P", "Q", car.displays[car.top])
        candidate(rng, doc, "PZ", "PZ", car.displays[car.top], "mz")
        return doc
    return build


def fine_chain_slot(car: Carrier):
    def build(rng):
        doc, unis = _base(car, X=2, Y=2)
        d = car.displays
        doc["fuzzy_sets"] = {"f": {"universe": "X", "values": {
            p: d[rng.randrange(len(d))] for p in unis["X"]}}}
        doc["partitions"] = {
            "P": partition(rng, car, "X", unis["X"], "graded", 2),
            "Q": partition(rng, car, "Y", unis["Y"], "graded", 2),
        }
        candidate(rng, doc, "P", "Q", d[car.top])
        return doc
    return build


def lattice_slot(car: Carrier):
    def build(rng):
        return {"lattice": car.spec, "universes": {"U": ["u1"]}}
    return build


def fixture_slot(relpath: str):
    def build(rng):
        return json.loads((FIXTURES / relpath).read_text())
    return build


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: dict          # slot name -> function(rng) -> document
    commands: tuple      # (slot, *cli args without --doc)
    generated: frozenset  # slots whose contents depend on the seed
    setup: tuple = ("validate",)  # run once on every document
    # Tiny commands run only in the traced run, so that every layer and
    # hot function is reached there; they would skew the end-to-end
    # command-time percentiles.
    probes: tuple = ()


def _pairwise() -> Workload:
    slots = {
        "g243": pairwise_slot(godel(3), 5, "graded", 2, 3),
        "l243": pairwise_slot(lukasiewicz(3), 5, "crisp", 3, 3),
        "b256": pairwise_slot(boolean(2), 4, "graded", 2, 2),
        "r216": pairwise_slot(grid23(), 3, "graded", 2, 2),
        "g729": pairwise_slot(godel(3), 6, "graded", 2, 3),
    }
    derived, explicit = ("--system", "partition:P"), ("--system", "S")
    commands = (
        ("g243", "operator", "from-system", *derived),
        ("g243", "laws", "ftransform", "--partition", "P"),
        ("g243", "check", "fcs", "--cand", "m"),
        ("g243", "closure", "from-operator", *explicit),
        ("l243", "operator", "from-system", *explicit),
        ("l243", "roundtrip", "f4", *derived),
        ("l243", "laws", "closure", *derived),
        ("l243", "check", "fcs", "--cand", "m"),
        ("b256", "roundtrip", "f4", *explicit),
        ("b256", "laws", "ftransform", "--partition", "P"),
        ("b256", "closure", "from-operator", *derived),
        ("r216", "operator", "from-system", *derived),
        ("r216", "laws", "ftransform", "--partition", "P"),
        ("r216", "check", "fcs", "--cand", "m"),
        ("r216", "roundtrip", "f4", *explicit),
        ("g729", "laws", "closure", *derived),
    )
    probes = (
        ("r216", "laws", "lattice"),
        ("r216", "relation", "from-system", *explicit),
        ("r216", "check", "fcss", "--cand", "m"),
        ("r216", "check", "coa-hom", "--map", "idY", "--source-partition",
         "I", "--target-partition", "I"),
    )
    return Workload(
        "pairwise",
        "quadratic sweeps over 216-729 sets: closure operator construction "
        "and checkers, the ftransform law suite; derived and explicit "
        "systems, chain and non-chain lattices",
        slots, commands, frozenset(slots), probes=probes)


def _sweep() -> Workload:
    slots = {
        "b16k": sweep_structure_slot(boolean(2), 7),
        "l4k": sweep_structure_slot(lukasiewicz(4), 6),
        "g4k": sweep_candidate_slot(godel(4), 6),
    }
    iso = ("--map", "sigma", "--source-partition", "I",
           "--target-partition", "J")
    budget = ("--budget", SWEEP_BUDGET)
    commands = (
        ("b16k", "coalg", "--partition", "I", *budget),
        ("b16k", "check", "coa-hom", *iso, *budget),
        ("b16k", "adjunction", *iso, *budget),
        ("b16k", "transfer", "coa-dia", *iso, *budget),
        ("b16k", "relation", "from-system", "--system", "S", *budget),
        ("b16k", "laws", "closure", "--system", "S", *budget),
        ("b16k", "closure", "from-relation", "--relation", "R", *budget),
        ("l4k", "dialg", "--partition", "J", *budget),
        ("l4k", "check", "dia-hom", *iso, *budget),
        ("l4k", "closure", "from-relation", "--relation", "R", *budget),
        ("l4k", "laws", "closure", "--system", "S", *budget),
        ("l4k", "relation", "from-system", "--system", "S", *budget),
        ("g4k", "closure", "from-partition", "--partition", "P", *budget),
        ("g4k", "check", "fcss", "--cand", "m", *budget),
        ("g4k", "relation", "from-system", "--system", "partition:P",
         *budget),
    )
    probes = (
        ("g4k", "laws", "lattice", *budget),
        ("g4k", "operator", "from-system", "--system", "partition:PZ",
         *budget),
        ("g4k", "laws", "ftransform", "--partition", "PZ", *budget),
        ("g4k", "check", "fcs", "--cand", "mz", *budget),
    )
    return Workload(
        "sweep",
        "single passes over 4096 and 16384 sets: enumeration, relations, "
        "structure tables, MB-sized document loads and reports; nothing "
        "compares pairs",
        slots, commands, frozenset(slots), ("validate", *budget), probes)


# the command list of the CLI tests, on the shipped fixtures
_CLI_TESTS = (
    ("w3", "validate"),
    ("w3", "ft", "--partition", "W3", "--set", "ramp_up"),
    ("w3", "closure", "from-partition", "--partition", "W3"),
    ("w3", "closure", "from-relation", "--relation", "partition:W3"),
    ("w3", "closure", "from-operator", "--system", "partition:W3"),
    ("w3", "operator", "from-system", "--system", "partition:W3"),
    ("w3", "relation", "from-partition", "--partition", "W3"),
    ("w3", "relation", "from-system", "--system", "partition:W3"),
    ("w3", "check", "fp", "--cand", "m_half"),
    ("w3", "check", "fas", "--cand", "m_half"),
    ("w3", "check", "fas", "--map", "id_X2", "--source-relation", "R_id_X2",
     "--target-relation", "R_top_X2"),
    ("w3", "check", "fcss", "--cand", "m_half"),
    ("w3", "check", "fcs", "--cand", "m_half"),
    ("w3", "check", "coa-hom", "--map", "swap", "--source-partition", "X2P",
     "--target-partition", "X2P"),
    ("w3", "check", "dia-hom", "--map", "collapse", "--source-partition",
     "X2P", "--target-partition", "SP"),
    ("w3", "functor", "f1", "--partition", "W3"),
    ("w3", "functor", "f2", "--relation", "partition:W3"),
    ("w3", "functor", "f2inv", "--system", "partition:W3"),
    ("w3", "functor", "f3", "--partition", "W3"),
    ("w3", "functor", "f4", "--system", "partition:W3"),
    ("w3", "functor", "f4inv", "--system", "partition:W3"),
    ("w3", "roundtrip", "f2", "--relation", "partition:W3"),
    ("w3", "roundtrip", "f2", "--relation", "R_bot_X2"),
    ("w3", "roundtrip", "f4", "--system", "partition:W3"),
    ("w3", "roundtrip", "coa-dia", "--partition", "X2P"),
    ("w3", "product", "fps", "--left", "Q", "--right", "P2", "--pairing",
     "pair_mhalf_id"),
    ("w3", "diagnostic", "index-square", "--cand", "m_half"),
    ("grid23", "laws", "lattice"),
    ("w3", "laws", "ftransform", "--partition", "W3"),
    ("w3", "laws", "closure", "--system", "partition:W3"),
    ("w3", "coalg", "--partition", "X2P"),
    ("w3", "dialg", "--partition", "X2P"),
    ("w3", "adjunction", "--map", "swap", "--source-partition", "X2P",
     "--target-partition", "X2P"),
    ("w3", "transfer", "coa-dia", "--map", "swap", "--source-partition",
     "X2P", "--target-partition", "X2P"),
    ("w3", "transfer", "coa-dia", "--map", "collapse", "--source-partition",
     "X2P", "--target-partition", "SP"),
)


def _corpus() -> Workload:
    # Two chains of the largest size, so that the slowest tenth of the
    # commands is a group of like cost.
    fine = {"l21": lukasiewicz(21), "g32": godel(32),
            "l64": lukasiewicz(64), "g64": godel(64)}
    slots = {
        "w3": fixture_slot("w3.json"),
        "example31": fixture_slot("example31.json"),
        "grid23": fixture_slot("grid23.json"),
        "bad_order": fixture_slot("errors/bad_order.json"),
        "corrupt_tensor": fixture_slot("errors/corrupt_tensor.json"),
        "over_budget": fixture_slot("errors/over_budget.json"),
        **{name: fine_chain_slot(car) for name, car in fine.items()},
        "boolean3": lattice_slot(boolean(3)),
        "luk12": lattice_slot(lukasiewicz(12)),
    }
    commands = _CLI_TESTS + (
        ("example31", "closure", "from-partition", "--partition", "PN2"),
        ("bad_order", "validate"),
        ("corrupt_tensor", "validate"),
        ("over_budget", "closure", "from-partition", "--partition", "P10"),
    ) + tuple(
        cmd for name in fine for cmd in (
            (name, "ft", "--partition", "P", "--set", "f"),
            (name, "check", "fp", "--cand", "m"),
            (name, "closure", "from-partition", "--partition", "P"),
        )
    ) + (
        ("boolean3", "laws", "lattice"),
        ("luk12", "laws", "lattice", "--budget", "65536"),
    )
    return Workload(
        "corpus",
        "many short commands (CLI test list, error fixtures, fine chains, law "
        "suites) where start-up, document load and lattice checks dominate",
        slots, commands, frozenset(fine))


WORKLOADS = {w.name: w for w in (_pairwise(), _sweep(), _corpus())}


# ---------------------------------------------------------------------------
# materialising a seed


def variant_of(workload: Workload, seed: int) -> dict[str, int]:
    """Which recorded variant each generated slot uses under `seed`."""
    rng = random.Random(seed)
    return {slot: rng.randrange(VARIANTS) for slot in sorted(workload.generated)}


def render(workload: Workload, slot: str, variant: int) -> bytes:
    """The document of one slot variant, as the bytes written to disk."""
    if slot not in workload.generated:
        variant = 0
    rng = random.Random(f"{workload.name}/{slot}/{variant}")
    doc = workload.slots[slot](rng)
    return json.dumps(doc, separators=(",", ":")).encode()


def materialise(workload: Workload, seed: int, outdir: Path) -> dict[str, Path]:
    """Write the documents `seed` selects; return slot -> path."""
    outdir.mkdir(parents=True, exist_ok=True)
    chosen = variant_of(workload, seed)
    paths = {}
    for slot in workload.slots:
        path = outdir / f"{slot}.json"
        path.write_bytes(render(workload, slot, chosen.get(slot, 0)))
        paths[slot] = path
    return paths
