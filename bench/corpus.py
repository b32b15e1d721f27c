"""The three workloads: fixed plant corpora, seeded queries, and their checks.

Plants come from tests/generators.random_automaton at fixed (generator
seed, max_n, max_events, draw index) coordinates, plus the tests/data
documents.  The corpus is fixed before anything is measured; where a
generator's draws are cut off, the reason is given beside it.  The
benchmark seed picks the query order and
the parts of each query that do not change its cost class: member targets,
simulation scripts and seeds.  Every query carries the instance sizes that
explain its cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import answers as A
import oracle as O

DATA = Path("tests/data")

# graph_control: the draws among the first 25 of random_automaton(Random(1),
# max_n=6, max_events=4) whose accessible part has 25 to 300 vertices.
GRAPH_GEN = (1, 6, 4, 25)
GRAPH_V = (25, 300)
# member queries run on the plants below MEMBER_MAX_V vertices: above it a
# member query costs what reach does.  check-controllable and synthesize run
# on the plants below CONTROL_MAX_V: above it the backtracking search takes
# minutes (ROADMAP D1).
MEMBER_MAX_V = 150
CONTROL_MAX_V = 100
CONTROLLERS_PER_PLANT = 3

# stabilize_budget: tests/data legal sets plus the draws among the first 40
# of random_automaton(Random(8), max_n=4, max_events=3) with 4 to 30 vertices.
# Draw 44 (n=3, V=27) takes over a minute per query, so the corpus stops at 40.
STAB_GEN = (8, 4, 3, 40)
STAB_V = (4, 30)
STAB_BUDGET = 300

# cli_mix: tiny plants, and the plants the language queries run on.
TINY_GEN = (3, 3, 3, 30)
TINY_MAX_V = 12
TINY_PLANTS = 10
LANG_SUPPORT = 400


@dataclass
class Query:
    name: str
    argv: list
    check: Callable
    sizes: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    units: list  # lists of queries that run in order (a write before its read)
    docs: list  # automaton documents, for the set-up measurement
    files: Path


def _rel(path: Path) -> str:
    return path.as_posix()


class Builder:
    def __init__(self, name: str, files: Path):
        self.name = name
        self.files = files
        files.mkdir(parents=True, exist_ok=True)
        self.units: list = []
        self.docs: list = []
        self._written: dict = {}

    def write(self, stem: str, doc) -> str:
        path = self.files / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return _rel(path)

    def plant_file(self, key: str, plant) -> str:
        if key not in self._written:
            self._written[key] = self.write(key, O.plant_doc(plant))
            self.docs.append(self._written[key])
        return self._written[key]

    def data_plant(self, filename: str):
        path = DATA / filename
        plant = O.plant_from_doc(json.loads(path.read_text(encoding="utf-8")))
        if filename not in self._written:
            self._written[filename] = _rel(path)
            self.docs.append(_rel(path))
        return self._written[filename], plant

    def states_file(self, stem: str, states) -> str:
        return self.write(stem, {"kind": "state_set", "states": [O.fmt_state(q) for q in states]})

    def add(self, *queries: Query):
        self.units.append(list(queries))

    def build(self) -> Workload:
        return Workload(self.name, self.units, self.docs, self.files)


def plant_sizes(plant) -> dict:
    vertices, edges = O.closed_loop(plant)
    return {"n": plant["n"], "events": len(plant["events"]), "V": len(vertices), "E": len(edges)}


def set_sizes(plant, P) -> dict:
    pairs = O.successor_pairs(plant, P)
    return {"P": len(P), "succ_edges": sum(len(ps) for _, ps in pairs),
            "slots": sum(len({e for e, _ in ps}) for _, ps in pairs)}


def from_automaton(aut) -> dict:
    """Oracle form of a generated fuzzydes automaton."""
    return {
        "n": aut.n,
        "labels": tuple(aut.state_labels),
        "initial": tuple(O.from_exact(v) for v in aut.initial),
        "events": [
            (ev.name, tuple(tuple(O.from_exact(v) for v in row) for row in ev.matrix),
             O.from_exact(ev.uc_degree))
            for ev in aut.events
        ],
    }


def from_controller(f):
    table = {(tuple(O.from_exact(v) for v in q), name): O.from_exact(value)
             for (q, name), value in f.entries.items()}
    default = O.from_exact(f.default)
    return lambda q, name: table.get((q, name), default)


def draws(coords, v_range, **kwargs):
    """(draw index, automaton, plant) for the draws whose accessible part
    has a vertex count inside v_range."""
    from tests.generators import random_automaton

    gen_seed, max_n, max_events, count = coords
    rng = random.Random(gen_seed)
    out = []
    for index in range(count):
        aut = random_automaton(rng, max_n, max_events, **kwargs)
        plant = from_automaton(aut)
        V = len(O.closed_loop(plant)[0])
        if v_range[0] <= V <= v_range[1]:
            out.append((index, aut, plant))
    return out


def member_target(rng, plant):
    vertices, edges = O.closed_loop(plant)
    fl = O.floors(plant, vertices, edges)
    base = rng.choice(vertices)
    alphas = sorted({v for v in base if v >= fl[base] and v > 0} | {O.ONE} | ({fl[base]} - {0}))
    target = O.scale(rng.choice(alphas), base)
    if not O.is_member([(q, fl[q]) for q in vertices], target):
        raise RuntimeError(f"constructed member {target} is not a member")
    return target


def non_member_target(rng, plant):
    """Two components pinned to distinct values that no accessible vertex
    has at those positions: no single scaling can produce both."""
    vertices, edges = O.closed_loop(plant)
    i, j = rng.sample(range(plant["n"]), 2)
    target = [0] * plant["n"]
    for k in (i, j):
        used = {q[k] for q in vertices} | set(target)
        value = rng.randrange(1, O.ONE)
        while value in used:
            value = rng.randrange(1, O.ONE)
        target[k] = value
    target = tuple(target)
    fl = O.floors(plant, vertices, edges)
    if O.is_member([(q, fl[q]) for q in vertices], target):
        raise RuntimeError(f"constructed non-member {target} is a member")
    return target


def cli(*args) -> list:
    return [str(a) for a in args]


# -- graph_control ---------------------------------------------------------


def graph_control(seed: int, files: Path) -> Workload:
    """Graph construction, reach floors, successor graphs and the
    backtracking controllability search on plants with 25 to 300 vertices."""
    from tests.generators import random_controller

    b = Builder("graph_control", files)
    rng = random.Random(seed)
    for index, aut, plant in draws(GRAPH_GEN, GRAPH_V):
        key = f"g{index}"
        doc = b.plant_file(key, plant)
        sizes = plant_sizes(plant)
        vertices, _ = O.closed_loop(plant)
        b.add(Query(f"reach {key}", cli("reach", "--automaton", doc, "--format", "json"),
                    A.reach(plant, "json"), sizes))
        pickers = (("member", member_target), ("non-member", non_member_target))
        for label, pick in pickers if len(vertices) < MEMBER_MAX_V else ():
            target = pick(rng, plant)
            spec = "state:[" + ",".join(O.fmt_state(target)) + "]"
            b.add(Query(f"member {key} {label}",
                        cli("member", "--automaton", doc, "--spec", spec, "--format", "json"),
                        A.member(plant, target, "json"), sizes))
        acc = b.states_file(f"{key}-accessible", vertices)
        b.add(Query(f"succ {key}", cli("succ", "--automaton", doc, "--spec", acc, "--format", "json"),
                    A.succ(plant, vertices, "json"), {**sizes, **set_sizes(plant, vertices)}))
        if len(vertices) >= CONTROL_MAX_V:
            continue
        sets = [("accessible", vertices)]
        crng = random.Random(index)
        for k in range(CONTROLLERS_PER_PLANT):
            P = O.closed_loop(plant, from_controller(random_controller(crng, aut)))[0]
            if all(set(P) != set(other) for _, other in sets):
                sets.append((f"loop{k}", P))
        for label, P in sets:
            spec = acc if label == "accessible" else b.states_file(f"{key}-{label}", P)
            psizes = {**sizes, **set_sizes(plant, P)}
            b.add(Query(f"check-controllable {key} {label}",
                        cli("check-controllable", "--automaton", doc, "--spec", spec, "--format", "json"),
                        A.check_controllable(plant, P, "json"), psizes))
            b.add(Query(f"synthesize {key} {label}",
                        cli("synthesize", "--automaton", doc, "--spec", spec, "--format", "json"),
                        A.synthesize(plant, P, "json"), psizes))
    return b.build()


# -- stabilize_budget ------------------------------------------------------


def promise(plant, legal) -> str:
    """"yes" when legal holds the open loop's smallest attractor, "no" when
    it holds no scaling of an accessible state, else "open"."""
    vertices, edges = O.closed_loop(plant)
    if O.infimal_attractor(vertices, edges) <= set(legal):
        return "yes"
    if not any(O.scalings(v, q) is not None for q in legal for v in vertices):
        return "no"
    return "open"


def stabilize_budget(seed: int, files: Path) -> Workload:
    """stabilize --budget on legal sets whose witness is found at once,
    after a search, or never within the budget."""
    b = Builder("stabilize_budget", files)

    def add(key, doc, plant, legal):
        spec = b.write(f"{key}-legal", {"kind": "witness", "n": [O.fmt_state(q) for q in legal]})
        sizes = {**plant_sizes(plant), "legal": len(legal), "budget": STAB_BUDGET}
        for fmt in ("json", "text"):
            b.add(Query(f"stabilize {key} {fmt}",
                        cli("stabilize", "--automaton", doc, "--spec", spec, "--budget", STAB_BUDGET,
                            "--format", fmt),
                        A.stabilize(plant, legal, fmt, promise(plant, legal)), sizes))

    admissible = json.loads((DATA / "admissible_set.json").read_text(encoding="utf-8"))["states"]
    fixed = [
        ("treatment_plant.json", "treatment-pair", [["0.9", "0.1", "0"], ["0.1", "0.1", "0.1"]]),
        ("treatment_plant.json", "treatment-admissible", admissible),
        ("drift_plant.json", "drift-sink", [["0.4", "0.1", "0"]]),
        ("drift_plant.json", "drift-unreachable", [["0.2", "0.3", "0.4"]]),
    ]
    for filename, key, legal in fixed:
        doc, plant = b.data_plant(filename)
        add(key, doc, plant, [O.parse_state(q) for q in legal])
    for filename, key in (("cascade_plant.json", "cascade"), ("single_event_plant.json", "single")):
        doc, plant = b.data_plant(filename)
        vertices, edges = O.closed_loop(plant)
        add(f"{key}-last", doc, plant, vertices[-1:])
        add(f"{key}-all", doc, plant, vertices)
    for index, _, plant in draws(STAB_GEN, STAB_V):
        key = f"s{index}"
        doc = b.plant_file(key, plant)
        vertices, edges = O.closed_loop(plant)
        infimal = [q for q in vertices if q in O.infimal_attractor(vertices, edges)]
        add(f"{key}-attractor", doc, plant, infimal)
        add(f"{key}-first", doc, plant, infimal[:1])
    return b.build()


# -- cli_mix ---------------------------------------------------------------


def truncated_language(plant, control, limit):
    """The controlled language cut at the deepest length whose support has
    at most limit strings, and that depth."""
    depth = 1
    K = O.closed_loop_language(plant, control, 1)
    while depth < 8:
        deeper = O.closed_loop_language(plant, control, depth + 1)
        if len(deeper) > limit or len(deeper) == len(K):
            break
        K, depth = deeper, depth + 1
    return K, depth


def break_consistency(plant, K):
    """Lower one extension degree so two strings through one state disagree;
    None when no such pair exists."""
    groups = {}
    for s in O.support_order(K):
        groups.setdefault(O.scale(K[s], O.run_string(plant, s)), []).append(s)
    for strings in groups.values():
        for name, _, _ in plant["events"]:
            both = [s for s in strings if K.get(s + (name,), 0) > 1]
            if len(both) < 2:
                continue
            cut = both[1] + (name,)
            value = K[cut] - 1
            return {s: (min(d, value) if s[: len(cut)] == cut else d) for s, d in K.items()}
    return None


def language_doc(K) -> dict:
    return {"kind": "language",
            "pairs": [{"string": list(s), "degree": O.fmt(K[s])} for s in O.support_order(K)]}


def cli_mix(seed: int, files: Path) -> Workload:
    """Every subcommand in both formats on small documents, writes beside
    reads, large-support languages and malformed documents."""
    from tests.generators import random_controller

    b = Builder("cli_mix", files)
    rng = random.Random(seed)
    treat_doc, treat = b.data_plant("treatment_plant.json")
    drift_doc, drift = b.data_plant("drift_plant.json")
    cascade_doc, cascade = b.data_plant("cascade_plant.json")
    admissible_path = _rel(DATA / "admissible_set.json")
    admissible = [O.parse_state(q) for q in
                  json.loads((DATA / "admissible_set.json").read_text(encoding="utf-8"))["states"]]
    drift_lang_path = _rel(DATA / "drift_language.json")
    drift_K = {tuple(p["string"]): O.parse_value(p["degree"]) for p in
               json.loads((DATA / "drift_language.json").read_text(encoding="utf-8"))["pairs"]}
    treat_sizes, drift_sizes = plant_sizes(treat), plant_sizes(drift)
    cascade_vertices = O.closed_loop(cascade)[0]
    cascade_legal = b.write("cascade-legal", {"kind": "witness", "n": [O.fmt_state(cascade_vertices[-1])]})
    drift_legal = b.states_file("drift-legal", [O.parse_state(["0.4", "0.1", "0"])])

    tiny = draws(TINY_GEN, (2, TINY_MAX_V))[:TINY_PLANTS]
    for fmt in ("json", "text"):
        F = ("--format", fmt)
        target = member_target(rng, treat)
        b.add(Query(f"reach treatment {fmt}", cli("reach", "--automaton", treat_doc, *F),
                    A.reach(treat, fmt), treat_sizes))
        b.add(Query(f"member treatment {fmt}",
                    cli("member", "--automaton", treat_doc, "--spec",
                        "state:[" + ",".join(O.fmt_state(target)) + "]", *F),
                    A.member(treat, target, fmt), treat_sizes))
        asizes = {**treat_sizes, **set_sizes(treat, admissible)}
        for command, check in (("succ", A.succ), ("check-controllable", A.check_controllable),
                               ("synthesize", A.synthesize)):
            b.add(Query(f"{command} treatment {fmt}",
                        cli(command, "--automaton", treat_doc, "--spec", admissible_path, *F),
                        check(treat, admissible, fmt), asizes))
        lsizes = {**drift_sizes, "support": len(drift_K), "max_len": 6}
        for command, check in (("check-language", A.check_language),
                               ("derive-supervisor", A.derive_supervisor), ("bridge", A.bridge)):
            b.add(Query(f"{command} drift {fmt}",
                        cli(command, "--automaton", drift_doc, "--spec", drift_lang_path, *F),
                        check(drift, drift_K, fmt), lsizes))
        b.add(Query(f"stability drift {fmt}",
                    cli("stability", "--automaton", drift_doc, "--spec", drift_legal, *F),
                    A.stability(drift, [O.parse_state(["0.4", "0.1", "0"])], fmt), drift_sizes))
        legal = cascade_vertices[-1:]
        b.add(Query(f"stabilize cascade {fmt}",
                    cli("stabilize", "--automaton", cascade_doc, "--spec", cascade_legal,
                        "--budget", 100, *F),
                    A.stabilize(cascade, legal, fmt, promise(cascade, legal)),
                    {**plant_sizes(cascade), "legal": 1, "budget": 100}))
        steps = rng.randint(1, 8)
        b.add(Query(f"simulate treatment {fmt}",
                    cli("simulate", "--automaton", treat_doc, "--seed", rng.randrange(10**6),
                        "--steps", steps, *F),
                    A.simulate(treat, fmt, steps=steps), treat_sizes))
        b.add(Query(f"export-dot treatment {fmt}", cli("export-dot", "--automaton", treat_doc, *F),
                    A.export_dot(treat, fmt), treat_sizes))
        for index, _, plant in tiny:
            key = f"t{index}"
            doc = b.plant_file(key, plant)
            names = [e for e, _, _ in plant["events"]]
            script = " ".join(rng.choice(names) for _ in range(rng.randint(0, 6)))
            b.add(Query(f"reach {key} {fmt}", cli("reach", "--automaton", doc, *F),
                        A.reach(plant, fmt), plant_sizes(plant)))
            b.add(Query(f"simulate {key} {fmt}",
                        cli("simulate", "--automaton", doc, "--string", script, *F),
                        A.simulate(plant, fmt, string=script), plant_sizes(plant)))
            vertices = O.closed_loop(plant)[0]
            legal = b.states_file(f"{key}-accessible", vertices)
            b.add(Query(f"stability {key} {fmt}",
                        cli("stability", "--automaton", doc, "--spec", legal, *F),
                        A.stability(plant, vertices, fmt), plant_sizes(plant)))

    # Writes beside reads: a synthesized controller read back by simulate,
    # and DOT files written with --out.
    out_rel = "controller-out.json"
    script = " ".join(rng.choice("abcd") for _ in range(8))
    b.add(
        Query("synthesize --out treatment",
              cli("synthesize", "--automaton", treat_doc, "--spec", admissible_path,
                  "--format", "json", "--out", _rel(b.files / out_rel)),
              A.synthesize(treat, admissible, "json", out_file=out_rel), treat_sizes),
        Query("simulate --spec treatment",
              cli("simulate", "--automaton", treat_doc, "--spec", _rel(b.files / out_rel),
                  "--string", script, "--format", "json"),
              A.simulate(treat, "json", string=script, controller_file=out_rel), treat_sizes),
    )
    b.add(Query("export-dot --out successor",
                cli("export-dot", "--automaton", treat_doc, "--spec", admissible_path,
                    "--what", "successor", "--format", "dot", "--out", _rel(b.files / "succ.dot")),
                A.export_dot(treat, "dot", graph="successor", P=admissible, out_file="succ.dot"),
                treat_sizes))

    # Languages with a support of a few hundred strings: controlled
    # languages of seeded controllers on tiny plants, all floors zero (so
    # controllable) or seeded floors (check-language may refute).
    lrng = random.Random(17)
    for index, aut, plant in draws((5, 3, 3, 10), (3, TINY_MAX_V), max_uc=0)[:2]:
        key = f"l{index}"
        doc = b.plant_file(key, plant)
        K, depth = truncated_language(plant, from_controller(random_controller(lrng, aut)), LANG_SUPPORT)
        variants = [("consistent", K)]
        broken = break_consistency(plant, K)
        if broken is not None:
            variants.append(("inconsistent", broken))
        for label, lang in variants:
            spec = b.write(f"{key}-{label}", language_doc(lang))
            lsizes = {**plant_sizes(plant), "support": len(lang), "max_len": depth + 1}
            fmt = rng.choice(("json", "text"))
            # bridge on the inconsistent variant runs check_controllable on
            # its passed states, which took over a minute on l0: not timed.
            commands = [("derive-supervisor", A.derive_supervisor)]
            if label == "consistent":
                commands += [("check-language", A.check_language), ("bridge", A.bridge)]
            for command, check in commands:
                b.add(Query(f"{command} {key} {label}",
                            cli(command, "--automaton", doc, "--spec", spec, "--max-len", depth + 1,
                                "--format", fmt),
                            check(plant, lang, fmt), lsizes))
    for index, aut, plant in draws((6, 3, 3, 10), (3, TINY_MAX_V))[:1]:
        key = f"u{index}"
        doc = b.plant_file(key, plant)
        K, depth = truncated_language(plant, from_controller(random_controller(lrng, aut)), LANG_SUPPORT)
        spec = b.write(f"{key}-language", language_doc(K))
        b.add(Query(f"check-language {key}",
                    cli("check-language", "--automaton", doc, "--spec", spec, "--max-len", depth + 1,
                        "--format", "json"),
                    A.check_language(plant, K, "json"),
                    {**plant_sizes(plant), "support": len(K), "max_len": depth + 1}))

    # Malformed input must exit 2 (the ROADMAP D2/D3 reproducers are
    # known-defect probes, outside the timed workloads).
    base = json.loads((DATA / "treatment_plant.json").read_text(encoding="utf-8"))
    mutations = {
        "zero-initial": lambda d: d.update(initial=["0", "0", "0"]),
        "duplicate-event": lambda d: d["events"][0].update(name="b"),
        "ten-digits": lambda d: d["events"][0]["matrix"][0].__setitem__(0, "0.1234567891"),
        "short-matrix": lambda d: d["events"][0]["matrix"].pop(),
        "text-n": lambda d: d.update(n="three"),
    }
    for label, mutate in mutations.items():
        doc = json.loads(json.dumps(base))
        mutate(doc)
        path = b.write(f"bad-{label}", doc)
        b.add(Query(f"malformed {label}", cli("reach", "--automaton", path), A.usage_error()))
    b.add(Query("malformed missing-file", cli("reach", "--automaton", _rel(b.files / "absent.json")),
                A.usage_error()))
    b.add(Query("malformed dot-format", cli("reach", "--automaton", treat_doc, "--format", "dot"),
                A.usage_error()))
    return b.build()


WORKLOADS = {
    "graph_control": graph_control,
    "stabilize_budget": stabilize_budget,
    "cli_mix": cli_mix,
}
