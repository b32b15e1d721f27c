"""The graph walks and the controllability search at benchmark scale,
against the benchmark's oracle.

The property suites draw plants of a few crisp states; these are the 30
draws of random_automaton(Random(315), 10, 5), whose accessible parts have
up to 809 vertices.  The smallest attractor, the attractor conditions of
seeded state sets, the scaling floors of the family and those of a
seeded sample of vertices taken one at a time are each compared with
bench/oracle.py, which reads the plant's document and computes them from
the definitions over its own exploration.  The oracle also checks the
subgraph check_controllable chooses on each accessible part, decided in a
child process under a deadline.  The oracle is loaded from its file and
only read, as bench/ imports tests/generators.
"""

import importlib.util
import json
import pathlib
import random

from fuzzydes import accessible_part, check_attractor, infimal_attractor, reach_family
from conftest import child_stdout
from generators import random_automaton
from reference import scaling_floor, serialize_automaton

ORACLE = pathlib.Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
O = importlib.util.module_from_spec(spec)
spec.loader.exec_module(O)

# Vertices per draw whose single scaling floor is checked; each costs a
# backward closure, so a sample keeps the test near two seconds.
SAMPLED_FLOORS = 10


def test_walks_agree_with_the_oracle_at_d1_scale():
    draws = random.Random(315)
    verdicts, sizes = set(), []
    for index in range(30):
        aut = random_automaton(draws, 10, 5)
        plant = O.plant_from_doc(json.loads(serialize_automaton(aut)))
        vertices, edges = O.closed_loop(plant)
        graph = accessible_part(aut)
        sizes.append(len(graph.vertices))
        ints = [tuple(map(O.from_exact, q)) for q in graph.vertices]
        assert ints == vertices, f"draw {index}: accessible part"
        as_int = dict(zip(graph.vertices, ints))

        infimal = infimal_attractor(graph)
        expected = O.infimal_attractor(vertices, edges)
        assert {as_int[q] for q in infimal} == expected, f"draw {index}: smallest attractor"

        rng = random.Random(index)
        for share, base in ((0.5, set()), (0.2, infimal)):
            N = base | {q for q in graph.vertices if rng.random() < share}
            report = check_attractor(graph, N)
            found = (report.closed, report.connected, report.acyclic_outside)
            assert found == O.attractor_conditions(vertices, edges, {as_int[q] for q in N}), (
                f"draw {index}: attractor conditions"
            )
            verdicts.add(found)

        floors = O.floors(plant, vertices, edges)
        family = reach_family(aut)
        assert [O.from_exact(floor) for _, floor in family.entries] == [floors[q] for q in vertices], (
            f"draw {index}: scaling floors"
        )
        uc = aut.uc_map()
        for q in rng.sample(graph.vertices, min(SAMPLED_FLOORS, len(graph.vertices))):
            assert O.from_exact(scaling_floor(graph, uc, q)) == floors[as_int[q]], (
                f"draw {index}: scaling floor of one vertex"
            )
    assert max(sizes) == 809
    # Each condition fails on some set, and some set is an attractor.
    assert (True, True, True) in verdicts
    assert all(any(not v[k] for v in verdicts) for k in range(3))


# Draws on which the search still gives no verdict in seconds (ROADMAP K1).
UNDECIDED_DRAWS = {1, 22}


def test_controllable_accessible_parts_satisfy_the_oracle_at_d1_scale():
    # The 28 decisions run in a child process killed at 60 s, so a search
    # that stops pruning fails the test instead of hanging the suite.  The
    # child prints each choice by vertex position; the oracle checks it here.
    script = (
        "import json, random\n"
        "from fuzzydes import accessible_part, check_controllable\n"
        "from generators import random_automaton\n"
        "draws = random.Random(315)\n"
        "for index in range(30):\n"
        "    aut = random_automaton(draws, 10, 5)\n"
        f"    if index in {sorted(UNDECIDED_DRAWS)}:\n"
        "        continue\n"
        "    P = accessible_part(aut).vertices\n"
        "    verdict = check_controllable(aut, P)\n"
        "    if not verdict.controllable:\n"
        "        print(json.dumps(verdict.obstruction.describe()))\n"
        "        continue\n"
        "    ids = {q: v for v, q in enumerate(P)}\n"
        "    print(json.dumps([(ids[q], name, ids[t]) for q, name, t in verdict.subgraph.edges()]))\n"
    )
    choices = [json.loads(line) for line in child_stdout(script, 60).splitlines()]
    draws = random.Random(315)
    plants = [(index, aut) for index, aut in enumerate(random_automaton(draws, 10, 5) for _ in range(30))
              if index not in UNDECIDED_DRAWS]
    assert len(choices) == len(plants)
    sizes = []
    for (index, aut), choice in zip(plants, choices):
        assert isinstance(choice, list), f"draw {index}: {choice}"
        plant = O.plant_from_doc(json.loads(serialize_automaton(aut)))
        ints = [tuple(map(O.from_exact, q)) for q in accessible_part(aut).vertices]
        edges = [(ints[v], name, ints[t]) for v, name, t in choice]
        assert O.check_subgraph(plant, ints, edges) is None, f"draw {index}"
        sizes.append(len(ints))
    assert (len(sizes), max(sizes)) == (28, 809)
