"""Static verification walk-through: compile, corrupt, diagnose.

A compiled program is a claim — "this schedule respects its dependency
graph, every qubit lives on exactly one node, every EPR pair travels a
physical link".  :mod:`repro.verify` checks those claims without executing
anything.  This study compiles a QFT benchmark onto a line network, shows
the clean report, then deliberately plants three classes of bug a compiler
pass could realistically introduce and shows the diagnostic each one
triggers:

1. a schedule op whose end precedes its start (causality),
2. an EPR route that jumps a non-adjacent node pair (route validity),
3. a qubit mapped to a node that does not exist (mapping well-formedness).

Run with:  python examples/verification_study.py
"""

from repro.circuits import qft_circuit
from repro.core import compile_autocomm
from repro.hardware import apply_topology, uniform_network
from repro.hardware.routing import EPRRoute
from repro.verify import verify_program


def compile_study_program():
    circuit = qft_circuit(12)
    network = uniform_network(num_nodes=4, qubits_per_node=3)
    apply_topology(network, "line")
    return compile_autocomm(circuit, network)


def show(title: str, report) -> None:
    print(f"\n--- {title} " + "-" * max(0, 60 - len(title)))
    print(report.render())


def main() -> None:
    program = compile_study_program()
    print(f"compiled {program.name!r}: "
          f"{len(program.schedule.ops)} scheduled ops, "
          f"{program.metrics.num_blocks} comm blocks "
          "on a 4-node line network")

    # --- the honest artifact ----------------------------------------------
    report = verify_program(program)
    show("pristine program", report)
    assert report.clean, "a freshly compiled program must verify clean"

    # --- bug 1: time runs backwards ---------------------------------------
    broken = compile_study_program()
    victim = max(range(len(broken.schedule.ops)),
                 key=lambda i: broken.schedule.ops[i].end)
    op = broken.schedule.ops[victim]
    broken.schedule.ops[victim] = op._replace(end=op.start - 1.0)
    show("schedule op with end < start", verify_program(broken))

    # --- bug 2: an EPR route that teleports across the line ---------------
    broken = compile_study_program()
    routing = broken.network.routing
    for key, route in list(routing._routes.items()):
        if route.num_hops > 1:
            # Pretend distant nodes are directly linked: one "hop" that no
            # physical link backs.
            routing._routes[key] = EPRRoute(path=(key[0], key[1]))
    show("multi-hop routes collapsed to fake direct links",
         verify_program(broken))

    # --- bug 3: a qubit mapped onto a ghost node --------------------------
    broken = compile_study_program()
    broken.mapping._assignment[0] = 99
    show("qubit 0 mapped to nonexistent node 99", verify_program(broken))

    print("\nEvery corruption above is caught statically — no simulation "
          "was run.  The same checks gate CI over the full benchmark "
          "matrix (tools/verify_suite.py) and run after every compile in "
          "the test suite (tests/conftest.py autoverify fixture).")


if __name__ == "__main__":
    main()
