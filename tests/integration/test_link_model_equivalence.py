"""Link-model equivalence and heterogeneous-replay guarantees.

Two acceptance-level invariants of the heterogeneous link model:

* **Uniform equivalence** — compiling and simulating on a network whose
  topology carries an explicit *uniform* :class:`~repro.hardware.links.LinkModel`
  is byte-identical to the pre-link-model behaviour (a plain
  ``apply_topology``), on every supported topology: same mapping, same
  schemes, same metrics, same schedule ops, same deterministic replay and
  same stochastic Monte-Carlo stream.
* **Heterogeneous replay** — with per-link latencies (one non-uniform link
  configuration per topology kind) the discrete-event replay at
  ``p_epr = 1.0`` still reproduces the analytical schedule latency
  *exactly*, op for op.
"""


import pytest

from repro.circuits import qft_circuit
from repro.core import compile_autocomm
from repro.hardware import (
    DEFAULT_LATENCY,
    LinkModel,
    LinkSpec,
    SUPPORTED_TOPOLOGIES,
    apply_topology,
    topology_graph,
    uniform_network,
)
from repro.sim import (SimulationConfig, run_monte_carlo, simulate_program,
                       validate_schedule)

NUM_NODES = 4
QUBITS_PER_NODE = 3


def _compiled(kind, link_model=None):
    network = uniform_network(NUM_NODES, QUBITS_PER_NODE)
    apply_topology(network, kind, link_model=link_model)
    return compile_autocomm(qft_circuit(NUM_NODES * QUBITS_PER_NODE), network)


def _hetero_model(kind):
    """One non-uniform link configuration per topology kind."""
    graph = topology_graph(kind, NUM_NODES)
    links = sorted(tuple(sorted(edge)) for edge in graph.edges)
    base = DEFAULT_LATENCY.t_epr
    # Alternate slow / fast links so every kind gets real heterogeneity.
    overrides = {}
    for index, link in enumerate(links):
        if index % 2 == 0:
            overrides[link] = LinkSpec(t_epr=base * 3.0)
        elif index % 3 == 0:
            overrides[link] = LinkSpec(t_epr=base * 0.5)
    model = LinkModel(LinkSpec(t_epr=base), overrides)
    assert not model.uniform_latency, kind
    return model


class TestUniformLinkModelEquivalence:
    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_compile_byte_identical(self, kind):
        plain = _compiled(kind)
        explicit = _compiled(kind,
                             LinkModel.uniform_model(DEFAULT_LATENCY.t_epr))
        assert explicit.mapping.as_dict() == plain.mapping.as_dict()
        assert ([b.scheme for b in explicit.blocks]
                == [b.scheme for b in plain.blocks])
        assert explicit.metrics.as_dict() == plain.metrics.as_dict()
        assert ([(op.kind, op.start, op.end) for op in explicit.schedule.ops]
                == [(op.kind, op.start, op.end) for op in plain.schedule.ops])

    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_deterministic_replay_byte_identical(self, kind):
        plain = simulate_program(_compiled(kind))
        explicit = simulate_program(
            _compiled(kind, LinkModel.uniform_model(DEFAULT_LATENCY.t_epr)))
        assert explicit.latency == plain.latency
        assert ([(op.kind, op.prep_start, op.start, op.end, op.epr_pairs)
                 for op in explicit.ops]
                == [(op.kind, op.prep_start, op.start, op.end, op.epr_pairs)
                    for op in plain.ops])

    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_stochastic_stream_byte_identical(self, kind):
        """Uniform models must keep pair-level sampling: same RNG stream."""
        config = SimulationConfig(p_epr=0.6, seed=123, trials=4,
                                  record_trace=False)
        plain = run_monte_carlo(_compiled(kind), config)
        explicit = run_monte_carlo(
            _compiled(kind, LinkModel.uniform_model(DEFAULT_LATENCY.t_epr)),
            config)
        assert explicit.latencies == plain.latencies
        assert explicit.epr_attempts == plain.epr_attempts


class TestHeterogeneousReplayExactness:
    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_deterministic_replay_matches_analytical(self, kind):
        program = _compiled(kind, _hetero_model(kind))
        assert program.network.heterogeneous_links
        report = validate_schedule(program)
        assert report.matches, report.describe()
        assert report.latency_delta == 0.0
        assert report.max_op_end_delta == 0.0

    def test_heterogeneous_line_exact(self):
        model = LinkModel(LinkSpec(12.0), {(1, 2): LinkSpec(36.0)})
        program = _compiled("line", model)
        result = simulate_program(program)
        assert result.latency == program.schedule.latency

    def test_heterogeneous_grid_exact(self):
        model = LinkModel(LinkSpec(12.0), {(0, 1): LinkSpec(30.0),
                                           (2, 3): LinkSpec(6.0)})
        program = _compiled("grid", model)
        result = simulate_program(program)
        assert result.latency == program.schedule.latency

    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_ideal_replay_unaffected_by_capacity_and_loss(self, kind):
        """Capacities and per-link p_epr must not leak into validation."""
        graph = topology_graph(kind, NUM_NODES)
        link = tuple(sorted(next(iter(graph.edges))))
        model = LinkModel(
            LinkSpec(12.0),
            {link: LinkSpec(36.0, capacity=1, p_epr=0.5)})
        program = _compiled(kind, model)
        report = validate_schedule(program)
        assert report.matches, report.describe()


class TestPerLinkStochastics:
    def test_per_link_attempts_scale_with_route_length(self):
        """Every physical link runs its own attempt process."""
        model = LinkModel(LinkSpec(12.0), {(1, 2): LinkSpec(24.0)})
        program = _compiled("line", model)
        deterministic = simulate_program(program)
        stochastic = simulate_program(
            program, SimulationConfig(p_epr=0.999999, seed=1))
        # With p ~ 1 almost every attempt succeeds: the attempt count then
        # equals the number of physical link generations, which exceeds the
        # end-to-end pair count whenever a route has more than one hop.
        assert stochastic.total_epr_attempts >= deterministic.total_epr_pairs

    def test_link_p_epr_slows_execution(self):
        base = LinkModel(LinkSpec(12.0), {(1, 2): LinkSpec(24.0)})
        lossy = LinkModel(LinkSpec(12.0),
                          {(1, 2): LinkSpec(24.0, p_epr=0.25)})
        clean_program = _compiled("line", base)
        lossy_program = _compiled("line", lossy)
        config = SimulationConfig(seed=11, trials=10, record_trace=False)
        clean = run_monte_carlo(clean_program, config)
        noisy = run_monte_carlo(lossy_program, config)
        assert (sum(noisy.latencies) / len(noisy.latencies)
                > sum(clean.latencies) / len(clean.latencies))
        assert sum(noisy.epr_attempts) > sum(clean.epr_attempts)

    def test_per_link_capacity_serialises_generations(self):
        """A capacity-1 link stretches ops that revisit it; unlimited
        links elsewhere stay untouched."""
        unlimited = LinkModel(LinkSpec(12.0), {(1, 2): LinkSpec(13.0)})
        capped = LinkModel(LinkSpec(12.0),
                           {(1, 2): LinkSpec(13.0, capacity=1)})
        free_run = simulate_program(_compiled("line", unlimited))
        capped_run = simulate_program(_compiled("line", capped))
        assert capped_run.latency >= free_run.latency
