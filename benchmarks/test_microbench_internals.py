"""Library micro-benchmarks (not paper artifacts).

Performance floors for the hot internals that the full-scale
experiments depend on: the DES kernel's event loop, the store under
massive fan-in, and end-to-end simulated task cycles.  (The wire codec
is priced by the standing benchmark's ``net.wire.*`` rows.)  These are
the only benches that use pytest-benchmark's repeated-round timing; the
experiment benches run their workload once.
"""

from repro.sim import Environment, Store


def test_kernel_event_throughput(benchmark):
    """Raw timeout-event processing rate (events/second)."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 10_000.0


def test_store_fanin_with_many_parked_getters(benchmark):
    """Put/pair throughput with 10 000 parked getters (the 54 K-executor
    pattern); must stay O(1) per pairing."""

    def run():
        env = Environment()
        store = Store(env)
        served = []

        def consumer():
            item = yield store.get()
            served.append(item)

        for _ in range(10_000):
            env.process(consumer())
        env.run()  # park everyone

        def producer():
            for i in range(10_000):
                yield store.put(i)

        env.process(producer())
        env.run()
        return len(served)

    assert benchmark(run) == 10_000


def test_simulated_task_cycle_rate(benchmark):
    """Full simulated Falkon task cycles per wall-clock second."""
    from repro.config import FalkonConfig
    from repro.core.dispatcher import SimDispatcher
    from repro.core.executor import SimExecutor
    from repro.types import TaskSpec

    def run():
        env = Environment()
        dispatcher = SimDispatcher(env, FalkonConfig.paper_defaults())
        for i in range(16):
            SimExecutor(env, dispatcher, startup_delay=0.0, node=f"n{i // 2}")
        dispatcher.accept_tasks_now(
            [TaskSpec.sleep(0, task_id=f"mb{i}") for i in range(5_000)]
        )
        env.run(until=dispatcher.completion_milestone(5_000))
        return dispatcher.tasks_completed

    assert benchmark(run) == 5_000
