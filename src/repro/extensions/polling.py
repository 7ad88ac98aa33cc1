"""Pure-pull (polling) executors — the §3.3 road not taken.

The paper justifies the hybrid push/pull protocol by measuring the
alternative: "In the case of non-blocking requests, Executors must
poll the Dispatcher periodically ... we find that when using Web
Services operations to communicate requests, a cluster with 500
Executors polling every second keeps Dispatcher CPU utilization at
100%.  Thus, the polling interval must be increased for larger
deployments, which reduces responsiveness accordingly."

§6 adds that the implemented firewall-bypass "polling mechanism ...
lose[s] performance and scalability due to polling overheads."

:class:`PollingExecutor` implements that design: every
``poll_interval`` it issues a non-blocking GET_WORK (one bare WS call
of dispatcher CPU, answered WORK or NO_WORK).  Ablation X7 reproduces
both quoted effects — the CPU burned by empty polls and the
responsiveness lost to the polling interval.
"""

from __future__ import annotations

from typing import Generator

from repro.core.executor import SimExecutor

__all__ = ["PollingExecutor"]


class PollingExecutor(SimExecutor):
    """An executor that polls instead of blocking on notifications."""

    def __init__(self, *args, poll_interval: float = 1.0, **kwargs) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        super().__init__(*args, **kwargs)
        self.poll_interval = poll_interval
        self.polls = 0
        self.empty_polls = 0

    def _wait_for_work(self) -> Generator:
        """Poll loop: one WS call per attempt, idle between attempts."""
        idle_limit = self.release_policy.executor_idle_timeout()
        idle_start = self.env.now
        while True:
            # The poll itself is a bare WS call on the dispatcher CPU,
            # whether or not work exists (the cost the paper measured).
            yield from self.dispatcher._charge_cpu(
                self.dispatcher.costs.base_call_cpu
                * self.dispatcher.costs.security_factor(self.dispatcher.config.security)
            )
            self.polls += 1
            found, record = self.dispatcher.queue.take_immediately()
            if found:
                self.dispatcher.queue_gauge.set(
                    self.env.now, len(self.dispatcher.queue.items)
                )
                return record
            self.empty_polls += 1
            if self.env.now - idle_start >= idle_limit:
                return None
            yield self.env.timeout(self.poll_interval)

    def _task_filter(self):  # pragma: no cover - polling never parks a get
        return None
