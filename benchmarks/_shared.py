"""Shared, memoised experiment runs for benches that split one
experiment across several paper artifacts (Tables 3/4, Figures 12/13
all come from the same six §4.6 runs; Figures 9/10 from the same 54 K
run)."""

from functools import lru_cache


@lru_cache(maxsize=1)
def provisioning_outcomes():
    from repro.experiments import run_provisioning

    return run_provisioning()


@lru_cache(maxsize=2)
def fig9_result(executors: int):
    from repro.experiments import run_fig9

    return run_fig9(executors=executors)
