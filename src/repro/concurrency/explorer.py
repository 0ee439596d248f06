"""Interleaving exploration strategies (section 6).

Two families, matching the paper's tool split:

* :class:`DfsExplorer` -- sound, exhaustive enumeration of all schedules
  (the Loom analogue).  Replay-based: executions are deterministic given
  the decision sequence, so depth-first search over decision prefixes
  visits every interleaving.  Only viable for small harnesses.
* :class:`RandomExplorer` / :class:`PctExplorer` -- randomized exploration
  (the Shuttle analogue).  PCT (probabilistic concurrency testing,
  Burckhardt et al.) assigns random task priorities with ``depth`` random
  priority-change points, giving probabilistic bug-finding guarantees for
  bugs of small depth; it scales to executions with millions of steps at
  the cost of soundness -- exactly the trade-off the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Union

from .scheduler import DeadlockError, FixedSchedule, ModelScheduler, Strategy, TaskFailed


@dataclass
class ExplorationResult:
    """Outcome of exploring one test body."""

    executions: int = 0
    total_steps: int = 0
    failure: Optional[Union[TaskFailed, DeadlockError]] = None
    failing_schedule: Optional[List[int]] = None
    exhausted: bool = False  # DFS only: the whole space was enumerated

    @property
    def passed(self) -> bool:
        return self.failure is None


class _RandomStrategy(Strategy):
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def choose(self, runnable: List[int], step: int) -> int:
        return self.rng.choice(runnable)


class _PctStrategy(Strategy):
    """Priority-based scheduling with d random priority-change points."""

    def __init__(self, rng: random.Random, depth: int, max_steps: int) -> None:
        self.rng = rng
        self._priorities: dict = {}
        self._change_points = set(
            rng.randrange(max_steps) for _ in range(max(0, depth - 1))
        )
        self._demoted_floor = 0.0

    def _priority(self, task_id: int) -> float:
        if task_id not in self._priorities:
            self._priorities[task_id] = 1.0 + self.rng.random()
        return self._priorities[task_id]

    def choose(self, runnable: List[int], step: int) -> int:
        best = max(runnable, key=self._priority)
        if step in self._change_points:
            # Demote the task that would have run below everyone else.
            self._demoted_floor -= 1.0
            self._priorities[best] = self._demoted_floor
            best = max(runnable, key=self._priority)
        return best


class _DfsStrategy(Strategy):
    """Follows a decision prefix, then picks the first option, recording
    the branching factor at every step for backtracking."""

    def __init__(self, prefix: List[int]) -> None:
        self.prefix = prefix
        self.options_seen: List[int] = []

    def choose(self, runnable: List[int], step: int) -> int:
        self.options_seen.append(len(runnable))
        if step < len(self.prefix):
            index = self.prefix[step]
        else:
            index = 0
        if index >= len(runnable):
            index = 0
        return runnable[index]


class Explorer:
    """Base driver: run a body once per strategy until one fails.

    Subclasses say only which strategies to run, in :meth:`strategies`;
    the run, the catch and the tally are this loop's.
    """

    def strategies(self, result: ExplorationResult) -> Iterator[Strategy]:
        """One fresh strategy per execution.  The generator resumes after
        each execution that passed, so it can read what that run saw."""
        raise NotImplementedError

    def explore(
        self, body_factory: Callable[[], Callable[[], None]]
    ) -> ExplorationResult:
        result = ExplorationResult()
        for strategy in self.strategies(result):
            scheduler = ModelScheduler(strategy)
            result.executions += 1
            try:
                scheduler.run(body_factory())
            except (TaskFailed, DeadlockError) as exc:
                result.failure = exc
                result.failing_schedule = scheduler.schedule_trace
            result.total_steps += len(scheduler.schedule_trace)
            if result.failure is not None:
                break
        return result


class RandomExplorer(Explorer):
    """Uniform random walk over schedules."""

    def __init__(self, iterations: int = 100, seed: int = 0) -> None:
        self.iterations = iterations
        self.seed = seed

    def strategies(self, result: ExplorationResult) -> Iterator[Strategy]:
        for i in range(self.iterations):
            yield self._strategy(random.Random((self.seed << 20) + i))

    def _strategy(self, rng: random.Random) -> Strategy:
        return _RandomStrategy(rng)


class PctExplorer(RandomExplorer):
    """Probabilistic concurrency testing (Burckhardt et al. 2010): the
    random walk with priorities and ``depth - 1`` change points."""

    def __init__(
        self,
        iterations: int = 100,
        depth: int = 3,
        max_steps_hint: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(iterations, seed)
        self.depth = depth
        self.max_steps_hint = max_steps_hint

    def _strategy(self, rng: random.Random) -> Strategy:
        return _PctStrategy(rng, self.depth, self.max_steps_hint)


class DfsExplorer(Explorer):
    """Exhaustive depth-first enumeration of all schedules (Loom-style)."""

    def __init__(self, max_executions: int = 20_000) -> None:
        self.max_executions = max_executions

    def strategies(self, result: ExplorationResult) -> Iterator[Strategy]:
        # Each prefix entry is the option index chosen at that decision step.
        prefix: List[int] = []
        while result.executions < self.max_executions:
            strategy = _DfsStrategy(list(prefix))
            yield strategy
            # Extend the explicit choice list to the full execution length.
            branching = strategy.options_seen
            choices = prefix + [0] * (len(branching) - len(prefix))
            # Backtrack: find the deepest step with an unexplored sibling.
            depth = len(choices) - 1
            while depth >= 0 and choices[depth] + 1 >= branching[depth]:
                depth -= 1
            if depth < 0:
                result.exhausted = True
                return
            prefix = choices[: depth + 1]
            prefix[depth] += 1


def replay(
    body_factory: Callable[[], Callable[[], None]], schedule: List[int]
) -> None:
    """Re-run a failing schedule (for debugging); raises the same failure."""
    scheduler = ModelScheduler(FixedSchedule(schedule))
    scheduler.run(body_factory())
