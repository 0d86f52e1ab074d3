"""The cooperative deadline: hanging product walks are cut off in-thread.

The runtime's preemptive per-check guard is SIGALRM-based, and SIGALRM can
only be armed on a process's main thread.  Off the main thread — the
embedded service runner, a sharded sweep's shard-local session, the
resilient pool's serial fallback running under a thread — the guard used to
be a silent no-op: a pathological product walk would hang the thread with
no cutoff short of the process-level CI timeout.  These tests pin the
fallback (:mod:`repro.automata.guard`): the same ``_deadline`` context
manager, armed off the main thread, still interrupts the walk — at
step-boundary granularity instead of preemptively.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.automata import FSA, Alphabet
from repro.automata.fsa import EPSILON
from repro.automata.guard import active_deadline, arm_deadline, check_deadline, disarm_deadline
from repro.automata.lazy import LazyFST, is_equivalent, relation_image
from repro.errors import CheckTimeoutError
from repro.verifier.runtime import _deadline

ALPHA = Alphabet(["a", "b"])


def blowup(n: int) -> FSA:
    """The classic (a|b)*a(a|b)^n NFA: determinizing it needs 2^n subsets,
    so an equivalence walk over two of these explores far more product
    states than any test budget allows — a deterministic stand-in for a
    hanging check."""
    any_ab = FSA.any_symbol(ALPHA, ["a", "b"])
    fsa = any_ab.star().concat(FSA.symbol(ALPHA, "a"))
    for _ in range(n):
        fsa = fsa.concat(any_ab)
    return fsa


class SlowEpsilonChain(LazyFST):
    """A relation whose only arcs are ``ε:ε`` steps ``0 -> 1 -> ... -> length``.

    Every expansion sleeps ``delay`` seconds.  Its image has a single result
    state, so the whole walk is epsilon-closure expansion: a stand-in for a
    hanging image that never creates a new result state to poll at.
    """

    __slots__ = ("length", "delay")

    def __init__(self, alphabet: Alphabet, length: int, delay: float) -> None:
        super().__init__(alphabet)
        self.length = length
        self.delay = delay

    def is_accepting(self, state: int) -> bool:
        return state == self.length

    def _expand_eps(self, state: int):
        time.sleep(self.delay)
        return [(EPSILON, state + 1)] if state < self.length else ()

    def _expand_step(self, state: int, symbol: int):
        return ()


def run_in_thread_under_deadline(walk, budget: float) -> dict[str, object]:
    """Run ``walk()`` under ``_deadline(budget)`` on a worker thread, where
    SIGALRM cannot fire; report its result or error and elapsed time."""
    outcome: dict[str, object] = {}

    def body() -> None:
        assert threading.current_thread() is not threading.main_thread()
        started = time.perf_counter()
        try:
            with _deadline(budget):
                outcome["result"] = walk()
        except CheckTimeoutError as exc:
            outcome["error"] = exc
        outcome["elapsed"] = time.perf_counter() - started

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "the walk was never interrupted"
    return outcome


def test_cooperative_deadline_cuts_off_a_hanging_walk_in_thread():
    """A check body that would run for hours is interrupted near its 0.2s
    budget when executed on a worker thread, where SIGALRM cannot fire."""
    left, right = blowup(26), blowup(27)
    outcome = run_in_thread_under_deadline(lambda: is_equivalent(left, right), 0.2)
    assert "result" not in outcome, "the blowup walk should not have finished"
    assert isinstance(outcome["error"], CheckTimeoutError)
    # Step-boundary polling is coarse, not unbounded: the cutoff lands near
    # the budget, nowhere near the walk's natural runtime.
    assert outcome["elapsed"] < 5.0


def test_epsilon_chain_images_to_one_state():
    image = relation_image(SlowEpsilonChain(ALPHA, 5, 0.0), FSA.epsilon_language(ALPHA))
    assert image.num_states == 1
    assert image.accepts([])


def test_cooperative_deadline_cuts_off_a_hanging_closure_expansion():
    """An image whose time goes into epsilon-closure expansion (about 100s
    of it here) is cut off near its budget, although it never creates a
    second result state: closure steps count toward the deadline poll."""
    relation = SlowEpsilonChain(ALPHA, 100_000, 0.001)
    acceptor = FSA.epsilon_language(ALPHA)
    outcome = run_in_thread_under_deadline(lambda: relation_image(relation, acceptor), 0.2)
    assert "result" not in outcome, "the closure walk should not have finished"
    assert isinstance(outcome["error"], CheckTimeoutError)
    assert outcome["elapsed"] < 5.0


def test_deadline_is_disarmed_after_the_context_exits():
    def body() -> None:
        with _deadline(30.0):
            assert active_deadline() is not None
        assert active_deadline() is None

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_guard_primitives():
    deadline = arm_deadline(60.0)
    try:
        assert active_deadline() == deadline
        check_deadline(deadline)  # not expired: no raise
    finally:
        disarm_deadline()
    assert active_deadline() is None
    with pytest.raises(CheckTimeoutError):
        check_deadline(time.monotonic() - 1.0)
