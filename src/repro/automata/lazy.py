"""On-the-fly (lazy) product constructions and delayed FST operations.

The module has two halves, both built on the same idea — explore product
state spaces along the reachable frontier instead of materializing them:

**Decision procedures** (`difference_dfa`, `is_subset`, `is_equivalent`,
`shortest_witness`).  The eager decision procedure in
:mod:`repro.automata.fsa` answers ``L(A) \\ L(B)`` questions with the
textbook pipeline: determinize ``B``, *complete* it over the full alphabet
(one sink transition per missing ``(state, symbol)`` pair), complement it,
and build the product with ``A``.  On verification alphabets with hundreds
of network locations the completion step alone materializes
``|Sigma| * |states|`` transitions, almost all of which a single flow
equivalence class never touches.  The lazy procedures explore the product of
``A`` with the *implicitly completed, implicitly complemented*
determinization of ``B`` on the fly:

* both sides are determinized by the subset construction, but only along the
  product frontier — subsets that no reachable product state needs are never
  created;
* a missing move of ``B`` is represented by the empty subset, which acts as
  the implicit non-accepting sink — ``complete()`` is never called and no
  ``Sigma``-indexed rows exist anywhere;
* only symbols on which ``A`` can actually move are expanded, so the work per
  product state is bounded by ``A``'s local out-degree, not ``|Sigma|``;
* the boolean procedures exit on the *first* accepting product state, and the
  shortest-witness procedure reads the witness straight off the product BFS
  tree.

**Delayed transducer operations** (:class:`LazyFST` and its node types
:class:`LazyIdentity`, :class:`LazyComplementZone`, :class:`LazyUnion`,
:class:`LazyCompose`).  Spec compilation builds deep
``identity(complement(zone)) ∘ (branch | ...)`` chains — one shadowing
prefix per ``else`` branch — and composing those transducers eagerly blows
up multiplicatively (an OpenFST-style delayed composition problem).  A
``LazyFST`` is a *recipe*: it exposes the same arc-iteration interface as a
concrete :class:`~repro.automata.fst.FST` (``initial`` / ``is_accepting`` /
``eps_arcs`` / ``step``) but expands states on demand and memoizes the
expansions, so an image query only ever touches the part of the product
that the acceptor's actual paths reach.  Concrete ``FST``\\ s implement the
same protocol, so delayed nodes freely mix eager leaves (small atomic
relations) with lazy combinators.  :func:`relation_image` is the decision
boundary where a delayed relation is forced into a concrete path-set FSA.

The eager path (:meth:`FSA.difference`, :meth:`FSA.complement`,
:meth:`FSA.is_subset_of`, :meth:`FSA.equivalent`, :meth:`FST.compose`,
:meth:`FST.union`) is kept unchanged as the reference oracle; property tests
assert both halves agree with the oracle on randomized automata.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence

from repro.automata.alphabet import require_same_alphabet
from repro.automata.fsa import EPSILON, FSA, Word
from repro.automata.fst import FST, Label
from repro.automata.guard import POLL_MASK, active_deadline, check_deadline

__all__ = [
    "difference_dfa",
    "is_subset",
    "is_equivalent",
    "shortest_witness",
    "LazyFST",
    "LazyIdentity",
    "LazyComplementZone",
    "LazyUnion",
    "LazyCompose",
    "relation_image",
]

_EMPTY: frozenset[int] = frozenset()


def _initial_pair(left: FSA, right: FSA) -> tuple[frozenset[int], frozenset[int]]:
    return (
        left.epsilon_closure([left.initial]),
        right.epsilon_closure([right.initial]),
    )


def _moves(fsa: FSA, subset: frozenset[int]) -> dict[int, set[int]]:
    """Symbol moves of a determinized subset (epsilon moves excluded)."""
    moves: dict[int, set[int]] = {}
    for state in subset:
        for symbol, dsts in fsa.transitions[state].items():
            if symbol is EPSILON:
                continue
            moves.setdefault(symbol, set()).update(dsts)
    return moves


def _right_target(right: FSA, subset: frozenset[int], symbol: int) -> frozenset[int]:
    """Follow ``symbol`` in the implicit completion of determinized ``right``.

    The empty subset is the implicit sink: it absorbs every symbol and is
    never accepting, which is exactly what ``complete()`` would have
    materialized eagerly.
    """
    dsts: set[int] = set()
    for state in subset:
        dsts.update(right.transitions[state].get(symbol, ()))
    return right.epsilon_closure(dsts) if dsts else _EMPTY


def _is_accepting(left: FSA, right: FSA, lsub: frozenset[int], rsub: frozenset[int]) -> bool:
    """Product acceptance for ``L(left) \\ L(right)``: left accepts, right doesn't."""
    return bool(lsub & left.accepting) and not (rsub & right.accepting)


def difference_dfa(left: FSA, right: FSA) -> FSA:
    """The reachable product DFA for ``L(left) \\ L(right)``.

    Equivalent in language to ``left.difference(right)`` but built lazily:
    only product states reachable from the initial pair exist, the sink is
    implicit, and no state ever carries a full-``Sigma`` transition row.  The
    result is a trim-free DFA suitable for :meth:`FSA.enumerate_words`.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    result = FSA(left.alphabet)
    start = _initial_pair(left, right)
    pair_ids: dict[tuple[frozenset[int], frozenset[int]], int] = {start: result.initial}
    if _is_accepting(left, right, *start):
        result.mark_accepting(result.initial)
    queue: deque[tuple[frozenset[int], frozenset[int]]] = deque([start])
    rows = result.transitions
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        pair = queue.popleft()
        lsub, rsub = pair
        src = pair_ids[pair]
        for symbol, ldsts in _moves(left, lsub).items():
            ltarget = left.epsilon_closure(ldsts)
            rtarget = _right_target(right, rsub, symbol)
            key = (ltarget, rtarget)
            dst = pair_ids.get(key)
            if dst is None:
                dst = result.add_state()
                pair_ids[key] = dst
                if _is_accepting(left, right, ltarget, rtarget):
                    result.mark_accepting(dst)
                queue.append(key)
            # The product is deterministic by construction, so each
            # (src, symbol) slot is written exactly once; skip the generic
            # validating add_transition.
            rows[src][symbol] = {dst}
    return result


def is_subset(left: FSA, right: FSA) -> bool:
    """Decide ``L(left) ⊆ L(right)`` lazily, exiting on the first violation.

    A violation is an accepting product state — a word accepted by ``left``
    while the (implicitly completed) determinization of ``right`` is in a
    non-accepting subset.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    start = _initial_pair(left, right)
    if _is_accepting(left, right, *start):
        return False
    seen = {start}
    queue: deque[tuple[frozenset[int], frozenset[int]]] = deque([start])
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        lsub, rsub = queue.popleft()
        for symbol, ldsts in _moves(left, lsub).items():
            ltarget = left.epsilon_closure(ldsts)
            rtarget = _right_target(right, rsub, symbol)
            key = (ltarget, rtarget)
            if key in seen:
                continue
            if _is_accepting(left, right, ltarget, rtarget):
                return False
            seen.add(key)
            queue.append(key)
    return True


def is_equivalent(left: FSA, right: FSA) -> bool:
    """Decide ``L(left) = L(right)`` with one joint product exploration.

    Both sides are determinized on the fly over the *same* product frontier;
    a reachable pair whose two subsets disagree on acceptance witnesses a
    word in the symmetric difference and exits immediately.  Expanding on the
    union of both sides' locally available symbols keeps the per-state work
    bounded by the automata's actual out-degrees — the "equal" verdict (the
    overwhelmingly common case in change validation) costs a single pass.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    start = _initial_pair(left, right)
    if bool(start[0] & left.accepting) != bool(start[1] & right.accepting):
        return False
    seen = {start}
    queue: deque[tuple[frozenset[int], frozenset[int]]] = deque([start])
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        lsub, rsub = queue.popleft()
        lmoves = _moves(left, lsub)
        rmoves = _moves(right, rsub)
        for symbol in lmoves.keys() | rmoves.keys():
            ldsts = lmoves.get(symbol)
            ltarget = left.epsilon_closure(ldsts) if ldsts else _EMPTY
            rdsts = rmoves.get(symbol)
            rtarget = right.epsilon_closure(rdsts) if rdsts else _EMPTY
            key = (ltarget, rtarget)
            if key in seen:
                continue
            if bool(ltarget & left.accepting) != bool(rtarget & right.accepting):
                return False
            seen.add(key)
            queue.append(key)
    return True


def shortest_witness(left: FSA, right: FSA) -> Word | None:
    """A shortest word in ``L(left) \\ L(right)``, or ``None`` if none exists.

    The witness is read directly off the product BFS tree, so the common
    "inclusion holds" case costs one frontier exploration and the failing
    case stops at the first accepting product state.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    start = _initial_pair(left, right)
    if _is_accepting(left, right, *start):
        return ()
    seen = {start}
    queue: deque[tuple[frozenset[int], frozenset[int], tuple[int, ...]]] = deque(
        [(start[0], start[1], ())]
    )
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        lsub, rsub, word = queue.popleft()
        for symbol, ldsts in sorted(_moves(left, lsub).items()):
            ltarget = left.epsilon_closure(ldsts)
            rtarget = _right_target(right, rsub, symbol)
            key = (ltarget, rtarget)
            if key in seen:
                continue
            seen.add(key)
            extended = word + (symbol,)
            if _is_accepting(left, right, ltarget, rtarget):
                return left.alphabet.ids_to_word(extended)
            queue.append((ltarget, rtarget, extended))
    return None


# ======================================================================
# Delayed (OpenFST-style) transducer operations
# ======================================================================
#
# A delayed transducer implements the arc-iteration protocol shared with
# concrete FSTs:
#
#   initial                      -- integer identifier of the start state
#   is_accepting(state)          -- acceptance test
#   eps_arcs(state)              -- arcs whose *input* label is epsilon, as
#                                   (output_label, dst) pairs
#   step(state, symbol)          -- arcs consuming ``symbol`` on the input
#                                   tape, as (output_label, dst) pairs
#
# States are interned to dense integers per node, so a composition of
# compositions hashes shallow (int, int) pairs instead of nested tuples.
# Expansions are memoized: across the many flow equivalence classes of one
# verification run, each reachable spec-relation state is expanded once.

ArcList = Sequence[tuple[Label, int]]


class LazyFST:
    """Base class of delayed transducer nodes.

    Subclasses implement :meth:`_expand_eps` and :meth:`_expand_step` (and
    :meth:`is_accepting`); the base class memoizes the expansions so repeated
    image queries against the same relation share work.
    """

    __slots__ = ("alphabet", "initial", "_eps_cache", "_step_cache")

    def __init__(self, alphabet) -> None:
        self.alphabet = alphabet
        self.initial: int = 0
        self._eps_cache: dict[int, ArcList] = {}
        self._step_cache: dict[tuple[int, int], ArcList] = {}

    # -- protocol --------------------------------------------------------
    def is_accepting(self, state: int) -> bool:
        raise NotImplementedError

    def eps_arcs(self, state: int) -> ArcList:
        """Arcs with an epsilon input label, expanded on demand."""
        arcs = self._eps_cache.get(state)
        if arcs is None:
            arcs = self._eps_cache[state] = self._expand_eps(state)
        return arcs

    def step(self, state: int, symbol: int) -> ArcList:
        """Arcs consuming ``symbol`` on the input tape, expanded on demand."""
        key = (state, symbol)
        arcs = self._step_cache.get(key)
        if arcs is None:
            arcs = self._step_cache[key] = self._expand_step(state, symbol)
        return arcs

    # -- expansion hooks -------------------------------------------------
    def _expand_eps(self, state: int) -> ArcList:
        raise NotImplementedError

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        raise NotImplementedError

    # -- forcing ---------------------------------------------------------
    def image(self, fsa: FSA) -> FSA:
        """``P ▷ R`` over the delayed graph (the decision boundary)."""
        return relation_image(self, fsa)

    def _all_arcs(self, state: int) -> Iterator[tuple[Label, Label, int]]:
        for out_label, dst in self.eps_arcs(state):
            yield (EPSILON, out_label, dst)
        for symbol in self.alphabet.ids():
            for out_label, dst in self.step(state, symbol):
                yield (symbol, out_label, dst)

    def to_fst(self) -> FST:
        """Force the delayed graph into a concrete FST.

        This enumerates every symbol of the alphabet at every reachable
        state, which is exactly the ``|Sigma| * |states|`` materialization
        the delayed representation avoids — it exists for tests, debugging
        and pair enumeration, not for the verification path.
        """
        fst = FST(self.alphabet)
        ids = {self.initial: fst.initial}
        queue: deque[int] = deque([self.initial])
        while queue:
            state = queue.popleft()
            src = ids[state]
            if self.is_accepting(state):
                fst.mark_accepting(src)
            for in_label, out_label, dst in self._all_arcs(state):
                target = ids.get(dst)
                if target is None:
                    target = ids[dst] = fst.add_state()
                    queue.append(dst)
                fst.add_arc(src, in_label, out_label, target)
        return fst

    def relation(
        self, *, max_count: int = 10_000, max_length: int = 32
    ) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
        """The relation as a bounded set of word pairs (via :meth:`to_fst`)."""
        return self.to_fst().relation(max_count=max_count, max_length=max_length)


class LazyIdentity(LazyFST):
    """``I(P)`` without materializing the identity transducer.

    States are the language automaton's own states; every symbol move
    becomes an on-demand ``symbol:symbol`` arc.
    """

    __slots__ = ("language",)

    def __init__(self, language: FSA) -> None:
        super().__init__(language.alphabet)
        self.language = language
        self.initial = language.initial

    def is_accepting(self, state: int) -> bool:
        return state in self.language.accepting

    def _expand_eps(self, state: int) -> ArcList:
        dsts = self.language.transitions[state].get(EPSILON)
        return [(EPSILON, dst) for dst in dsts] if dsts else ()

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        dsts = self.language.transitions[state].get(symbol)
        return [(symbol, dst) for dst in dsts] if dsts else ()


class LazyComplementZone(LazyFST):
    """``I(¬L(zone))`` — the branch-shadowing prefix — fully delayed.

    The zone automaton is determinized by the subset construction along the
    queried frontier only; the empty subset is the implicit sink (which is
    *accepting* here, because the sink lies outside the zone).  Neither the
    completed DFA nor the complement is ever materialized, so the per-query
    cost is bounded by the symbols an acceptor actually presents, not by
    ``|Sigma|``.
    """

    __slots__ = ("zone", "_ids", "_subsets", "_closures")

    def __init__(self, zone: FSA) -> None:
        super().__init__(zone.alphabet)
        self.zone = zone
        self._ids: dict[frozenset[int], int] = {}
        self._subsets: list[frozenset[int]] = []
        #: Per-state epsilon closures, computed on first use.  Zone regexes
        #: compile to Thompson NFAs whose closures would otherwise be
        #: recomputed inside every subset step of every image walk.
        self._closures: dict[int, frozenset[int]] = {}
        self.initial = self._intern(zone.epsilon_closure([zone.initial]))

    def _intern(self, subset: frozenset[int]) -> int:
        state = self._ids.get(subset)
        if state is None:
            state = self._ids[subset] = len(self._subsets)
            self._subsets.append(subset)
        return state

    def _closure(self, state: int) -> frozenset[int]:
        closure = self._closures.get(state)
        if closure is None:
            closure = self._closures[state] = self.zone.epsilon_closure((state,))
        return closure

    def is_accepting(self, state: int) -> bool:
        return not (self._subsets[state] & self.zone.accepting)

    def _expand_eps(self, state: int) -> ArcList:
        return ()

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        target: set[int] = set()
        closure = self._closure
        for member in self._subsets[state]:
            for dst in self.zone.transitions[member].get(symbol, ()):
                target |= closure(dst)
        return [(symbol, self._intern(frozenset(target) if target else _EMPTY))]


class LazyUnion(LazyFST):
    """Delayed relation union, n-ary.

    A fresh initial state (0) carries epsilon arcs into every operand;
    operand states are interned as ``(operand_index, state)`` pairs.  Nested
    ``LazyUnion`` operands are flattened on construction, so a prioritized
    union of 30+ spec branches dispatches through *one* level of delegation
    instead of a chain — the delegation depth of a product walk stays
    constant in the branch count.
    """

    __slots__ = ("operands", "_ids", "_members")

    def __init__(self, *operands: FST | LazyFST) -> None:
        if not operands:
            raise ValueError("LazyUnion needs at least one operand")
        flattened: list[FST | LazyFST] = []
        for operand in operands:
            if isinstance(operand, LazyUnion):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        require_same_alphabet(*[operand.alphabet for operand in flattened])
        super().__init__(flattened[0].alphabet)
        self.operands: tuple[FST | LazyFST, ...] = tuple(flattened)
        self._ids: dict[tuple[int, int], int] = {}
        # State 0 is the fresh initial; _members[0] is a placeholder.
        self._members: list[tuple[int, int]] = [(-1, -1)]

    def _intern(self, operand_index: int, state: int) -> int:
        key = (operand_index, state)
        interned = self._ids.get(key)
        if interned is None:
            interned = self._ids[key] = len(self._members)
            self._members.append(key)
        return interned

    def is_accepting(self, state: int) -> bool:
        if state == 0:
            return False
        index, inner = self._members[state]
        return self.operands[index].is_accepting(inner)

    def _expand_eps(self, state: int) -> ArcList:
        if state == 0:
            return [
                (EPSILON, self._intern(index, operand.initial))
                for index, operand in enumerate(self.operands)
            ]
        index, inner = self._members[state]
        return [
            (out, self._intern(index, dst))
            for out, dst in self.operands[index].eps_arcs(inner)
        ]

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        if state == 0:
            return ()
        index, inner = self._members[state]
        return [
            (out, self._intern(index, dst))
            for out, dst in self.operands[index].step(inner, symbol)
        ]


class LazyCompose(LazyFST):
    """Delayed relation composition ``left ∘ right``.

    Mirrors :meth:`FST.compose` (free epsilon moves on either side), but the
    pair space is explored on demand: composing a 30-branch shadowing chain
    never builds the product — an image query walks only the pairs the
    acceptor's paths reach, and interning keeps composite states as dense
    integers so nested compositions stay cheap to hash.
    """

    __slots__ = ("left", "right", "_ids", "_pairs")

    def __init__(self, left: FST | LazyFST, right: FST | LazyFST) -> None:
        require_same_alphabet(left.alphabet, right.alphabet)
        super().__init__(left.alphabet)
        self.left = left
        self.right = right
        self._ids: dict[tuple[int, int], int] = {}
        self._pairs: list[tuple[int, int]] = []
        self.initial = self._intern(left.initial, right.initial)

    def _intern(self, lstate: int, rstate: int) -> int:
        key = (lstate, rstate)
        state = self._ids.get(key)
        if state is None:
            state = self._ids[key] = len(self._pairs)
            self._pairs.append(key)
        return state

    def is_accepting(self, state: int) -> bool:
        lstate, rstate = self._pairs[state]
        return self.left.is_accepting(lstate) and self.right.is_accepting(rstate)

    def _expand_eps(self, state: int) -> ArcList:
        lstate, rstate = self._pairs[state]
        arcs: list[tuple[Label, int]] = []
        for mid, ldst in self.left.eps_arcs(lstate):
            if mid is EPSILON:
                # left advances alone, producing nothing for right to read.
                arcs.append((EPSILON, self._intern(ldst, rstate)))
            else:
                for out, rdst in self.right.step(rstate, mid):
                    arcs.append((out, self._intern(ldst, rdst)))
        for out, rdst in self.right.eps_arcs(rstate):
            # right advances alone, reading nothing from left.
            arcs.append((out, self._intern(lstate, rdst)))
        return arcs

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        lstate, rstate = self._pairs[state]
        arcs: list[tuple[Label, int]] = []
        for mid, ldst in self.left.step(lstate, symbol):
            if mid is EPSILON:
                arcs.append((EPSILON, self._intern(ldst, rstate)))
            else:
                for out, rdst in self.right.step(rstate, mid):
                    arcs.append((out, self._intern(ldst, rdst)))
        return arcs


def relation_image(relation: FST | LazyFST, fsa: FSA) -> FSA:
    """``P ▷ R`` for any relation implementing the arc-iteration protocol.

    A fused product walk over ``(acceptor state, relation state)`` pairs:
    the acceptor consumes the relation's input tape while the output tape
    becomes the result's transitions, driven through ``eps_arcs``/``step``
    so delayed relation graphs are expanded exactly as far as the acceptor
    reaches.  This is where a spec relation is forced into a concrete path
    set.

    The result is an epsilon-free NFA (generic epsilon removal, Mohri 2002,
    done inside the walk).  Only the start pair and the targets of arcs with
    a non-epsilon output become result states.  Expanding one follows its
    epsilon closure over pairs on the fly — relation ``ε:ε`` arcs (the
    ``LazyUnion`` fan-out, Thompson chains), acceptor epsilon moves and
    ``a:ε`` deletions — emits the non-epsilon-output arcs of every closure
    member and accepts if any member does.  The pairs reached only through
    epsilon outputs never become states, so the equivalence check that
    consumes the image has no epsilon closures left to undo.
    """
    require_same_alphabet(relation.alphabet, fsa.alphabet)
    result = FSA(fsa.alphabet)
    start = (fsa.initial, relation.initial)
    pair_ids: dict[tuple[int, int], int] = {start: result.initial}
    queue: deque[tuple[int, int]] = deque([start])
    rows = result.transitions
    acceptor_rows = fsa.transitions
    acceptor_accepting = fsa.accepting
    eps_arcs, step, is_accepting = relation.eps_arcs, relation.step, relation.is_accepting

    deadline = active_deadline()
    steps = 0
    while queue:
        pair = queue.popleft()
        src = pair_ids[pair]
        accepting = False
        # Walk the epsilon-output closure of ``pair``: epsilon-output arcs
        # push closure members, the others are collected as result arcs.
        closure: set[tuple[int, int]] = set()
        stack = [pair]
        emitted: list[tuple[int, tuple[int, int]]] = []
        while stack:
            member = stack.pop()
            if member in closure:
                continue
            closure.add(member)
            if deadline is not None:
                steps += 1
                if not steps & POLL_MASK:
                    check_deadline(deadline)
            p, t = member
            if not accepting and p in acceptor_accepting and is_accepting(t):
                accepting = True
            # The relation advances alone, emitting its output label.
            for out, dst_t in eps_arcs(t):
                if out is EPSILON:
                    stack.append((p, dst_t))
                else:
                    emitted.append((out, (p, dst_t)))
            # Synchronized moves, driven off the acceptor's (small) rows.
            for symbol, p_dsts in acceptor_rows[p].items():
                if symbol is EPSILON:
                    for dst_p in p_dsts:
                        stack.append((dst_p, t))
                    continue
                for out, dst_t in step(t, symbol):
                    for dst_p in p_dsts:
                        if out is EPSILON:
                            stack.append((dst_p, dst_t))
                        else:
                            emitted.append((out, (dst_p, dst_t)))
        row = rows[src]
        for out, key in emitted:
            dst = pair_ids.get(key)
            if dst is None:
                dst = pair_ids[key] = result.add_state()
                queue.append(key)
            bucket = row.get(out)
            if bucket is None:
                row[out] = {dst}
            else:
                bucket.add(dst)
        if accepting:
            result.mark_accepting(src)
    return result
