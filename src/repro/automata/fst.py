"""Finite state transducers (FSTs) encoding regular (rational) relations.

An FST is an automaton whose transitions carry a pair of labels: an input
symbol and an output symbol, either of which may be epsilon.  The language it
accepts is a set of *pairs* of words, i.e. a binary relation on paths.  The
paper compiles every Rela relation (identity, cross product, union,
concatenation, star, composition) to an FST and then applies it to the
``PreState`` / ``PostState`` path sets via the image operation ``P ▷ R``
(Section 6.1).

This module mirrors those constructions:

* :meth:`FST.identity` — ``I(P)``;
* :meth:`FST.cross` — ``P1 × P2`` (built exactly as in the paper: the first
  automaton reading on the input tape only, concatenated with the second
  automaton writing on the output tape only);
* :meth:`FST.union`, :meth:`FST.concat`, :meth:`FST.star` — the regular
  operations on relations;
* :meth:`FST.compose` — relation composition ``R1 ∘ R2``;
* :meth:`FST.image` — ``P ▷ R``, the language of ``project_out(I(P) ∘ R)``
  computed by one fused, epsilon-free product walk.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.automata.alphabet import Alphabet, require_same_alphabet
from repro.automata.fsa import EPSILON, FSA
from repro.errors import AutomatonError

Label = int | None
Arc = tuple[Label, Label, int]


class FST:
    """A finite state transducer over a shared :class:`Alphabet`."""

    __slots__ = ("alphabet", "arcs", "initial", "accepting", "_input_index")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        #: ``arcs[state]`` is a list of ``(input_label, output_label, dst)``.
        self.arcs: list[list[Arc]] = []
        #: Lazily built per-state index of arcs by input label (see
        #: :meth:`_arcs_by_input`); invalidated by :meth:`add_arc`.
        self._input_index: (
            list[tuple[list[tuple[Label, int]], dict[int, list[tuple[Label, int]]]]] | None
        ) = None
        self.initial: int = self.add_state()
        self.accepting: set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_state(self) -> int:
        """Add a fresh state and return its identifier."""
        self.arcs.append([])
        return len(self.arcs) - 1

    def add_arc(self, src: int, in_label: Label, out_label: Label, dst: int) -> None:
        """Add an arc ``src --in:out--> dst`` (labels may be :data:`EPSILON`)."""
        if not (0 <= src < len(self.arcs) and 0 <= dst < len(self.arcs)):
            raise AutomatonError(f"arc references unknown state: {src} -> {dst}")
        for label in (in_label, out_label):
            if label is not EPSILON and not (0 <= label < len(self.alphabet)):
                raise AutomatonError(f"arc uses unknown symbol id {label!r}")
        self.arcs[src].append((in_label, out_label, dst))
        self._input_index = None

    def _arcs_by_input(
        self,
    ) -> list[tuple[list[tuple[Label, int]], dict[int, list[tuple[Label, int]]]]]:
        """Per-state arcs grouped by input label: ``(eps_arcs, by_symbol)``.

        Built once and cached, so a spec transducer compiled at the start of
        a verification run amortizes the grouping over every flow
        equivalence class it is applied to.  This is what keeps
        :meth:`image` proportional to the acceptor's local out-degree rather
        than the transducer's arc count (which is ``O(|Sigma|)`` per state
        for spec relations like ``preserve``).
        """
        index = self._input_index
        if index is None:
            index = []
            for row in self.arcs:
                eps_arcs: list[tuple[Label, int]] = []
                by_symbol: dict[int, list[tuple[Label, int]]] = {}
                for in_label, out_label, dst in row:
                    if in_label is EPSILON:
                        eps_arcs.append((out_label, dst))
                    else:
                        by_symbol.setdefault(in_label, []).append((out_label, dst))
                index.append((eps_arcs, by_symbol))
            self._input_index = index
        return index

    # ------------------------------------------------------------------
    # Arc-iteration protocol (shared with repro.automata.lazy.LazyFST)
    # ------------------------------------------------------------------
    # Concrete transducers and delayed-operation nodes expose the same
    # ``initial`` / ``is_accepting`` / ``eps_arcs`` / ``step`` interface, so
    # lazy combinators (LazyCompose, LazyUnion, ...) can take eager FSTs as
    # operands and the fused image walk can drive either uniformly.
    def is_accepting(self, state: int) -> bool:
        """Whether ``state`` is accepting (protocol form of ``accepting``)."""
        return state in self.accepting

    def eps_arcs(self, state: int) -> list[tuple[Label, int]]:
        """Arcs of ``state`` whose input label is epsilon: (out, dst) pairs."""
        return self._arcs_by_input()[state][0]

    def step(self, state: int, symbol: int) -> list[tuple[Label, int]]:
        """Arcs of ``state`` consuming ``symbol``: (out, dst) pairs."""
        return self._arcs_by_input()[state][1].get(symbol, [])

    def mark_accepting(self, state: int) -> None:
        """Mark ``state`` as accepting."""
        if not 0 <= state < len(self.arcs):
            raise AutomatonError(f"unknown state {state}")
        self.accepting.add(state)

    @property
    def num_states(self) -> int:
        """Number of states."""
        return len(self.arcs)

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        return sum(len(row) for row in self.arcs)

    def _embed(self, other: FST) -> int:
        offset = len(self.arcs)
        for row in other.arcs:
            self.arcs.append([(i, o, dst + offset) for (i, o, dst) in row])
        self._input_index = None
        return offset

    # ------------------------------------------------------------------
    # Primitive relations
    # ------------------------------------------------------------------
    @classmethod
    def empty_relation(cls, alphabet: Alphabet) -> FST:
        """The relation containing no pairs (the RIR relation ``0``)."""
        return cls(alphabet)

    @classmethod
    def epsilon_relation(cls, alphabet: Alphabet) -> FST:
        """The relation ``{(ε, ε)}`` (the RIR relation ``1``)."""
        fst = cls(alphabet)
        fst.mark_accepting(fst.initial)
        return fst

    @classmethod
    def identity(cls, fsa: FSA) -> FST:
        """``I(P)``: relate every path accepted by ``fsa`` to itself."""
        fst = cls(fsa.alphabet)
        while fst.num_states < fsa.num_states + 1:
            fst.add_state()
        # State i of the FSA becomes state i+1 of the FST; state 0 remains a
        # dedicated initial state so the FSA's own initial index is preserved.
        offset = 1
        fst.add_arc(fst.initial, EPSILON, EPSILON, fsa.initial + offset)
        for src in range(fsa.num_states):
            for symbol, dsts in fsa.transitions[src].items():
                for dst in dsts:
                    if symbol is EPSILON:
                        fst.add_arc(src + offset, EPSILON, EPSILON, dst + offset)
                    else:
                        fst.add_arc(src + offset, symbol, symbol, dst + offset)
        fst.accepting = {state + offset for state in fsa.accepting}
        return fst

    @classmethod
    def cross(cls, left: FSA, right: FSA) -> FST:
        """``P1 × P2``: relate every path of ``left`` to every path of ``right``.

        Built exactly as sketched in the paper: ``left`` is turned into a
        transducer that reads its language on the input tape while writing
        epsilon, ``right`` into one that writes its language on the output
        tape while reading epsilon, and the two are concatenated.
        """
        require_same_alphabet(left.alphabet, right.alphabet)
        reader = cls._one_tape(left, tape="input")
        writer = cls._one_tape(right, tape="output")
        return reader.concat(writer)

    @classmethod
    def _one_tape(cls, fsa: FSA, *, tape: str) -> FST:
        fst = cls(fsa.alphabet)
        while fst.num_states < fsa.num_states + 1:
            fst.add_state()
        offset = 1
        fst.add_arc(fst.initial, EPSILON, EPSILON, fsa.initial + offset)
        for src in range(fsa.num_states):
            for symbol, dsts in fsa.transitions[src].items():
                for dst in dsts:
                    if symbol is EPSILON:
                        fst.add_arc(src + offset, EPSILON, EPSILON, dst + offset)
                    elif tape == "input":
                        fst.add_arc(src + offset, symbol, EPSILON, dst + offset)
                    else:
                        fst.add_arc(src + offset, EPSILON, symbol, dst + offset)
        fst.accepting = {state + offset for state in fsa.accepting}
        return fst

    # ------------------------------------------------------------------
    # Regular operations on relations
    # ------------------------------------------------------------------
    def union(self, other: FST) -> FST:
        """Relation union."""
        require_same_alphabet(self.alphabet, other.alphabet)
        result = FST(self.alphabet)
        off_a = result._embed(self)
        off_b = result._embed(other)
        result.add_arc(result.initial, EPSILON, EPSILON, self.initial + off_a)
        result.add_arc(result.initial, EPSILON, EPSILON, other.initial + off_b)
        result.accepting = {s + off_a for s in self.accepting} | {
            s + off_b for s in other.accepting
        }
        return result

    def concat(self, other: FST) -> FST:
        """Relation concatenation (pairwise concatenation of path pairs)."""
        require_same_alphabet(self.alphabet, other.alphabet)
        result = FST(self.alphabet)
        off_a = result._embed(self)
        off_b = result._embed(other)
        result.add_arc(result.initial, EPSILON, EPSILON, self.initial + off_a)
        for state in self.accepting:
            result.add_arc(state + off_a, EPSILON, EPSILON, other.initial + off_b)
        result.accepting = {s + off_b for s in other.accepting}
        return result

    def star(self) -> FST:
        """Kleene star of the relation."""
        result = FST(self.alphabet)
        offset = result._embed(self)
        result.add_arc(result.initial, EPSILON, EPSILON, self.initial + offset)
        for state in self.accepting:
            result.add_arc(state + offset, EPSILON, EPSILON, self.initial + offset)
        result.accepting = {s + offset for s in self.accepting} | {result.initial}
        return result

    def inverse(self) -> FST:
        """Swap the input and output tapes (the converse relation)."""
        result = FST(self.alphabet)
        while result.num_states < self.num_states:
            result.add_state()
        result.initial = self.initial
        for src, row in enumerate(self.arcs):
            for in_label, out_label, dst in row:
                result.add_arc(src, out_label, in_label, dst)
        result.accepting = set(self.accepting)
        return result

    def trim(self) -> FST:
        """Drop states not on any initial→accepting path (same relation).

        Chained compositions multiply dead product states; trimming between
        stages keeps long ``RCompose`` chains (e.g. branch shadowing in
        multi-branch specs) from accumulating them multiplicatively.
        """
        reachable = {self.initial}
        stack = [self.initial]
        while stack:
            state = stack.pop()
            for _, _, dst in self.arcs[state]:
                if dst not in reachable:
                    reachable.add(dst)
                    stack.append(dst)
        predecessors: list[list[int]] = [[] for _ in range(self.num_states)]
        for src, row in enumerate(self.arcs):
            for _, _, dst in row:
                predecessors[dst].append(src)
        coreachable = set(self.accepting)
        stack = list(coreachable)
        while stack:
            state = stack.pop()
            for pred in predecessors[state]:
                if pred not in coreachable:
                    coreachable.add(pred)
                    stack.append(pred)
        useful = reachable & coreachable
        useful.add(self.initial)
        order = sorted(useful)
        remap = {old: new for new, old in enumerate(order)}
        result = FST(self.alphabet)
        while result.num_states < len(order):
            result.add_state()
        result.initial = remap[self.initial]
        for old in order:
            row = result.arcs[remap[old]]
            for in_label, out_label, dst in self.arcs[old]:
                if dst in remap:
                    row.append((in_label, out_label, remap[dst]))
        result.accepting = {remap[state] for state in self.accepting if state in remap}
        return result

    def compose(self, other: FST) -> FST:
        """Relation composition ``self ∘ other``.

        A pair ``(p, r)`` is in the result iff there exists ``q`` with
        ``(p, q) ∈ self`` and ``(q, r) ∈ other``.  The construction is the
        standard unweighted product with free epsilon moves on either side;
        because relations are unweighted sets, the duplicate-path ambiguity
        that weighted composition filters guard against is harmless here.
        """
        require_same_alphabet(self.alphabet, other.alphabet)
        result = FST(self.alphabet)
        pair_ids: dict[tuple[int, int], int] = {
            (self.initial, other.initial): result.initial
        }
        if self.initial in self.accepting and other.initial in other.accepting:
            result.mark_accepting(result.initial)
        queue: deque[tuple[int, int]] = deque([(self.initial, other.initial)])

        def state_for(a: int, b: int) -> int:
            key = (a, b)
            if key not in pair_ids:
                new_id = result.add_state()
                pair_ids[key] = new_id
                if a in self.accepting and b in other.accepting:
                    result.mark_accepting(new_id)
                queue.append(key)
            return pair_ids[key]

        index_b = other._arcs_by_input()
        rows = result.arcs
        while queue:
            a, b = queue.popleft()
            row = rows[pair_ids[(a, b)]]
            eps_b, by_in_b = index_b[b]
            for in_a, out_a, dst_a in self.arcs[a]:
                if out_a is EPSILON:
                    # self advances alone, producing nothing for other to read.
                    row.append((in_a, EPSILON, state_for(dst_a, b)))
                else:
                    # Match other's arcs by input label via the cached index
                    # instead of scanning its whole arc row.
                    for out_b, dst_b in by_in_b.get(out_a, ()):
                        row.append((in_a, out_b, state_for(dst_a, dst_b)))
            for out_b, dst_b in eps_b:
                # other advances alone, reading nothing from self.
                row.append((EPSILON, out_b, state_for(a, dst_b)))
        return result

    # ------------------------------------------------------------------
    # Projections and application
    # ------------------------------------------------------------------
    def project_input(self) -> FSA:
        """The domain of the relation, as an FSA."""
        return self._project(index=0)

    def project_output(self) -> FSA:
        """The range of the relation, as an FSA."""
        return self._project(index=1)

    def _project(self, *, index: int) -> FSA:
        fsa = FSA(self.alphabet)
        while fsa.num_states < self.num_states:
            fsa.add_state()
        fsa.initial = self.initial
        for src, row in enumerate(self.arcs):
            for arc in row:
                label = arc[index]
                dst = arc[2]
                fsa.add_transition(src, label if label is not EPSILON else EPSILON, dst)
        fsa.accepting = set(self.accepting)
        return fsa

    def image(self, fsa: FSA) -> FSA:
        """``P ▷ R``: the set of paths related to some path accepted by ``fsa``.

        Computed by :func:`~repro.automata.lazy.relation_image`, the fused
        product walk shared with delayed relations: the acceptor consumes the
        relation's input tape directly while the relation's output tape
        becomes the result's transitions, and the result is epsilon-free.
        This is language-equivalent to
        ``identity(fsa).compose(self).project_output()`` (kept as
        :meth:`image_via_compose`, the reference oracle) but never
        materializes the identity transducer or the intermediate composition.
        """
        from repro.automata.lazy import relation_image  # lazy imports this module

        return relation_image(self, fsa)

    def image_via_compose(self, fsa: FSA) -> FSA:
        """Eager reference implementation of :meth:`image` (the oracle)."""
        return FST.identity(fsa).compose(self).project_output()

    def preimage(self, fsa: FSA) -> FSA:
        """The set of paths that map (via this relation) into ``fsa``.

        The preimage under ``R`` is the image under the converse relation, so
        this reuses the fused product walk of :meth:`image`.
        """
        return self.inverse().image(fsa)

    # ------------------------------------------------------------------
    # Enumeration (used by tests and counterexample rendering)
    # ------------------------------------------------------------------
    def enumerate_pairs(
        self, *, max_count: int = 100, max_length: int = 32
    ) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        """Enumerate accepted (input, output) word pairs, shortest-first.

        ``max_length`` bounds the number of arcs traversed, not the word
        length; pairs are deduplicated before being yielded.
        """
        seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        queue: deque[tuple[int, tuple[int, ...], tuple[int, ...], int]] = deque(
            [(self.initial, (), (), 0)]
        )
        produced = 0
        while queue and produced < max_count:
            state, word_in, word_out, depth = queue.popleft()
            if state in self.accepting:
                key = (word_in, word_out)
                if key not in seen:
                    seen.add(key)
                    yield (
                        self.alphabet.ids_to_word(word_in),
                        self.alphabet.ids_to_word(word_out),
                    )
                    produced += 1
                    if produced >= max_count:
                        return
            if depth >= max_length:
                continue
            for in_label, out_label, dst in self.arcs[state]:
                next_in = word_in + (in_label,) if in_label is not EPSILON else word_in
                next_out = word_out + (out_label,) if out_label is not EPSILON else word_out
                queue.append((dst, next_in, next_out, depth + 1))
        return

    def relation(
        self, *, max_count: int = 10_000, max_length: int = 32
    ) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
        """The relation as a set of word pairs, subject to bounds."""
        return set(self.enumerate_pairs(max_count=max_count, max_length=max_length))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FST(states={self.num_states}, arcs={self.num_arcs}, "
            f"accepting={len(self.accepting)})"
        )
