"""Automata substrate: regular languages and rational relations.

This package is the reproduction's stand-in for OpenFST/HFST (Section 7 of
the paper).  It provides finite state automata (:class:`~repro.automata.fsa.FSA`),
finite state transducers (:class:`~repro.automata.fst.FST`), a regular
expression AST and parser, and the comparison routines the Rela decision
procedure is built on.

Performance architecture
------------------------
The verification hot path (``_check_one_fec`` → ``FST.image`` →
``compare``) runs once per flow equivalence class, over alphabets with
hundreds of network locations, so it avoids every construction whose cost
scales with ``|Sigma|``:

* **Lazy product decision procedures** (:mod:`repro.automata.lazy`): subset,
  equality and difference questions are decided by exploring the product of
  one automaton with the implicitly-completed, implicitly-complemented
  subset construction of the other, on the fly.  Missing moves are an
  implicit sink (the empty subset), the boolean procedures exit on the first
  accepting product state, shortest witnesses come straight off the product
  BFS tree, and the "languages agree" verdict — the common case in change
  validation — costs a single joint pass.  Per-product-state work is bounded
  by the automata's local out-degree, never by ``|Sigma|``.
* **Fused image** (:func:`~repro.automata.lazy.relation_image`, behind both
  :meth:`~repro.automata.fst.FST.image` and ``LazyFST.image``): ``P ▷ R``
  walks ``(acceptor, transducer)`` state pairs directly, driven by the
  acceptor's (small) transition rows against the transducer's ``step``
  arcs, instead of materializing ``identity(P)``, a full composition, and a
  projection per class per spec branch.  Epsilon-output moves are closed
  over inside the walk, so the image is an epsilon-free NFA.
* **Delayed transducer operations** (the OpenFST-style layer in
  :mod:`repro.automata.lazy`): spec *compilation* is a DAG of delayed
  nodes instead of materialized transducers.  :class:`~repro.automata.lazy.LazyFST`
  defines the arc-iteration protocol shared with concrete FSTs — ``initial``,
  ``is_accepting(state)``, ``eps_arcs(state)`` (input-epsilon arcs as
  ``(out, dst)`` pairs) and ``step(state, symbol)`` — and the node types
  compose freely over it:

  - :class:`~repro.automata.lazy.LazyIdentity` — ``I(P)`` straight off the
    language automaton's transitions;
  - :class:`~repro.automata.lazy.LazyComplementZone` — the branch-shadowing
    prefix ``I(¬Z)``, determinized along the queried frontier with an
    implicit (accepting) sink; no completion, no complement, no
    ``|Sigma|``-indexed rows;
  - :class:`~repro.automata.lazy.LazyUnion` /
    :class:`~repro.automata.lazy.LazyCompose` — delayed ``R1 | R2`` and
    ``R1 ∘ R2`` whose pair spaces are interned and expanded on demand, so a
    30+-branch ``else`` chain never builds the multiplicative product.

  Expansions are memoized per node, and
  :func:`~repro.automata.lazy.relation_image` is the
  decision boundary that forces a delayed relation against a snapshot
  automaton; :meth:`LazyFST.to_fst` fully materializes a node for tests.
* **Eager oracle retained**: the textbook constructions
  (:meth:`FSA.complete`, :meth:`FSA.complement`, :meth:`FSA.difference`,
  :meth:`FSA.equivalent`, :meth:`FST.compose`, :meth:`FST.union`,
  :meth:`FST.image_via_compose`) are kept unchanged and serve as the
  reference oracle; the property tests in
  ``tests/automata/test_properties.py`` assert both the lazy decision
  procedures and the delayed-operation nodes agree with the oracle on
  randomized automata, including witness sets.
"""

from repro.automata.alphabet import DROP, HASH, Alphabet
from repro.automata.equivalence import (
    ComparisonResult,
    check_equal,
    check_subset,
    compare,
    symmetric_difference,
)
from repro.automata.fsa import EPSILON, FSA
from repro.automata.fst import FST
from repro.automata.lazy import (
    LazyComplementZone,
    LazyCompose,
    LazyFST,
    LazyIdentity,
    LazyUnion,
    difference_dfa,
    is_equivalent,
    is_subset,
    relation_image,
    shortest_witness,
)
from repro.automata.regex import (
    AnySym,
    Complement,
    Concat,
    Empty,
    Epsilon,
    Intersect,
    Regex,
    Star,
    Sym,
    SymSet,
    Union,
    concat_all,
    literal,
    parse_regex,
    union_all,
)

__all__ = [
    "Alphabet",
    "DROP",
    "HASH",
    "EPSILON",
    "FSA",
    "FST",
    "Regex",
    "Empty",
    "Epsilon",
    "Sym",
    "SymSet",
    "AnySym",
    "Union",
    "Concat",
    "Star",
    "Intersect",
    "Complement",
    "literal",
    "union_all",
    "concat_all",
    "parse_regex",
    "ComparisonResult",
    "compare",
    "check_equal",
    "check_subset",
    "symmetric_difference",
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
