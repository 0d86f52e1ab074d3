"""Property-based tests for the automata substrate (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.automata import Alphabet, FSA, check_equal, check_subset, compare
from repro.automata.fsa import EPSILON
from repro.automata.fst import FST
from repro.automata.lazy import (
    LazyComplementZone,
    LazyCompose,
    LazyIdentity,
    LazyUnion,
    difference_dfa,
    shortest_witness,
)
from repro.automata.regex import (
    AnySym,
    Concat,
    Empty,
    Epsilon,
    Regex,
    Star,
    Sym,
    Union,
)

SYMBOLS = ["a", "b", "c"]


def regex_strategy(max_depth: int = 3) -> st.SearchStrategy[Regex]:
    leaves = st.one_of(
        st.sampled_from(SYMBOLS).map(Sym),
        st.just(Epsilon()),
        st.just(Empty()),
        st.just(AnySym()),
    )

    def extend(children: st.SearchStrategy[Regex]) -> st.SearchStrategy[Regex]:
        return st.one_of(
            st.tuples(children, children).map(lambda pair: Union(*pair)),
            st.tuples(children, children).map(lambda pair: Concat(*pair)),
            children.map(Star),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def words_strategy() -> st.SearchStrategy[list[str]]:
    return st.lists(st.sampled_from(SYMBOLS), max_size=4)


def fresh_alphabet() -> Alphabet:
    return Alphabet(SYMBOLS)


@settings(max_examples=40, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_union_with_self_is_idempotent(regex, word):
    ab = fresh_alphabet()
    single = regex.to_fsa(ab)
    doubled = Union(regex, regex).to_fsa(ab)
    assert single.accepts(word) == doubled.accepts(word)


@settings(max_examples=40, deadline=None)
@given(left=regex_strategy(), right=regex_strategy(), word=words_strategy())
def test_union_is_commutative(left, right, word):
    ab = fresh_alphabet()
    assert Union(left, right).to_fsa(ab).accepts(word) == Union(right, left).to_fsa(ab).accepts(word)


@settings(max_examples=40, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_concat_with_epsilon_is_identity(regex, word):
    ab = fresh_alphabet()
    assert Concat(regex, Epsilon()).to_fsa(ab).accepts(word) == regex.to_fsa(ab).accepts(word)
    assert Concat(Epsilon(), regex).to_fsa(ab).accepts(word) == regex.to_fsa(ab).accepts(word)


@settings(max_examples=40, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_concat_with_empty_is_empty(regex, word):
    ab = fresh_alphabet()
    assert not Concat(regex, Empty()).to_fsa(ab).accepts(word)


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_complement_flips_membership(regex, word):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    comp = fsa.complement()
    assert fsa.accepts(word) != comp.accepts(word)


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy())
def test_determinize_and_minimize_preserve_language(regex):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    assert fsa.determinize().equivalent(fsa)
    assert fsa.minimize().equivalent(fsa)


@settings(max_examples=30, deadline=None)
@given(left=regex_strategy(), right=regex_strategy(), word=words_strategy())
def test_de_morgan_for_languages(left, right, word):
    ab = fresh_alphabet()
    lhs = left.to_fsa(ab).union(right.to_fsa(ab)).complement()
    rhs = left.to_fsa(ab).complement().intersect(right.to_fsa(ab).complement())
    assert lhs.accepts(word) == rhs.accepts(word)


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy())
def test_difference_with_self_is_empty(regex):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    assert fsa.difference(fsa.copy()).is_empty()


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_enumerated_words_are_accepted(regex, word):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    for enumerated in fsa.enumerate_words(max_count=10, max_length=6):
        assert fsa.accepts(enumerated)


# ----------------------------------------------------------------------
# Lazy product engine vs. the eager reference oracle, on randomized NFAs
# ----------------------------------------------------------------------
# A randomized NFA description: state count, transition triples (src, symbol
# index or epsilon, dst) and accepting states.  Descriptions are alphabet-
# independent so each test can build them on a fresh Alphabet instance.
NfaDescription = tuple[int, list[tuple[int, int | None, int]], frozenset[int]]


@st.composite
def nfa_strategy(draw) -> NfaDescription:
    num_states = draw(st.integers(min_value=1, max_value=4))
    labels = st.one_of(st.none(), st.integers(min_value=0, max_value=len(SYMBOLS) - 1))
    states = st.integers(min_value=0, max_value=num_states - 1)
    transitions = draw(st.lists(st.tuples(states, labels, states), max_size=10))
    accepting = draw(st.frozensets(states, max_size=num_states))
    return num_states, transitions, accepting


def build_nfa(description: NfaDescription, alphabet: Alphabet) -> FSA:
    num_states, transitions, accepting = description
    fsa = FSA(alphabet)
    while fsa.num_states < num_states:
        fsa.add_state()
    for src, label, dst in transitions:
        symbol = EPSILON if label is None else alphabet.id_of(SYMBOLS[label])
        fsa.add_transition(src, symbol, dst)
    for state in accepting:
        fsa.mark_accepting(state)
    return fsa


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_lazy_subset_and_equality_match_eager_oracle(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    assert check_subset(left_fsa, right_fsa) == left_fsa.difference(right_fsa).is_empty()
    assert check_equal(left_fsa, right_fsa) == (
        left_fsa.difference(right_fsa).is_empty()
        and right_fsa.difference(left_fsa).is_empty()
    )


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_lazy_difference_matches_eager_language(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    lazy = difference_dfa(left_fsa, right_fsa)
    eager = left_fsa.difference(right_fsa)
    assert lazy.is_empty() == eager.is_empty()
    assert lazy.language(max_count=50, max_length=8) == eager.language(max_count=50, max_length=8)


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_lazy_witnesses_lie_in_the_symmetric_difference(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    result = compare(left_fsa, right_fsa)
    assert result.equal == left_fsa.equivalent(right_fsa)
    for word in result.missing:
        assert left_fsa.accepts(word) and not right_fsa.accepts(word)
    for word in result.unexpected:
        assert right_fsa.accepts(word) and not left_fsa.accepts(word)
    # Witness sets agree with the eager enumeration (same words, same order).
    assert result.missing == list(
        left_fsa.difference(right_fsa).enumerate_words(max_count=10, max_length=64)
    )
    assert result.unexpected == list(
        right_fsa.difference(left_fsa).enumerate_words(max_count=10, max_length=64)
    )


# A randomized FST description mirroring NfaDescription: state count, arc
# quadruples (src, input label index or epsilon, output label index or
# epsilon, dst) and accepting states.
FstDescription = tuple[int, list[tuple[int, int | None, int | None, int]], frozenset[int]]


@st.composite
def fst_strategy(draw) -> FstDescription:
    num_states = draw(st.integers(min_value=1, max_value=4))
    labels = st.one_of(st.none(), st.integers(min_value=0, max_value=len(SYMBOLS) - 1))
    states = st.integers(min_value=0, max_value=num_states - 1)
    arcs = draw(st.lists(st.tuples(states, labels, labels, states), max_size=10))
    accepting = draw(st.frozensets(states, max_size=num_states))
    return num_states, arcs, accepting


def build_fst(description: FstDescription, alphabet: Alphabet) -> FST:
    num_states, arcs, accepting = description
    fst = FST(alphabet)
    while fst.num_states < num_states:
        fst.add_state()
    for src, in_label, out_label, dst in arcs:
        fst.add_arc(
            src,
            EPSILON if in_label is None else alphabet.id_of(SYMBOLS[in_label]),
            EPSILON if out_label is None else alphabet.id_of(SYMBOLS[out_label]),
            dst,
        )
    for state in accepting:
        fst.mark_accepting(state)
    return fst


def assert_epsilon_free(fsa: FSA) -> None:
    """The image kernel closes over epsilon outputs: no row has an epsilon key."""
    assert all(EPSILON not in row for row in fsa.transitions)


@st.composite
def epsilon_fst_strategy(draw) -> FstDescription:
    """A random FST that always has an ε:ε cycle, an ε:a insertion and an a:ε deletion."""
    num_states, arcs, accepting = draw(fst_strategy())
    states = st.integers(min_value=0, max_value=num_states - 1)
    symbols = st.integers(min_value=0, max_value=len(SYMBOLS) - 1)
    first, second = draw(states), draw(states)
    forced = [
        (first, None, None, second),
        (second, None, None, first),
        (draw(states), None, draw(symbols), draw(states)),
        (draw(states), draw(symbols), None, draw(states)),
    ]
    return num_states, arcs + forced, accepting


@st.composite
def epsilon_nfa_strategy(draw) -> NfaDescription:
    """A random acceptor that always has at least one epsilon move."""
    num_states, transitions, accepting = draw(nfa_strategy())
    states = st.integers(min_value=0, max_value=num_states - 1)
    return num_states, transitions + [(draw(states), None, draw(states))], accepting


#: Relations and acceptors for the image and delayed-operation oracle tests:
#: half of the draws carry forced epsilon structure.
RELATIONS = st.one_of(fst_strategy(), epsilon_fst_strategy())
ACCEPTORS = st.one_of(nfa_strategy(), epsilon_nfa_strategy())


@settings(max_examples=100, deadline=None)
@given(rel=RELATIONS, acceptor=ACCEPTORS)
def test_fused_image_matches_compose_oracle(rel, acceptor):
    ab = fresh_alphabet()
    fst, fsa = build_fst(rel, ab), build_nfa(acceptor, ab)
    fused = fst.image(fsa)
    eager = fst.image_via_compose(fsa)
    assert_epsilon_free(fused)
    assert check_equal(fused, eager)
    assert fused.language(max_count=50, max_length=8) == eager.language(max_count=50, max_length=8)


@settings(max_examples=40, deadline=None)
@given(rel=fst_strategy(), acceptor=nfa_strategy())
def test_preimage_and_trim_preserve_the_relation(rel, acceptor):
    ab = fresh_alphabet()
    fst, fsa = build_fst(rel, ab), build_nfa(acceptor, ab)
    preimage = fst.preimage(fsa)
    oracle = fst.compose(FST.identity(fsa)).project_input()
    assert check_equal(preimage, oracle)
    # Short bound: pair enumeration on an untrimmed FST walks every arc path
    # up to max_length, which grows exponentially for dense random machines.
    assert fst.trim().relation(max_count=200, max_length=4) == fst.relation(
        max_count=200, max_length=4
    )


# ----------------------------------------------------------------------
# Delayed FST operations vs. the eager RCompose/RUnion-style oracle
# ----------------------------------------------------------------------
def assert_relations_equal(lazy, eager: FST, acceptor: FSA) -> None:
    """Language equality of two relations, checked through their behaviour.

    Both the image of a random acceptor (the engine's decision boundary) and
    the two projections of the forced delayed graph must agree with the
    eagerly built transducer.
    """
    image = lazy.image(acceptor)
    assert_epsilon_free(image)
    assert check_equal(image, eager.image_via_compose(acceptor))
    forced = lazy.to_fst()
    assert check_equal(forced.project_input(), eager.project_input())
    assert check_equal(forced.project_output(), eager.project_output())


@settings(max_examples=60, deadline=None)
@given(left=RELATIONS, right=RELATIONS, acceptor=ACCEPTORS)
def test_lazy_union_matches_eager_union(left, right, acceptor):
    ab = fresh_alphabet()
    left_fst, right_fst = build_fst(left, ab), build_fst(right, ab)
    lazy = LazyUnion(left_fst, right_fst)
    eager = left_fst.union(right_fst)
    assert_relations_equal(lazy, eager, build_nfa(acceptor, ab))


@settings(max_examples=60, deadline=None)
@given(left=RELATIONS, right=RELATIONS, acceptor=ACCEPTORS)
def test_lazy_compose_matches_eager_compose(left, right, acceptor):
    ab = fresh_alphabet()
    left_fst, right_fst = build_fst(left, ab), build_fst(right, ab)
    lazy = LazyCompose(left_fst, right_fst)
    eager = left_fst.compose(right_fst)
    assert_relations_equal(lazy, eager, build_nfa(acceptor, ab))


@settings(max_examples=60, deadline=None)
@given(language=nfa_strategy(), acceptor=nfa_strategy())
def test_lazy_identity_and_complement_zone_match_eager(language, acceptor):
    ab = fresh_alphabet()
    language_fsa = build_nfa(language, ab)
    probe = build_nfa(acceptor, ab)
    assert_relations_equal(LazyIdentity(language_fsa), FST.identity(language_fsa), probe)
    assert_relations_equal(
        LazyComplementZone(language_fsa),
        FST.identity(language_fsa.complement()),
        probe,
    )


@settings(max_examples=40, deadline=None)
@given(
    zone=nfa_strategy(),
    primary=RELATIONS,
    fallback=RELATIONS,
    acceptor=ACCEPTORS,
)
def test_lazy_branch_shadowing_matches_eager_pipeline(zone, primary, fallback, acceptor):
    """The spec-compilation shape R1 | (I(¬Z) ∘ R2), delayed vs. eager."""
    ab = fresh_alphabet()
    zone_fsa = build_nfa(zone, ab)
    primary_fst, fallback_fst = build_fst(primary, ab), build_fst(fallback, ab)
    lazy = LazyUnion(primary_fst, LazyCompose(LazyComplementZone(zone_fsa), fallback_fst))
    eager = primary_fst.union(
        FST.identity(zone_fsa.complement()).compose(fallback_fst)
    )
    assert_relations_equal(lazy, eager, build_nfa(acceptor, ab))


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_shortest_witness_is_shortest_and_genuine(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    witness = shortest_witness(left_fsa, right_fsa)
    eager = left_fsa.difference(right_fsa)
    if witness is None:
        assert eager.is_empty()
    else:
        assert left_fsa.accepts(witness) and not right_fsa.accepts(witness)
        shortest = eager.shortest_accepted()
        assert shortest is not None and len(witness) == len(shortest)
