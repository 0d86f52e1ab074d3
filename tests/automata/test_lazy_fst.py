"""Tests for the delayed-operation FST layer (repro.automata.lazy)."""

from __future__ import annotations

import pickle

from repro.automata import (
    Alphabet,
    FSA,
    FST,
    LazyComplementZone,
    LazyCompose,
    LazyIdentity,
    LazyUnion,
    check_equal,
    relation_image,
)
from repro.automata.fsa import EPSILON
from repro.rela import any_hops, any_of, atomic, drop, nochange, seq
from repro.verifier import compile_spec


def alphabet() -> Alphabet:
    return Alphabet(["a", "b", "c"])


def words(ab: Alphabet, *items: list[str]) -> FSA:
    return FSA.from_words(ab, list(items))


def assert_same_relation(lazy, eager: FST) -> None:
    """Language equality of two relations, via forcing and via images."""
    forced = lazy.to_fst()
    # Compare through both projections and through images over Sigma*.
    sigma_star = FSA.any_symbol(eager.alphabet).star()
    assert check_equal(forced.project_input(), eager.project_input())
    assert check_equal(forced.project_output(), eager.project_output())
    assert check_equal(lazy.image(sigma_star), eager.image_via_compose(sigma_star))


def assert_epsilon_free(fsa: FSA) -> None:
    assert all(EPSILON not in row for row in fsa.transitions)


def test_lazy_identity_matches_eager_identity():
    ab = alphabet()
    language = words(ab, ["a"], ["a", "b"], ["c", "c"])
    lazy = LazyIdentity(language)
    eager = FST.identity(language)
    assert_same_relation(lazy, eager)
    probe = words(ab, ["a"], ["b"], ["a", "b"])
    assert check_equal(lazy.image(probe), eager.image(probe))


def test_lazy_complement_zone_is_identity_of_complement():
    ab = alphabet()
    zone = words(ab, ["a"], ["a", "b"])
    lazy = LazyComplementZone(zone)
    eager = FST.identity(zone.complement())
    assert_same_relation(lazy, eager)
    # The implicit sink accepts: words far outside the zone map to themselves.
    probe = words(ab, ["c", "c", "c"], ["a"], ["b"])
    image = lazy.image(probe)
    assert image.accepts(["c", "c", "c"])
    assert image.accepts(["b"])
    assert not image.accepts(["a"])


def test_lazy_complement_zone_never_materializes_sigma_rows():
    # A large alphabet: the delayed node must only expand the symbols the
    # acceptor actually presents, independently of |Sigma|.
    ab = Alphabet([f"s{i}" for i in range(500)])
    zone = FSA.from_words(ab, [["s0"]])
    lazy = LazyComplementZone(zone)
    probe = FSA.from_words(ab, [["s1", "s2"]])
    image = lazy.image(probe)
    assert image.accepts(["s1", "s2"])
    # Only the queried symbols were ever expanded.
    assert len(lazy._step_cache) <= 4


def test_lazy_union_flattens_and_matches_eager():
    ab = alphabet()
    parts_lazy = [FST.identity(words(ab, ["a"])), FST.cross(words(ab, ["b"]), words(ab, ["c"]))]
    third = FST.identity(words(ab, ["c", "c"]))
    nested = LazyUnion(LazyUnion(*parts_lazy), third)
    assert len(nested.operands) == 3  # flattened, not a chain
    eager = parts_lazy[0].union(parts_lazy[1]).union(third)
    assert_same_relation(nested, eager)


def test_lazy_compose_matches_eager_compose():
    ab = alphabet()
    first = FST.cross(words(ab, ["a"], ["a", "a"]), words(ab, ["b"]))
    second = FST.cross(words(ab, ["b"]), words(ab, ["c", "c"]))
    lazy = LazyCompose(first, second)
    eager = first.compose(second)
    assert_same_relation(lazy, eager)


def test_nested_delayed_graph_matches_eager_pipeline():
    # The branch-shadowing shape: I(not Z1) o (R1 | I(not Z2) o R2).
    ab = alphabet()
    zone1 = words(ab, ["a"])
    zone2 = words(ab, ["b"])
    rel1 = FST.identity(words(ab, ["b"], ["c"]))
    rel2 = FST.cross(words(ab, ["c"]), words(ab, ["a"]))
    lazy = LazyCompose(
        LazyComplementZone(zone1),
        LazyUnion(rel1, LazyCompose(LazyComplementZone(zone2), rel2)),
    )
    eager = (
        FST.identity(zone1.complement())
        .compose(rel1.union(FST.identity(zone2.complement()).compose(rel2)))
    )
    assert_same_relation(lazy, eager)


def test_flat_shadowed_union_equals_nested_else_chain():
    # I(¬Z1) ∘ I(¬Z2) = I(¬(Z1|Z2)): the flat prioritized union used by the
    # engine is language-equal to the nested Figure 4 translation.
    ab = alphabet()
    zone1 = words(ab, ["a"])
    zone2 = words(ab, ["b"])
    r1 = FST.identity(words(ab, ["a"], ["c"]))
    r2 = FST.cross(words(ab, ["b"]), words(ab, ["b", "b"]))
    r3 = FST.identity(words(ab, ["c"], ["a", "b"]))
    nested = LazyUnion(
        r1,
        LazyCompose(
            LazyComplementZone(zone1),
            LazyUnion(r2, LazyCompose(LazyComplementZone(zone2), r3)),
        ),
    )
    flat = LazyUnion(
        r1,
        LazyCompose(LazyComplementZone(zone1), r2),
        LazyCompose(LazyComplementZone(zone1.union(zone2)), r3),
    )
    sigma_star = FSA.any_symbol(ab).star()
    assert check_equal(nested.image(sigma_star), flat.image(sigma_star))
    probe = words(ab, ["a"], ["b"], ["c"], ["a", "b"])
    assert check_equal(nested.image(probe), flat.image(probe))


def test_concrete_fst_implements_arc_iteration_protocol():
    ab = alphabet()
    fst = FST.cross(words(ab, ["a"]), words(ab, ["b"]))
    probe = words(ab, ["a"], ["c"])
    # relation_image over a concrete FST agrees with the eager compose oracle.
    assert check_equal(relation_image(fst, probe), fst.image_via_compose(probe))
    assert fst.is_accepting(next(iter(fst.accepting)))
    assert not fst.is_accepting(fst.initial)


def test_lazy_nodes_pickle_roundtrip():
    # Compiled specs ship to worker processes; delayed nodes must pickle,
    # including half-populated expansion caches.
    ab = alphabet()
    zone = words(ab, ["a"])
    lazy = LazyUnion(
        FST.identity(words(ab, ["b"])),
        LazyCompose(LazyComplementZone(zone), FST.identity(words(ab, ["c"]))),
    )
    probe = words(ab, ["b"], ["c"])
    before = lazy.image(probe)  # populate caches
    # Alphabets are compared by identity, so ship the relation and the
    # acceptor in one payload — exactly how the engine ships compiled specs
    # plus the snapshot builder to worker processes.
    clone, probe_clone = pickle.loads(pickle.dumps((lazy, probe)))
    after = clone.image(probe_clone)
    assert before.language() == after.language()


def test_image_memoization_shared_across_queries():
    ab = alphabet()
    lazy = LazyComplementZone(words(ab, ["a"]))
    first = lazy.image(words(ab, ["b"]))
    expanded = len(lazy._step_cache)
    second = lazy.image(words(ab, ["b"]))
    assert first.language() == second.language()
    assert len(lazy._step_cache) == expanded  # second walk hit the caches


def test_shadowed_union_spec_image_is_epsilon_free_and_small():
    """Regression pin for the epsilon-free image kernel.

    A four-branch ``else`` chain compiles to a flat shadowed ``LazyUnion``
    whose fresh initial state fans out by epsilon arcs into every branch.
    The walk that kept every reachable pair as a state imaged this spec
    into 85 (pre) and 54 (post) states carrying 69 and 35 epsilon arcs; the
    epsilon-free walk needs 16 and 19 states and no epsilon arcs.
    """
    ab = Alphabet(["a", "b", "c", "d", "drop"])
    spec = (
        atomic(seq("a", any_hops(), "d"), any_of(seq("a", "b", "d")))
        .else_(atomic(seq("b", any_hops()), drop()))
        .else_(atomic(seq("c", any_hops()), any_of(seq("c", "d"))))
        .else_(nochange())
    )
    compiled = compile_spec(spec, ab)
    assert isinstance(compiled.pre_fst, LazyUnion) and len(compiled.branches) == 4
    paths = words(ab, ["a", "c", "d"], ["b", "d"], ["c", "a"], ["d", "a", "b"])
    for relation, max_states in ((compiled.pre_fst, 16), (compiled.post_fst, 19)):
        image = relation.image(paths)
        assert_epsilon_free(image)
        assert image.num_states <= max_states
        assert check_equal(image, relation.to_fst().image_via_compose(paths))
