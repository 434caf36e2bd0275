import itertools
import random

import pytest

from treesep.errors import AlphabetError, ArityError, ParseError
from treesep.trees import (
    PORT,
    RankedAlphabet,
    Tree,
    comb,
    compose,
    enumerate_terms,
    format_tree,
    leaf_word,
    parse_tree,
)

from fixtures import SIGMA, t
from oracles import SEED, ShapeError, brute_trees, leaves_left_to_right, rotate_at

AC = RankedAlphabet({"a": 2, "c": 0})


class TestRankedAlphabet:
    def test_basic_accessors(self):
        assert SIGMA.maxarity == 2
        assert SIGMA.arity("a") == 2
        assert SIGMA.zero_arity() == ("c", "p", "q")

    def test_needs_a_leaf_letter(self):
        with pytest.raises(AlphabetError):
            RankedAlphabet({"a": 2})

    def test_port_symbol_reserved(self):
        with pytest.raises(AlphabetError):
            RankedAlphabet({"*": 0})

    def test_validate_checks_arities(self):
        SIGMA.validate(t("a(c,p)"))
        with pytest.raises(AlphabetError):
            SIGMA.validate(t("a(c)"))
        with pytest.raises(AlphabetError):
            SIGMA.validate(t("b"))
        with pytest.raises(AlphabetError):
            SIGMA.validate(t("a(*,c)"))
        SIGMA.validate(t("a(*,c)"), ports=True)


class TestCompose:
    def test_substitution(self):
        # a(*,*) applied to (c, c)
        assert compose(t("a(*,*)"), (t("c"), t("c"))) == t("a(c,c)")

    def test_identity_term(self):
        assert compose(t("*"), (t("a(c,c)"),)) == t("a(c,c)")

    def test_arity_sum(self):
        result = compose(t("a(*,c)"), (t("a(*,*)"),))
        assert result == t("a(a(*,*),c)")
        assert result.arity == 2

    def test_argument_count_checked(self):
        with pytest.raises(ArityError):
            compose(t("a(*,*)"), (t("c"),))

    def test_port_with_children_rejected(self):
        # `arity` counts *(p) as one port, but it is no leaf to substitute
        # at: the second argument must not be dropped silently.
        with pytest.raises(AlphabetError, match="^port must be a leaf$"):
            compose(t("a(*(p),*)"), (t("q"), t("r")))
        with pytest.raises(AlphabetError, match="^port must be a leaf$"):
            comb(t("a(*(p),*)"), ["q", "r"])

    def test_staged_composition_agrees_with_flattening(self):
        # substitution associativity on all small terms over {a, c}
        terms = sorted(brute_trees(AC, 5, ports=0) | brute_trees(AC, 5, ports=1)
                       | brute_trees(AC, 5, ports=2),
                       key=lambda x: (x.size, format_tree(x)))
        binary = [u for u in terms if u.arity == 2][:6]
        unary = [u for u in terms if u.arity == 1][:6]
        ground = [u for u in terms if u.arity == 0][:6]
        for outer in binary:
            for mid in unary:
                for g1 in ground:
                    for g2 in ground:
                        staged = compose(compose(outer, (mid, t("*"))), (g1, g2))
                        flat = compose(outer, (compose(mid, (g1,)), g2))
                        assert staged == flat


class TestComb:
    def test_two_letters(self):
        assert comb(t("a(*,*)"), ["p", "q"]) == t("a(p,q)")

    def test_three_letters_left_nested(self):
        # left comb from the construction: t(t(x1,x2),x3)
        assert comb(t("a(*,*)"), ["p", "q", "r"]) == t("a(a(p,q),r)")

    def test_matches_iterated_compose(self):
        term = t("a(a(*,c),*)")
        expected = compose(term, (compose(term, (t("p"), t("q"))), t("r")))
        assert comb(term, ["p", "q", "r"]) == expected

    def test_needs_two_letters(self):
        with pytest.raises(ValueError):
            comb(t("a(*,*)"), ["p"])

    def test_needs_binary_term(self):
        with pytest.raises(ArityError):
            comb(t("a(*,c)"), ["p", "q"])

    def test_leaf_word_of_comb_is_the_input(self):
        for n in range(2, 9):
            letters = ["p" if i % 2 else "q" for i in range(n)]
            assert list(leaf_word(comb(t("a(*,*)"), letters))) == letters


class TestRotate:
    def test_right_rotation(self):
        assert rotate_at(t("a(a(p,q),r)"), (), "right") == t("a(p,a(q,r))")

    def test_left_rotation(self):
        assert rotate_at(t("a(p,a(q,r))"), (), "left") == t("a(a(p,q),r)")

    def test_rotation_below_root(self):
        before = t("a(c,a(a(p,q),r))")
        assert rotate_at(before, (2,), "right") == t("a(c,a(p,a(q,r)))")

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            rotate_at(t("a(p,q)"), (), "right")  # left child not binary
        with pytest.raises(ShapeError):
            rotate_at(t("c"), (), "left")
        with pytest.raises(ShapeError):
            rotate_at(t("a(p,q)"), (3,), "left")  # no such child

    def test_involution_and_leaf_preservation(self):
        rng = random.Random(SEED)
        trees = [u for u in brute_trees(SIGMA, 9) if u.size >= 5]
        for tree in rng.sample(trees, 60):
            spots = [
                (path, direction)
                for path, node in _all_nodes(tree)
                for direction, child in (("right", 0), ("left", 1))
                if len(node.children) == 2
                and node.children[child].label == node.label
                and len(node.children[child].children) == 2
            ]
            for path, direction in spots:
                rotated = rotate_at(tree, path, direction)
                assert leaves_left_to_right(rotated) == leaves_left_to_right(tree)
                reverse = "left" if direction == "right" else "right"
                assert rotate_at(rotated, path, reverse) == tree


def _all_nodes(tree, path=()):
    yield path, tree
    for i, child in enumerate(tree.children, start=1):
        yield from _all_nodes(child, path + (i,))


class TestSizeAndArity:
    def test_ports_with_children(self):
        # a port counts once, and nothing below it is counted
        assert (t("*(p)").size, t("*(p)").arity) == (2, 1)
        assert (t("*(*)").size, t("*(*)").arity) == (2, 1)
        assert (t("a(*(*,*),q)").size, t("a(*(*,*),q)").arity) == (5, 1)

    def test_deep_comb(self):
        # a left comb 100,000 deep with a port at every leaf, built without recursion
        acc = Tree(PORT)
        for _ in range(100_000):
            acc = Tree("a", (acc, Tree(PORT)))
        assert (acc.size, acc.arity) == (200_001, 100_001)
        assert len(leaf_word(acc)) == 100_001

    def test_shared_subtrees_count_at_each_position(self):
        shared = t("a(*,p)")
        tree = Tree("a", (shared, shared))
        assert (tree.size, tree.arity) == (7, 2)


class TestLeafWord:
    def test_plain_traversal(self):
        assert leaf_word(t("a(p,a(q,p))"), {"p", "q"}) == ("p", "q", "p")

    def test_filtering(self):
        assert leaf_word(t("a(a(p,c),q)"), {"p", "q"}) == ("p", "q")

    def test_all_filtered(self):
        assert leaf_word(t("c"), {"p", "q"}) == ()

    def test_no_filter_keeps_everything(self):
        assert leaf_word(t("a(a(p,c),q)")) == ("p", "c", "q")


class TestEnumerateTerms:
    def test_binary_terms_up_to_three_nodes(self):
        assert list(enumerate_terms(AC, 2, 3)) == [t("a(*,*)")]

    def test_arity_zero_size_one(self):
        assert list(enumerate_terms(SIGMA, 0, 1)) == [t("c"), t("p"), t("q")]

    def test_matches_brute_force_and_is_ordered(self):
        for arity in (0, 1, 2):
            stream = list(enumerate_terms(SIGMA, arity, 7))
            assert len(stream) == len(set(stream)), "duplicates in stream"
            sizes = [u.size for u in stream]
            assert sizes == sorted(sizes), "sizes must be nondecreasing"
            assert set(stream) == brute_trees(SIGMA, 7, ports=arity)

    def test_deterministic_tie_break(self):
        stream = list(enumerate_terms(SIGMA, 0, 3))
        by_size = itertools.groupby(stream, key=lambda u: u.size)
        for _, group in by_size:
            texts = [format_tree(u) for u in group]
            assert texts == sorted(texts)


class TestTextFormats:
    def test_sexpr_round_trip_random(self):
        rng = random.Random(SEED)
        pool = sorted(brute_trees(SIGMA, 9),
                      key=lambda x: (x.size, format_tree(x)))
        for tree in rng.sample(pool, 80):
            assert parse_tree(format_tree(tree)) == tree

    def test_whitespace_insignificant(self):
        assert parse_tree(" a ( p , a( q , c ) ) ") == t("a(p,a(q,c))")

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse_tree("a(p,")
        assert err.value.position is not None
        with pytest.raises(ParseError):
            parse_tree("a(p,q) junk")
        with pytest.raises(ParseError):
            parse_tree("")
