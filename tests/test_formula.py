"""Data model and file format tests."""

import itertools
import random

import pytest

from abduce.formula import (Cnf, Explanation, FormatError, Pap,
                            TautologyError, _clause, encode_negation,
                            parse_apf, write_apf)
from abduce.generators import gen_family1

from conftest import make_clause, worked_instance

EX1_APF = """\
c worked instance
p abd 4
t -1 4 0
t -2 -3 4 0
h 1 1 0
h 1 2 0
h 1 3 0
m 4 0
"""


class TestClause:
    def test_dedupes_and_keeps_order(self):
        assert _clause([1, -2, 1, 3, -2], 3) == (1, -2, 3)
        assert _clause([1, 1, 2], 2) == (1, 2)

    def test_rejects_complementary_pair(self):
        with pytest.raises(TautologyError):
            _clause([1, 2, -1], 3)
        # where it stands, though variable 3 is out of bounds
        with pytest.raises(TautologyError, match="^clause contains 3 and -3$"):
            _clause([3, -3], 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            _clause([1, 0], 3)
        with pytest.raises(ValueError, match="^literal 0 is not allowed$"):
            _clause([3, 0], 2)

    def test_reports_first_variable_out_of_bounds(self):
        with pytest.raises(ValueError,
                           match=r"^variable 3 out of bounds \(2 declared\)$"):
            _clause([3, 1, 4], 2)


class TestPap:
    def test_weights_property(self, ex1):
        assert ex1.weights == (1, 1, 1)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Pap(2, (), (((1,), 0),), ())

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            Pap(2, ((3,),), (), ())

    def test_repeated_literals_fold(self):
        p = Pap(2, ((1, 1, 2),), (((2, 2), 1),), ((2,),))
        assert p.theory == ((1, 2),)
        assert p.hypotheses == (((2,), 1),)
        assert Cnf(2, ((2, 1, 2),)).clauses == ((2, 1),)

    def test_clause_faults_name_part_and_position(self):
        # the parsers' rule and message, after the part and the position
        with pytest.raises(TautologyError,
                           match="^theory clause 0: clause contains 1 and -1$"):
            Pap(2, ((1, -1),), (((2,), 1),), ((2,),))
        with pytest.raises(TautologyError,
                           match="^clause 1: clause contains 2 and -2$"):
            Cnf(2, ((1,), (2, 1, -2)))
        # a zero is reported before an out-of-range variable
        with pytest.raises(ValueError, match="^hypothesis clause 1: literal 0"):
            Pap(1, (), (((1,), 1), ((5, 0), 1)))
        with pytest.raises(ValueError, match="^manifestation clause 0: "
                           "variable 3 out of bounds \\(2 declared\\)$"):
            Pap(2, (), (), ((1, 1, -3),))

    def test_subset_gives_sorted_distinct_clauses(self, ex1):
        assert ex1.subset((2, 0, 2)) == ((1,), (3,))
        assert ex1.subset(()) == ()

    def test_duplicate_hypotheses_kept_distinct(self):
        p = Pap(1, (), (((1,), 1), ((1,), 2)), ())
        assert len(p.hypotheses) == 2

    def test_relaxed_numbers_selectors_from_first_var(self, ex1):
        assert ex1.relaxed(5) == ((5, 6, 7), ((-5, 1), (-6, 2), (-7, 3)))
        assert ex1.relaxed(9)[0] == (9, 10, 11)
        assert Pap(1).relaxed(2) == ((), ())


class TestExplanation:
    def test_indices_sorted_and_deduped(self):
        assert Explanation((3, 1, 3), 4).indices == (1, 3)


class TestParseApf:
    def test_worked_instance(self):
        p = parse_apf(EX1_APF)
        assert p == worked_instance()

    def test_minimal_instance(self):
        p = parse_apf("p abd 1\nm 1 0\n")
        assert p.theory == () and p.hypotheses == ()
        assert p.manifestations == ((1,),)

    def test_out_of_bounds_variable(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_apf("p abd 4\nt 5 0\n")

    def test_clause_before_header(self):
        with pytest.raises(FormatError,
                           match="^line 1: clause line before 'p abd' header$"):
            parse_apf("t 1 0\np abd 2\n")

    def test_duplicate_header(self):
        with pytest.raises(FormatError):
            parse_apf("p abd 2\np abd 2\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="^missing 'p abd' header$"):
            parse_apf("c nothing here\n")

    def test_bad_weight(self):
        with pytest.raises(FormatError):
            parse_apf("p abd 2\nh 0 1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(FormatError):
            parse_apf("p abd 2\nt 1 2\n")

    def test_tautology_rejected(self):
        with pytest.raises(FormatError):
            parse_apf("p abd 2\nt 1 -1 0\n")

    def test_section_order_free(self):
        p = parse_apf("p abd 2\nm 2 0\nh 3 1 0\nt -1 2 0\n")
        assert p.theory == ((-1, 2),)
        assert p.hypotheses == (((1,), 3),)
        assert p.manifestations == ((2,),)


class TestWriteApf:
    def test_round_trip(self, ex1):
        assert parse_apf(write_apf(ex1)) == ex1

    def test_family_line_counts(self):
        text = write_apf(gen_family1(1))
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("h ")) == 4
        assert sum(1 for l in lines if l.startswith("t ")) == 2
        assert sum(1 for l in lines if l.startswith("m ")) == 1

    def test_empty_hypotheses(self):
        p = Pap(1, (), (), ((1,),))
        text = write_apf(p)
        assert "h " not in text
        assert parse_apf(text) == p

    def test_random_round_trips(self):
        rng = random.Random(5)
        for seed in range(20):
            nv = rng.randint(1, 8)
            p = parse_apf(write_apf(Pap(
                nv,
                (make_clause([rng.choice([-1, 1]) * rng.randint(1, nv)]),),
                (((rng.randint(1, nv),), rng.randint(1, 9)),),
                ((-rng.randint(1, nv),),),
            )))
            assert parse_apf(write_apf(p)) == p
        # built in code with repeated literals, which the constructor folds
        p = Pap(2, ((1, 1, 2),), (((2, 2), 1),), ((2, -1, 2),))
        assert parse_apf(write_apf(p)) == p


class TestEncodeNegation:
    def test_single_clause(self):
        assert encode_negation(((4,),), 5) == [(5,), (-5, -4)]

    def test_two_clauses(self):
        assert encode_negation(((1,), (2,)), 3) == [(3, 4), (-3, -1), (-4, -2)]

    def test_empty_m_is_false(self):
        assert encode_negation((), 4) == [()]

    def test_soundness_by_enumeration(self):
        rng = random.Random(11)
        for _ in range(30):
            nv = rng.randint(1, 5)
            k = rng.randint(1, 3)
            m = tuple(
                make_clause(rng.sample(
                    [v * rng.choice([-1, 1]) for v in range(1, nv + 1)],
                    rng.randint(1, nv)))
                for _ in range(k))
            enc = encode_negation(m, nv + 1)
            for bits in itertools.product((False, True), repeat=nv):
                base = [False] + list(bits)
                falsifies = any(
                    not any(base[abs(l)] == (l > 0) for l in c)
                    for c in m)
                extendable = False
                for zbits in itertools.product((False, True), repeat=k):
                    model = base + list(zbits)
                    if all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in enc):
                        extendable = True
                        break
                assert extendable == falsifies


@pytest.mark.parametrize("text", ["p abd\n", "p abd 3 4\n"],
                         ids=["apf-no-count", "apf-extra-token"])
def test_header_with_wrong_token_count(text):
    with pytest.raises(FormatError) as err:
        parse_apf(text)
    assert str(err.value) == "line 1: expected 'p abd <num_vars>'"
