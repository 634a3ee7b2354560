"""Acceptance battery: one test per shipped guarantee, each printing a
PASS/FAIL line with its elapsed time against a pinned budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import json
import time
from contextlib import contextmanager
from math import gcd, prod

import pytest
from _pytest.assertion.rewrite import AssertionRewritingHook

from numsgps.cli import main
from numsgps.core import (
    apery,
    is_symmetric,
    pseudo_frobenius,
    remove_minimal_generator,
    semigroup_type,
)
from numsgps.ed1 import (
    construct_ed1,
    ed1_frobenius,
    ed1_genus,
    ed1_pseudo_frobenius,
)
from numsgps.fibers import TruncationBounds, children, enumerate_fiber
from numsgps.monoids import build_monoid
from numsgps.multiples import MultipleContext, max_multiples, quotient
from numsgps.oracle import (
    EnumerationBudget,
    all_multiples_bounded,
    all_with_frobenius,
    children_bruteforce,
)
from numsgps.rank import (
    UniqueBettiSpec,
    bounded_low_e_multiple_search,
    full_rank_condition,
    unique_betti,
    unique_betti_apery,
)

import sweeps
from conftest import sgp
from sweeps import (
    apery_shape_sweep,
    intersection_closure_sweep,
    monoid_equivalence_battery,
    divisibility_sweep,
    sandwich_equivalence_sweep,
    maximal_frobenius_sweep,
)


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_seconds else "FAIL (over time budget)"
    print(f"ACCEPTANCE {name}: {verdict} in {elapsed:.2f}s (budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s"


def cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_census_and_quotient_fixtures(capsys):
    """Census at F = 6, the singleton maximal set, and both quotients."""
    with criterion("1 (census and quotient fixtures)", 1.0):
        code, out = cli(capsys, "oracle", "frobenius-census", "--f", "6")
        assert code == 0
        assert out == "⟨4,5,7⟩\n⟨4,7,9,10⟩\n⟨5,7,8,9,11⟩\n⟨7,8,9,10,11,12,13⟩\n"

        code, out = cli(capsys, "max-multiples", "--sgp", "3,4,5", "--d", "3")
        assert code == 0
        assert out == "⟨4,5,7⟩\n"

        for spec in ("4,7,9,10", "4,5,7"):
            code, out = cli(capsys, "quotient", "--sgp", spec, "--d", "3")
            assert code == 0
            assert out == "⟨3,4,5⟩\n"


def test_criterion_2_maximal_sets_against_census():
    """{⟨5,8,9,11⟩, ⟨7,8,9,10,11,13⟩} is the maximal set for d = 3 and not
    for d = 5; production agrees with the census oracle for both d."""
    with criterion("2 (maximal sets against census)", 10.0):
        S = sgp(3, 5, 7)
        expected = {sgp(5, 8, 9, 11), sgp(7, 8, 9, 10, 11, 13)}
        matching = []
        for d in (3, 5):
            candidates = [
                T for T in all_with_frobenius(d * S.frobenius) if quotient(T, d) == S
            ]
            oracle_maximals = {
                T for T in candidates if not any(T < U for U in candidates)
            }
            production = set(max_multiples(MultipleContext(S, d)).maximals)
            assert production == oracle_maximals
            if oracle_maximals == expected:
                matching.append(d)
        assert matching == [3]


def test_criterion_3_children_leaves_and_pf():
    """The two expected children are children and the full set has exactly
    three members (cross checked by brute force); the expected leaves are
    leaves; the removed-generator PF sets are the oracle-computed ones."""
    with criterion("3 (fiber-tree examples)", 1.0):
        ctx = MultipleContext(sgp(2, 3), 11)
        T = sgp(5, 7, 8, 9)
        got = {(n.removed_generator, n.semigroup) for n in children(ctx, T)}
        assert (8, sgp(5, 7, 9, 13)) in got
        assert (9, sgp(5, 7, 8)) in got
        assert got == set(children_bruteforce(ctx, T))
        assert got == {
            (7, sgp(5, 8, 9, 12)),
            (8, sgp(5, 7, 9, 13)),
            (9, sgp(5, 7, 8)),
        }

        assert children(MultipleContext(sgp(3, 5, 7), 3), sgp(5, 8, 9)) == ()
        leaf = sgp(6, 9, 11)
        for d in range(1, 9):
            assert children(MultipleContext(quotient(leaf, d), d), leaf) == ()

        assert pseudo_frobenius(remove_minimal_generator(leaf, 6)) == (6, 19, 25)
        assert pseudo_frobenius(remove_minimal_generator(leaf, 9)) == (9, 16, 25)
        assert pseudo_frobenius(remove_minimal_generator(leaf, 11)) == (11, 14, 25)


@pytest.mark.xfail(
    strict=True,
    reason="⟨5,7,9,13⟩ and ⟨5,7,8⟩ are a strict subset of the child set: "
    "removing generator 7 also yields a child (θ of ⟨5,8,9,12⟩ is 7, "
    "brute-force confirmed), so this equality must keep failing; if it "
    "ever passes, children() regressed",
)
def test_criterion_3_literal_two_child_equality():
    print(
        "ACCEPTANCE 3-literal (two-child equality guard): EXPECTED FAIL "
        "(third child ⟨5,8,9,12⟩ provably exists; see xfail reason)"
    )
    ctx = MultipleContext(sgp(2, 3), 11)
    got = {n.semigroup for n in children(ctx, sgp(5, 7, 8, 9))}
    assert got == {sgp(5, 7, 9, 13), sgp(5, 7, 8)}


def test_criterion_4_fiber_partition(census_by_frobenius):
    """Truncated fibers over all maximal multiples partition the bounded
    multiple enumeration, for every S with F(S) ≤ 6 and d ≤ 3."""
    with criterion("4 (fiber partition)", 60.0):
        checked = 0
        for f in range(1, 7):
            for S in census_by_frobenius(f):
                for d in range(1, 4):
                    ctx = MultipleContext(S, d)
                    fmax = d * S.frobenius + 6
                    bounds = TruncationBounds(max_frobenius=fmax)
                    seen = {}
                    for root in max_multiples(ctx).maximals:
                        for T in enumerate_fiber(ctx, root, bounds).semigroup:
                            assert T not in seen, "fibers overlap"
                            seen[T] = root
                    budget = EnumerationBudget(fmax, fmax, 500000)
                    expected = set(all_multiples_bounded(ctx, budget))
                    assert set(seen) == expected
                    checked += len(expected)
        assert checked > 0


def test_criterion_5_monoid_and_ed1_examples(capsys):
    """Minimal system {9} with semigroup ⟨9,10,14⟩; F = 35, g = 20,
    PF = {31, 35}, via both the formulas and the materialized semigroup."""
    with criterion("5 (monoid and closed-form examples)", 1.0):
        code, out = cli(capsys, "md-monoid", "--sgp", "5,7,9", "--d", "2", "--x", "9,10")
        assert code == 0
        assert out == "minimal system {9} md-e=1 semigroup ⟨9,10,14⟩\n"

        code, out = cli(
            capsys, "ed1", "--sgp", "5,7,9", "--d", "2", "--x", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["frobenius"] == 35
        assert payload["genus"] == 20
        assert payload["pf"] == [31, 35]

        m = construct_ed1(MultipleContext(sgp(5, 7, 9), 2), 9)
        assert ed1_frobenius(m) == m.semigroup.frobenius == 35
        assert ed1_genus(m) == m.semigroup.genus == 20
        assert ed1_pseudo_frobenius(m) == pseudo_frobenius(m.semigroup) == (31, 35)

        monoid = build_monoid(MultipleContext(sgp(5, 7, 9), 2), [9, 10])
        assert monoid.minimal_system == (9,)
        assert monoid.to_semigroup() == sgp(9, 10, 14)


def test_criterion_6_closed_form_sweep(census_by_frobenius):
    """Closed forms vs materialization for every S with F(S) ≤ 12, d ≤ 5
    and member x ≤ 2F(S)+3 coprime to d; type and symmetry carry over; for
    d ≥ 2 the result is never maximal and x is recovered as min(T ∖ d·S)."""
    from numsgps.fibers import theta

    with criterion("6 (closed-form sweep)", 300.0):
        cases = 0
        for f in range(1, 13):
            for S in census_by_frobenius(f):
                s_type = semigroup_type(S)
                s_sym = is_symmetric(S)
                s_pf = pseudo_frobenius(S)
                for d in range(1, 6):
                    ctx = MultipleContext(S, d)
                    for x in range(1, 2 * S.frobenius + 4):
                        if not (S.contains(x) and gcd(x, d) == 1):
                            continue
                        cases += 1
                        m = construct_ed1(ctx, x)
                        T = m.semigroup
                        assert ed1_frobenius(m) == T.frobenius
                        assert ed1_genus(m) == T.genus
                        expected_pf = tuple(sorted(d * v + (d - 1) * x for v in s_pf))
                        assert ed1_pseudo_frobenius(m) == expected_pf
                        assert pseudo_frobenius(T) == expected_pf
                        assert semigroup_type(T) == s_type
                        assert is_symmetric(T) == s_sym
                        if d >= 2:
                            assert theta(ctx, T) == T.frobenius
                            recovered = next(
                                v
                                for v in T.members_up_to(T.frobenius + x + 1)
                                if v > 0 and not ctx.in_scaled_semigroup(v)
                            )
                            assert recovered == x
        print(f"  [criterion 6 swept {cases} cases]")
        assert cases > 2000


def test_criterion_7_full_rank_reproduction():
    """The four Apéry witnesses, every small unique-Betti family, the
    coefficient-box Apéry sets, and search consistency."""
    with criterion("7 (full quotient rank)", 30.0):
        S = sgp(21, 24, 25, 31)
        report = full_rank_condition(S)
        assert report.condition_holds
        assert [w.partner_sum for w in report.witnesses] == [80, 77, 76, 70]
        for w in report.witnesses:
            assert w.partner_sum in apery(S, w.generator)

        specs = []

        def extend(prefix, start, left):
            for c in range(start, left + 1):
                if any(gcd(c, p) != 1 for p in prefix):
                    continue
                cand = prefix + [c]
                if len(cand) >= 2:
                    specs.append(tuple(cand))
                extend(cand, c + 1, left // c)

        extend([], 2, 500)
        assert len(specs) > 700
        for c in specs:
            spec = UniqueBettiSpec(c)
            B = unique_betti(spec)
            assert B.msg == spec.msg_out
            rep = full_rank_condition(B)
            assert rep.condition_holds
            assert B.multiplicity >= 2 ** (B.embedding_dimension - 1)
            for i in range(len(c)):
                assert unique_betti_apery(spec, i) == apery(B, prod(c) // c[i])

        # condition_holds ⇒ the exact search finds nothing at any d.
        for probe in (sgp(2, 3), sgp(4, 6, 9), sgp(6, 10, 15), S):
            assert full_rank_condition(probe).condition_holds
            assert bounded_low_e_multiple_search(probe, 8) is None


def test_criterion_8_property_suites(census_by_frobenius, small_semigroups):
    """The named property sweeps, all at once, inside one time budget."""
    with criterion("8 (property suites)", 300.0):
        counts = {
            "sandwich equivalence": sandwich_equivalence_sweep(census_by_frobenius),
            "maximal Frobenius": maximal_frobenius_sweep(census_by_frobenius),
            "divisibility": divisibility_sweep(census_by_frobenius),
            "intersection closure": intersection_closure_sweep(census_by_frobenius),
            "monoid equivalences": monoid_equivalence_battery(small_semigroups),
            "Apéry shape": apery_shape_sweep(census_by_frobenius),
        }
        print(f"  [criterion 8 case counts: {counts}]")
        assert all(v > 0 for v in counts.values())


def test_sweeps_asserts_are_rewritten():
    """pytest rewrites the asserts of the sweeps above, so they still check
    under python -O, which strips a plain assert."""
    assert isinstance(sweeps.__loader__, AssertionRewritingHook)
