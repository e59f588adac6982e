"""Tests for size-constrained ("large MBE") enumeration."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_mbe
from repro.core.mbet import MBET
from tests.conftest import G0_MAXIMAL
from tests.strategies import bipartite_graphs

RELAXED = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestValidation:
    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            MBET(min_left=0)
        with pytest.raises(ValueError):
            MBET(min_right=-1)

    def test_defaults_are_unconstrained(self, g0):
        assert run_mbe(g0, "mbet", min_left=1, min_right=1).count == 6


class TestKnownAnswers:
    def test_g0_min_left_two(self, g0):
        got = run_mbe(g0, "mbet", min_left=2).biclique_set()
        assert got == {b for b in G0_MAXIMAL if len(b.left) >= 2}
        assert len(got) == 5

    def test_g0_min_right_two(self, g0):
        got = run_mbe(g0, "mbet", min_right=2).biclique_set()
        assert got == {b for b in G0_MAXIMAL if len(b.right) >= 2}

    def test_g0_both_thresholds(self, g0):
        got = run_mbe(g0, "mbet", min_left=2, min_right=2).biclique_set()
        assert got == {
            b for b in G0_MAXIMAL if len(b.left) >= 2 and len(b.right) >= 2
        }

    def test_unsatisfiable_threshold(self, g0):
        assert run_mbe(g0, "mbet", min_left=100).count == 0
        assert run_mbe(g0, "mbet", min_right=100).count == 0

    def test_pruning_counter_advances(self, g0):
        result = run_mbe(g0, "mbet", min_left=3, min_right=2, collect=False)
        assert result.stats.threshold_pruned > 0


class TestPruningIsSound:
    @pytest.mark.parametrize("algo", ["mbet", "mbetm"])
    @pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (2, 2), (3, 3)])
    def test_equals_filtered_bruteforce(self, algo, p, q, g0):
        truth = {
            b
            for b in run_mbe(g0, "bruteforce").biclique_set()
            if len(b.left) >= p and len(b.right) >= q
        }
        assert run_mbe(g0, algo, min_left=p, min_right=q).biclique_set() == truth

    @RELAXED
    @given(g=bipartite_graphs(), p=st.integers(1, 4), q=st.integers(1, 4))
    def test_property_filtered_bruteforce(self, g, p, q):
        truth = {
            b
            for b in run_mbe(g, "bruteforce").biclique_set()
            if len(b.left) >= p and len(b.right) >= q
        }
        got = run_mbe(g, "mbet", min_left=p, min_right=q).biclique_set()
        assert got == truth

    @RELAXED
    @given(g=bipartite_graphs())
    def test_pruned_run_does_less_work(self, g):
        full = run_mbe(g, "mbet", collect=False)
        constrained = run_mbe(
            g, "mbet", min_left=3, min_right=3, collect=False
        )
        assert constrained.stats.nodes <= full.stats.nodes


class TestParallelConstrained:
    def test_root_slices_respect_thresholds(self, g0):
        # Constrained options flow through worker construction: a
        # constrained parallel run matches the constrained serial run.
        for min_left, min_right in [(2, 1), (1, 2), (2, 2), (3, 2)]:
            want = run_mbe(
                g0, "mbet", min_left=min_left, min_right=min_right
            ).biclique_set()
            got = run_mbe(
                g0, "parallel", workers=1,
                min_left=min_left, min_right=min_right,
            )
            assert got.biclique_set() == want
            assert got.count == len(want)

    def test_thresholds_with_forced_slicing(self, g0):
        # bound_height/bound_size force per-root slicing (two workers:
        # one runs roots whole); the min_right gate in MBET._run_subproblem
        # must not double- or zero-report roots
        want = run_mbe(g0, "mbet", min_left=2, min_right=2).biclique_set()
        got = run_mbe(
            g0, "parallel", workers=2, bound_height=1, bound_size=1,
            min_left=2, min_right=2,
        )
        assert got.biclique_set() == want
        assert got.count == len(want)

    def test_default_remains_unconstrained(self, g0):
        assert run_mbe(g0, "parallel", workers=1).count == 6

    def test_invalid_thresholds_rejected(self):
        from repro.core.parallel import ParallelMBE

        with pytest.raises(ValueError, match="thresholds"):
            ParallelMBE(min_left=0)
        with pytest.raises(ValueError, match="thresholds"):
            ParallelMBE(min_right=-1)
