"""Tests for the executable read lower bound (Proposition 1)."""

import pytest

from repro.core.read_bound import ReadLowerBoundConstruction
from repro.errors import ConstructionEscape
from repro.registers.fast_regular import FastRegularProtocol
from repro.registers.strawman import TwoRoundReadProtocol
from repro.registers.transform_atomic import RegularToAtomicProtocol


class TestViolationCertificates:
    @pytest.mark.parametrize("t,k", [(1, 1), (1, 2), (2, 2), (1, 3), (3, 1)])
    def test_strawman_always_convicted(self, t, k):
        construction = ReadLowerBoundConstruction(
            lambda: TwoRoundReadProtocol(write_rounds=k), t=t
        )
        outcome = construction.execute()
        assert outcome.certificate.valid, outcome.certificate.render()
        assert outcome.certificate.verdict.violated_property == 1

    def test_final_run_has_no_write(self):
        outcome = ReadLowerBoundConstruction(
            lambda: TwoRoundReadProtocol(write_rounds=2), t=1
        ).execute()
        assert "write" not in outcome.final_run.ops
        assert outcome.final_run.returned("rd7") == 1

    def test_at_most_t_byzantine_objects_per_run(self):
        outcome = ReadLowerBoundConstruction(
            lambda: TwoRoundReadProtocol(write_rounds=2), t=2
        ).execute(keep_runs=True)
        assert outcome.kept_runs
        for run in outcome.kept_runs:
            assert run.malicious_object_count() <= 2, run.name

    def test_exactly_four_readers_used(self):
        outcome = ReadLowerBoundConstruction(
            lambda: TwoRoundReadProtocol(write_rounds=3), t=1
        ).execute(keep_runs=True)
        for run in outcome.kept_runs:
            readers = {op.client for op in run.ops.values() if op.kind == "read"}
            assert len(readers) <= 4

    def test_works_at_non_maximal_s(self):
        """Proposition 1 needs only S <= 4t: try S = 3t+1."""
        construction = ReadLowerBoundConstruction(
            lambda: TwoRoundReadProtocol(write_rounds=2), t=2, S=7
        )
        outcome = construction.execute()
        assert outcome.certificate.valid

    def test_run_count_matches_4k_minus_1_chain(self):
        k = 2
        outcome = ReadLowerBoundConstruction(
            lambda: TwoRoundReadProtocol(write_rounds=k), t=1
        ).execute()
        # wr + (pr_n, Δpr_n) for n = 1..4k-1
        assert outcome.runs_executed == 1 + 2 * (4 * k - 1)

    def test_certificate_render_is_auditable(self):
        outcome = ReadLowerBoundConstruction(
            lambda: TwoRoundReadProtocol(write_rounds=1), t=1
        ).execute()
        text = outcome.certificate.render()
        assert "read-lower-bound" in text
        assert "certificate valid: True" in text
        assert "[ok]" in text and "[FAILED]" not in text


class TestTightness:
    def test_four_round_read_protocol_escapes(self):
        """The matching implementation survives: its reads refuse to finish
        in two rounds, so the construction cannot even form pr_1."""
        construction = ReadLowerBoundConstruction(
            lambda: RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=4),
            t=1,
        )
        with pytest.raises(ConstructionEscape) as excinfo:
            construction.execute()
        assert "pr1" in str(excinfo.value)


class TestEarlyViolation:
    def test_certified_first_victim_convicted_early(self):
        """A certified-first selection returns stale values inside some pr_n:
        the construction must still produce a valid certificate."""
        from repro.registers.strawman import (
            SM_QUERY,
            SM_WRITE_BACK,
            _StrawmanBase,
        )
        from repro.registers.timestamps import certified_max, pooled_voucher_counts
        from repro.sim.rounds import ReplyRule, RoundSpec

        class CertifiedFirst(TwoRoundReadProtocol):
            name = "strawman-2r-certified"

            def read_generator(self, ctx, reader):
                quorum = ctx.wait_quorum
                certify = ctx.certify

                def select(pool):
                    return certified_max(pooled_voucher_counts(pool, fields=("w", "wb")), certify)

                def generator():
                    first = yield RoundSpec(tag=SM_QUERY, payload={},
                                            rule=ReplyRule(min_count=quorum))
                    candidate = select([first.replies])
                    second = yield RoundSpec(tag=SM_WRITE_BACK, payload={"tv": candidate},
                                             rule=ReplyRule(min_count=quorum))
                    return select([first.replies, second.replies]).value

                return generator()

        outcome = ReadLowerBoundConstruction(
            lambda: CertifiedFirst(write_rounds=2), t=1
        ).execute()
        assert outcome.certificate.valid, outcome.certificate.render()
        assert not outcome.certificate.verdict.ok
