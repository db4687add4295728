import numpy as np
import pytest

from grussbounds import ContractViolationError, ProbabilityVector, TARGETS, extremal_thm23, search


class TestExtremal:
    def test_default_exact(self):
        result = extremal_thm23()
        assert result.achieved_ratio == pytest.approx(1.0, abs=1e-12)
        assert result.target_constant == 0.5
        assert result.trials == 1

    def test_witness_is_instance_document(self):
        from grussbounds import instancefile

        result = extremal_thm23()
        inst = instancefile.parse_document(result.witness)
        assert inst.xs is not None and inst.ys is not None
        assert "x" in inst.enclosures


class TestSearch:
    def test_deterministic(self):
        a = search("thm23_first", 2, 1, 400, seed=11)
        b = search("thm23_first", 2, 1, 400, seed=11)
        assert a.achieved_ratio == b.achieved_ratio
        assert a.witness == b.witness
        assert a.trials == b.trials == 400

    def test_monotone_in_budget(self):
        ratios = [search("thm25_first", 2, 1, budget, seed=5).achieved_ratio for budget in (100, 400, 1200)]
        assert ratios == sorted(ratios)

    def test_ratio_never_exceeds_guard(self):
        for target in TARGETS:
            for seed in range(3):
                result = search(target, 3, 2, 600, seed=seed)
                assert result.achieved_ratio <= 1.0 + 1e-9

    def test_two_point_targets_reach_near_one(self):
        assert search("thm23_first", 2, 1, 1000, seed=0).achieved_ratio >= 0.999
        assert search("rem24_final", 2, 1, 5000, seed=0).achieved_ratio >= 0.99
        assert search("thm23_second", 2, 1, 2000, seed=0).achieved_ratio >= 0.99
        assert search("fd_equal_weights_max", 2, 2, 1000, seed=0).achieved_ratio >= 0.999

    def test_targets_name_chain_tags(self):
        from grussbounds.bounds import CHAINS

        for info in TARGETS.values():
            assert info.equation in CHAINS

    def test_invalid_arguments(self):
        with pytest.raises(ContractViolationError):
            search("no_such_target", 2, 1, 10, 0)
        with pytest.raises(ContractViolationError):
            search("thm23_first", 1, 1, 10, 0)
        with pytest.raises(ContractViolationError):
            search("thm23_first", 2, 0, 10, 0)
        with pytest.raises(ContractViolationError):
            search("thm23_first", 2, 1, 0, 0)
        with pytest.raises(ContractViolationError):
            search("thm23_first", 2, 1, 10, -1)

    def test_witness_reproduces_ratio(self):
        # re-evaluating the witness through the public chain gives the ratio back
        from grussbounds import bound_chebyshev, WeightedSequence, instancefile

        result = search("thm23_first", 2, 1, 500, seed=2)
        inst = instancefile.parse_document(result.witness)
        ws = WeightedSequence(inst.space, inst.weights, xs=inst.xs, ys=inst.ys)
        chain = bound_chebyshev(inst.enclosures["x"], ws)
        ratio = chain.functional_value / chain.links[0].value
        assert ratio == pytest.approx(result.achieved_ratio, abs=1e-9)

    def test_candidates_respect_hypothesis(self):
        # the search projects candidates into the hypothesis ball, so the
        # witness always verifies
        from grussbounds import check_ball, instancefile

        for target in ("thm23_first", "rem24_final", "thm25_first"):
            result = search(target, 3, 2, 300, seed=4)
            inst = instancefile.parse_document(result.witness)
            assert check_ball(inst.enclosures["x"], inst.xs).holds


@pytest.mark.parametrize("target", ["thm23_first", "rem24_final", "thm25_first"])
def test_search_builds_one_probability_vector_per_evaluation(monkeypatch, target):
    built = []
    original = ProbabilityVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ProbabilityVector, "__post_init__", counting)
    result = search(target, 4, 2, 300, seed=2)
    assert result.trials == 300
    assert len(built) == 300 + 2  # the uniform weights at set-up and the witness's weights
