import hashlib

import numpy as np
import pytest

from grussbounds import ContractViolationError, HypothesisError, ProbabilityVector, TARGETS, extremal_thm23, search
from grussbounds.sharpness import HOLDER_P, _Problem


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


#: (n, dim, budget, seed) -> target -> (achieved_ratio.hex(), SHA-256 of the dumped witness), recorded
#: before the ratio evaluated one link of the chain table instead of building the whole chain.
STREAMS = {
    (8, 3, 1000, 1): {
        "thm23_first": ("0x1.ffae762f720c3p-1", "2823536d41663b179fa740e41807a800f1be19c061dc00e3e964f118e234e824"),
        "thm23_second": ("0x1.ffed097d5e649p-1", "3309773c88b73f801ccab94da78255c57837c5a93b128774bc783ac0918911b7"),
        "rem24_final": ("0x1.fd6fd1a924089p-1", "0c87411f4c092f069a64abc95e78a1f124cb31710abe34ab55704bb5e8fcc390"),
        "thm25_first": ("0x1.fff4b0b60e1a7p-1", "53336421af3fb750a86c265ce1559b7357b8056841838de69d508a668fa80e84"),
        "fd_equal_weights_max": ("0x1.93583d891a6fdp-2", "8d96dea2b3940f82ffa145b95583f3fcfff79cebe47389a0e3a2f8c7936534b4"),
    },
    (2, 1, 600, 0): {
        "thm23_first": ("0x1.fffffffffdcd4p-1", "a3ae2d248fe30958af899ee74010307446df2687d4f5fbe19a5896b7f01cc776"),
        "thm23_second": ("0x1.fffffffffda00p-1", "d1bb3229eae9eb559479c164b11ca95548a1020872c9162fe3963dbd1e322222"),
        "rem24_final": ("0x1.fffffffffb7b7p-1", "41d8cd696b564842fbfa61d21e4572e8b40d743402866b49656c9318d67857b4"),
        "thm25_first": ("0x1.fffffffffdcd4p-1", "576a037be5929c996612edd92738a9fdc06decfe87898ceca7c40a4537924a01"),
        "fd_equal_weights_max": ("0x1.0000000000000p+0", "d956bd31068a5a3aa7fd27e6f805c21663946bd7902ee322989a8cd2fa7920ee"),
    },
}


@pytest.mark.parametrize("config, target", [(c, t) for c, pins in STREAMS.items() for t in pins])
def test_search_stream_equals_the_recorded_bits(config, target):
    from grussbounds import instancefile

    result = search(target, *config)
    digest = hashlib.sha256(instancefile.dumps(result.witness).encode()).hexdigest()
    assert (result.achieved_ratio.hex(), digest) == STREAMS[config][target]


@pytest.mark.parametrize("target", list(TARGETS))
def test_ratio_denominator_is_the_chain_link(target):
    # the ratio evaluates only its target's link; that value is the whole chain's link, bit for bit
    from dataclasses import replace

    from grussbounds.bounds import Link
    from grussbounds.cli import evaluate_tag
    from grussbounds.instancefile import Instance

    problem = _Problem(target, 5, 3)
    index = problem.info.link_index
    link, seen = problem.spec.links[index], []
    spy = Link(link.label, link.equation, lambda stats: seen.append(link.formula(stats)) or seen[-1])
    problem.spec = replace(problem.spec, links=problem.spec.links[:index] + (spy,) + problem.spec.links[index + 1:])
    rng = np.random.default_rng(13)
    cand = problem.initial(rng)
    for step in range(60):
        problem.ratio(cand)
        inst = Instance(
            problem.space, problem._weights(cand), xs=cand["xs"], ys=cand.get("ys"), alphas=cand.get("alphas"),
            enclosures=problem.enclosures, holder_p=HOLDER_P,
        )
        chain, _, _ = evaluate_tag(inst, problem.info.equation, fit=False, check=True, holder_p=None)
        assert (len(seen), seen[-1].hex()) == (step + 1, chain.links[index].value.hex())
        cand = problem.propose(rng, cand, 0.3 if step % 2 else 0.05)


def test_the_quarter_ratio_reads_no_mad(monkeypatch):
    # rem24_final's link is diam(x) * diam(y) / 4: no centered statistic of the sequences is needed
    from grussbounds.functionals import _Centered

    def forbidden(self):
        raise AssertionError("a rem24_final ratio computed a mad or a variance")

    monkeypatch.setattr(_Centered, "mad", forbidden)
    monkeypatch.setattr(_Centered, "variance", forbidden)
    assert search("rem24_final", 4, 2, 300, seed=1).trials == 300


@pytest.mark.parametrize("target, block", [
    ("thm23_first", "xs"), ("thm23_second", "xs"), ("rem24_final", "xs"), ("rem24_final", "ys"), ("thm25_first", "xs"),
])
def test_a_candidate_outside_the_ball_raises(target, block):
    problem = _Problem(target, 3, 2)
    cand = problem.initial(np.random.default_rng(0))
    cand[block][1] = [0.0, 1.5]
    with pytest.raises(HypothesisError, match=f"ball condition on {block} fails at index 1"):
        problem.ratio(cand)


@pytest.mark.parametrize("n, dim", [(10**13, 1), (2, 10**13)])
def test_impossible_sizes_are_refused_before_any_allocation(n, dim):
    with pytest.raises(ContractViolationError, match=r"n \* dim must be <= "):
        search("thm25_first", n, dim, 10, 0)
