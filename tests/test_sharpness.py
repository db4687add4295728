import hashlib

import numpy as np
import pytest

from grussbounds import (
    ContractViolationError, HypothesisError, ProbabilityVector, SoundnessError, TARGETS, extremal_thm23, search,
)
from grussbounds.sharpness import HOLDER_P, RESTART_SIZE, _Problem
from grussbounds.space import COLUMN_ROWS


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
def test_search_validates_the_weights_of_a_stack_at_once(monkeypatch, target):
    built = []
    original = ProbabilityVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ProbabilityVector, "__post_init__", counting)
    result = search(target, 4, 2, 300, seed=2)
    assert result.trials == 300
    assert len(built) == 2  # the uniform weights at set-up and the witness's weights
    # the stack's weights are those a ProbabilityVector of each candidate's weights holds, bit for bit
    problem, rng = _Problem(target, 4, 2), np.random.default_rng(2)
    best = problem.initial(rng)
    stack = problem.apply(best, [problem.draw(rng) for _ in range(40)], [0.4] * 20 + [0.2] * 20)
    weights, valid = problem._weight_rows(stack)
    assert valid.all()
    for k in range(40):
        assert weights[k].tobytes() == ProbabilityVector(stack["p"][k]).weights.tobytes()


@pytest.mark.parametrize("target", list(TARGETS))
@pytest.mark.parametrize("n, dim", [(n, dim) for n in (2, 3, 8, 33) for dim in (1, 2, 3, 8)])
def test_search_equals_the_one_candidate_climb(target, n, dim):
    # budgets that are no multiple of the stack size (the next test takes budgets above one restart)
    from grussbounds import instancefile

    import sequential

    def digest(witness):
        return hashlib.sha256(instancefile.dumps(witness).encode()).hexdigest()

    for seed, budget in ((0, 1), (1, 2), (2, 37), (3, 150 + n)):
        result = search(target, n, dim, budget, seed)
        ratio, witness, trials = sequential.search(target, n, dim, budget, seed)
        assert (result.achieved_ratio.hex(), digest(result.witness), result.trials) == (ratio.hex(), digest(witness), trials)


@pytest.mark.parametrize("target, n, dim, seed", [
    ("thm23_first", 2, 1, 5), ("thm23_second", 3, 2, 6), ("rem24_final", 2, 1, 7), ("thm25_first", 8, 3, 8),
    ("fd_equal_weights_max", 3, 2, 9),
])
def test_search_above_one_restart_equals_the_one_candidate_climb(target, n, dim, seed):
    import sequential

    budget = RESTART_SIZE + 523
    result = search(target, n, dim, budget, seed)
    ratio, witness, trials = sequential.search(target, n, dim, budget, seed)
    assert (result.achieved_ratio.hex(), result.witness, result.trials) == (ratio.hex(), witness, trials)


@pytest.mark.parametrize("n, dim", [(600, 3), (520, 2)])
def test_stacks_summed_column_by_column_give_the_one_candidate_stream(n, dim):
    # from COLUMN_ROWS rows, 2 to 7 columns, the distances and pairings of a stack are summed column by column
    import sequential

    assert n >= COLUMN_ROWS
    for target in TARGETS:
        assert _Problem(target, n, dim).batch == 2
        result = search(target, n, dim, 23, 1)
        ratio, witness, trials = sequential.search(target, n, dim, 23, 1)
        assert (result.achieved_ratio.hex(), result.witness, result.trials) == (ratio.hex(), witness, trials)


def _first_accepted(problem, stack, best_ratio):
    """The index at which the climb cuts ``stack`` (None when it accepts no candidate)."""
    for k, value in enumerate(problem.ratios(stack)):
        if value > best_ratio:
            return k
    return None


def _stack(target, size=6):
    problem = _Problem(target, 3, 2)
    rng = np.random.default_rng(3)
    best = problem.initial(rng)
    return problem, problem.apply(best, [problem.draw(rng) for _ in range(size)], [0.1] * size)


@pytest.mark.parametrize("target", ["thm23_first", "rem24_final", "thm25_first"])
def test_a_gate_violation_after_the_cut_is_not_evaluated(target):
    problem, stack = _stack(target)
    stack["xs"][4, 1] = [0.0, 1.5]
    assert _first_accepted(problem, stack, -np.inf) == 0


@pytest.mark.parametrize("target", ["thm23_first", "rem24_final", "thm25_first"])
@pytest.mark.parametrize("bad", [0, 4])
def test_a_gate_violation_at_or_before_the_cut_raises(target, bad):
    problem, stack = _stack(target)
    stack["xs"][bad, 1] = [0.0, 1.5]
    with pytest.raises(HypothesisError, match="ball condition on xs fails at index 1"):
        _first_accepted(problem, stack, -np.inf if bad == 0 else np.inf)


def _breaking(problem, marker):
    """``problem`` with its link divided by 10**6 on the candidates whose first entry is ``marker``."""
    from dataclasses import replace

    from grussbounds.bounds import Link

    index = problem.info.link_index
    link = problem.spec.links[index]
    broken = Link(link.label, link.equation,
                  lambda s: link.formula(s) * np.where(s.arrays["xs"][..., 0, 0] == marker, 1e-6, 1.0))
    problem.spec = replace(problem.spec, links=problem.spec.links[:index] + (broken,) + problem.spec.links[index + 1:])
    return problem


@pytest.mark.parametrize("target", ["thm23_first", "thm25_first"])
def test_a_guard_violation_after_the_cut_is_not_evaluated(target):
    problem, stack = _stack(target)
    stack["xs"][3, 0, 0] = 0.125
    assert _first_accepted(_breaking(problem, 0.125), stack, -np.inf) == 0


@pytest.mark.parametrize("target", ["thm23_first", "thm25_first"])
@pytest.mark.parametrize("bad", [0, 3])
def test_a_guard_violation_at_or_before_the_cut_raises(target, bad):
    problem, stack = _stack(target)
    stack["xs"][bad, 0, 0] = 0.125
    with pytest.raises(SoundnessError, match=f"target {target}: ratio .* exceeds 1 \\+ 1e-09"):
        _first_accepted(_breaking(problem, 0.125), stack, -np.inf if bad == 0 else 2.0)


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

    import sequential
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
        chain, _ = evaluate_tag(inst, problem.info.equation, fit=False, check=True, holder_p=None)
        assert (len(seen), seen[-1].hex()) == (step + 1, chain.links[index].value.hex())
        cand = sequential.propose(problem, rng, cand, 0.3 if step % 2 else 0.05)


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


@pytest.mark.parametrize("batch", [1, 2, 5])
def test_every_stack_size_gives_the_one_candidate_stream(monkeypatch, batch):
    from grussbounds import sharpness

    import sequential

    monkeypatch.setattr(sharpness, "BATCH", batch)
    monkeypatch.setattr(sharpness, "BATCH_ENTRIES", 10**6)
    for target in TARGETS:
        result = search(target, 3, 2, 61, 4)
        ratio, witness, trials = sequential.search(target, 3, 2, 61, 4)
        assert (result.achieved_ratio.hex(), result.witness, result.trials) == (ratio.hex(), witness, trials)
