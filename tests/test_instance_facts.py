"""Integer facts about an instance: `Instance.scale` and `factors` (the
common denominator and each agent's multiplier to it, cached),
`Instance.rows` (every kernel split into additive weights and explicit
tables, over the common scale on request, built anew on each call), an
allocation's bitmasks (`Allocation.masks`, `from_masks`, `owners`) and
`Instance.require_monotone()`, whose pass is remembered."""

import pickle
import random
from collections import Counter

import pytest

import fairdiv.ef1
import fairdiv.envy_cycle
import fairdiv.experiment
import fairdiv.mms
import fairdiv.model
import fairdiv.oracles
from fairdiv import (Allocation, Instance, ValidationError, Valuation,
                     generate, run_ef1_abs, run_extend_ef1, run_solve_ef1,
                     run_solve_half_mms)
from fairdiv.experiment import ExperimentConfig, _solver_row
from fairdiv.model import owners

from conftest import (diagonal, naive_common_ints, random_allocation,
                      tie_corpus, twin_corpus)


def corpus():
    return tie_corpus(120, seed=19) + twin_corpus(120, seed=29)


def kinds(inst):
    found = {v.kind for v in inst.valuations}
    return found.pop() if len(found) == 1 else "mixed"


def test_scale_factors_and_rows_match_reference():
    seen = Counter()
    for inst in corpus():
        want_rows, want_scale = naive_common_ints(inst.valuations)
        assert inst.scale == want_scale
        assert inst.factors == tuple(want_scale // v.den
                                     for v in inst.valuations)
        additive = [v.kind == "additive" for v in inst.valuations]
        for common, want in ((False, [list(v.kernel)
                                      for v in inst.valuations]),
                             (True, want_rows)):
            weights, tables = inst.rows(common=common)
            assert [list(w if add else t) for w, t, add
                    in zip(weights, tables, additive)] == want
            assert [w is None for w in weights] == \
                [t is not None for t in tables] == [not a for a in additive]
        seen[kinds(inst)] += 1
        seen["rescaled"] += any(v.den != inst.scale for v in inst.valuations)
    assert min(seen[k] for k in ("additive", "explicit", "mixed")) >= 30
    assert seen["rescaled"] >= 30


def test_masks_owners_round_trip():
    rng = random.Random(37)
    partial = 0
    for inst in corpus():
        for _ in range(3):
            alloc = random_allocation(rng, inst.n, inst.m)
            masks = alloc.masks
            assert masks == [sum(1 << g for g in b) for b in alloc.bundles]
            assert Allocation.from_masks(masks) == alloc
            owner = owners(masks, inst.m)
            assert owner == [next((j for j, b in enumerate(alloc.bundles)
                                   if g in b), inst.n)
                             for g in range(inst.m)]
            assert Allocation.of([[g for g in range(inst.m) if owner[g] == j]
                                  for j in range(inst.n)]) == alloc
            partial += not alloc.is_complete(inst.m)
    assert partial >= 100


def test_cached_facts_leave_equality_hash_and_pickle_alone():
    for inst in corpus()[:80]:
        fresh = Instance(inst.n, inst.m, inst.valuations, inst.scaled)
        before = hash(inst)
        assert inst.scale == fresh.scale
        assert inst.factors == fresh.factors
        assert "scale" in inst.__dict__ and "factors" in inst.__dict__
        try:
            inst.require_monotone()
        except ValidationError:
            pass
        assert inst == fresh and hash(inst) == hash(fresh) == before
        for original in (inst, fresh):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == inst and hash(copy) == before


@pytest.mark.parametrize("valuations", [
    (Valuation.additive([1, 2]), Valuation.additive([1, -1]),
     Valuation.additive([-2, 0])),
    (Valuation.additive([1, 2]),
     Valuation.explicit(2, {frozenset({0}): 2, frozenset({1}): 1,
                            frozenset({0, 1}): 1})),
], ids=["additive", "explicit"])
def test_non_monotone_instance_raises_the_same_error_every_call(valuations):
    inst = Instance(len(valuations), 2, valuations)
    errors = []
    for call in (inst.require_monotone, inst.require_monotone,
                 lambda: run_ef1_abs(inst), lambda: run_ef1_abs(inst)):
        with pytest.raises(ValidationError) as info:
            call()
        errors.append(info.value)
    first = errors[0]
    assert first.agent == 2
    for error in errors[1:]:
        assert (str(error), error.axiom, error.agent, error.witness) == \
            (str(first), first.axiom, first.agent, first.witness)


@pytest.fixture()
def counts(monkeypatch):
    """Counts common-scale row builds (`Instance.rows(common=True)`) and
    per-agent monotonicity checks, however a module reaches
    `check_monotone`."""
    seen = Counter()
    rows = Instance.rows

    def counted_rows(inst, common=False):
        if common:
            seen["common"] += 1
        return rows(inst, common)

    monkeypatch.setattr(Instance, "rows", counted_rows)
    check = fairdiv.model.check_monotone

    def counted_check(v, agent):
        seen["monotone"] += 1
        check(v, agent)

    for module in (fairdiv.model, fairdiv.ef1, fairdiv.envy_cycle):
        monkeypatch.setattr(module, "check_monotone", counted_check,
                            raising=False)
    return seen


def test_no_build_and_one_scan_per_ef1_solve(counts):
    # The matching scales each agent's singles by one factor, and the
    # additive reference optimum compares across agents by cross-multiplying,
    # so no kernel is rescaled whole.
    for inst in (generate("random", 5, 20, distribution="dirichlet-scaled",
                          seed=3),
                 generate("random", 4, 9, distribution="uniform-rational",
                          seed=4)):
        counts.clear()
        run = run_solve_ef1(inst)
        # Scaled: abs, the reference optimum, high and two extensions.
        assert (run.high_run is not None) == inst.scaled
        assert counts == {"monotone": inst.n}
        counts.clear()
        run_extend_ef1(inst, Allocation.of([[]] * inst.n))
        assert counts == {}
    # The exhaustive search does build them, once per call.
    fairdiv.oracles.constrained_opt(diagonal(3), "ef1")
    assert counts == {"common": 1}


def test_no_build_per_half_mms_solve(counts):
    # Half-MMS adds no values across agents, and needs no monotonicity scan:
    # its agents are additive.
    for inst, branch in ((generate("random", 5, 20,
                                   distribution="dirichlet-scaled", seed=3),
                          "abs"), (diagonal(26), "high")):
        counts.clear()
        assert run_solve_half_mms(inst).branch == branch
        assert counts == {}


def test_one_mms_profile_per_half_mms_row(monkeypatch):
    calls = []
    profile = fairdiv.oracles.mms_profile

    def counted(*args, **kwargs):
        calls.append(args[0])
        return profile(*args, **kwargs)

    for module in (fairdiv.experiment, fairdiv.mms, fairdiv.oracles):
        monkeypatch.setattr(module, "mms_profile", counted)
    inst = diagonal(26)
    row = _solver_row("diagonal", inst, "half-mms",
                      ExperimentConfig.from_json({}),
                      fairdiv.oracles.max_welfare(inst)[1],
                      sum(map(inst.total_value, range(inst.n))))
    assert row["_trace"]["branch"] == "high"
    assert row["half_mms_holds"] == "pass"
    assert row["constrained_welfare"] == "skipped"      # 26^26 leaves
    assert calls == [inst]


def test_one_max_welfare_per_instance(monkeypatch):
    # Every solver row of an instance shares its OPT. The solvers' own calls
    # go through `fairdiv.ef1` and `fairdiv.mms`, so they are not counted.
    calls = []
    opt = fairdiv.experiment.max_welfare

    def counted(inst, *args, **kwargs):
        calls.append((inst.n, inst.m))
        return opt(inst, *args, **kwargs)

    monkeypatch.setattr(fairdiv.experiment, "max_welfare", counted)
    report = fairdiv.experiment.run_experiment({"families": [
        {"family": "ef1-unscaled", "n": [2, 3]},
        {"family": "random-subadditive", "n": [2], "m": [4]}]})
    assert calls == [(2, 2), (3, 3), (2, 4)]
    opts = [row["opt"] for row in report.rows]
    assert opts[:4] == ["4", "4", "9", "9"] and opts[4] == opts[5] != "skipped"
