"""Transition functions and forward chaining on the rule engine."""

import random

import pytest

from helpers import naive_forward_chain, reference_fact_step, wiring_masks
from latticecell import (DimensionError, EngineState, delta_fact, delta_rule,
                         load_fixture_model, render_fact_table,
                         render_rule_table, run_inference, set_facts)
from latticecell.compiler import model_from_dict, model_to_dict


def chain_engine():
    """f1 -> f2 -> f3."""
    return EngineState(["f1", "f2", "f3"], ["r1", "r2"],
                       premises=[(0,), (1,)], conclusions=[(1,), (2,)])


def test_fresh_state():
    eng = chain_engine()
    assert eng.ef == 0 and eng.sf == 0 and eng.er == 0
    assert eng.fact_if == 0b111
    assert eng.rule_ir == 0b11 and eng.sr == 0b11
    assert eng.rule_labels == ["r1", "r2"]  # kept as given
    assert repr(eng) == "EngineState(3 facts, 2 rules, ef=0x0, er=0x0)"


def test_wiring_validated():
    exceeds = "^rule {} wiring exceeds fact count$"
    with pytest.raises(DimensionError, match=exceeds.format(0)):
        EngineState(["f1"], ["r1"], premises=[(1,)], conclusions=[(0,)])
    with pytest.raises(DimensionError, match=exceeds.format(0)):
        EngineState(["f1"], ["r1"], premises=[(0,)], conclusions=[(-1,)])
    with pytest.raises(DimensionError, match="^premise/conclusion lists"):
        EngineState(["f1"], ["r1", "r2"], premises=[(0,)], conclusions=[(0,)])
    # premises are checked first: a later rule's premise is named before
    # an earlier rule's conclusion
    with pytest.raises(DimensionError, match=exceeds.format(1)):
        EngineState(["f1", "f2"], ["r1", "r2"], premises=[(0,), (2,)],
                    conclusions=[(2,), (1,)])


def test_matrices():
    eng = chain_engine()
    assert eng.premises == ((0,), (1,))
    assert eng.conclusions == ((1,), (2,))


def test_set_facts_reset_semantics():
    eng = chain_engine()
    set_facts(eng, [0, 2])
    assert eng.ef == 0b101 and eng.sf == 0
    set_facts(eng, [1])
    assert eng.ef == 0b010  # second call replaces the first
    set_facts(eng, [])
    assert eng.ef == 0
    with pytest.raises(IndexError):
        set_facts(eng, [3])


def test_delta_fact_triggers_on_full_premise():
    eng = EngineState(["a", "b", "c"], ["r"], premises=[(0, 1)],
                      conclusions=[(2,)])
    set_facts(eng, [0])
    delta_fact(eng)
    assert eng.er == 0  # one of two premises is not enough
    assert eng.sf == eng.ef
    set_facts(eng, [0, 1])
    delta_fact(eng)
    assert eng.er == 0b1


def test_delta_fact_no_facts_no_trigger():
    eng = chain_engine()
    delta_fact(eng)
    assert eng.er == 0


def test_premiseless_rule_never_self_triggers():
    eng = EngineState(["a"], ["r"], premises=[()], conclusions=[(0,)])
    run_inference(eng)
    assert eng.ef == 0 and eng.er == 0


def test_delta_rule_fires_and_consumes():
    eng = chain_engine()
    set_facts(eng, [0])
    delta_fact(eng)
    assert eng.er == 0b01
    delta_rule(eng)
    assert eng.ef == 0b011          # f2 established
    assert eng.sr == 0b10           # fired rule consumed
    # a consumed rule does not re-establish facts
    eng.ef = 0b001                  # pretend f2 was never concluded
    delta_rule(eng)
    assert eng.ef == 0b001


def test_delta_rule_without_triggers():
    eng = chain_engine()
    delta_rule(eng)
    assert eng.ef == 0
    assert eng.sr == 0b11


def test_inactive_rule_and_fact():
    eng = EngineState(["a", "b"], ["r"], premises=[(0,)], conclusions=[(1,)])
    set_facts(eng, [0])
    eng.rule_ir = 0                 # rule withdrawn from inference
    run_inference(eng)
    assert eng.ef == 0b01
    eng2 = EngineState(["a", "b"], ["r"], premises=[(0,)], conclusions=[(1,)])
    set_facts(eng2, [0])
    eng2.fact_if = 0b01             # conclusion fact cannot participate
    run_inference(eng2)
    assert eng2.ef == 0b01


def test_chain_two_cycles():
    eng = chain_engine()
    set_facts(eng, [0])
    run_inference(eng)
    assert eng.ef == 0b111
    assert eng.cycles == 3          # two productive cycles + stability check
    assert eng.cycles <= eng.n_rules + 1


def test_no_initial_facts_is_fixpoint():
    eng = chain_engine()
    run_inference(eng)
    assert eng.cycles == 1
    assert eng.ef == 0 and eng.er == 0


def test_fixture_inference_matches_reference_tables():
    model = load_fixture_model()
    eng = model.engine_template
    labels = eng.fact_labels
    activated = [labels.index("[Puissance, Ministre]"),
                 labels.index("[Visage, Puissance, Ministre]")]
    set_facts(eng, activated)
    # initial fact layer: EF on the two intents, IF everywhere, SF nowhere
    assert eng.ef == (1 << activated[0]) | (1 << activated[1])
    assert eng.fact_if == (1 << 12) - 1
    assert eng.sf == 0

    delta_fact(eng)
    triggered = [j for j in range(eng.n_rules) if (eng.er >> j) & 1]
    assert triggered == [2, 3]      # exactly the rules fed by those intents
    assert all((eng.er >> j) & 1 == 0 for j in range(6) if j not in triggered)

    delta_rule(eng)
    extents = {i for i, _ in model.extent_facts if (eng.ef >> i) & 1}
    assert {labels[i].split(" ")[0].lstrip("[") for i in extents} == {"S4", "S5"}
    # previously established values preserved
    assert all((eng.ef >> i) & 1 for i in activated)


def test_monotonicity_random():
    rnd = random.Random(5)
    for _ in range(50):
        eng = random_engine(rnd)
        seen_ef, seen_er = eng.ef, eng.er
        for _ in range(eng.n_rules + 1):
            delta_fact(eng)
            delta_rule(eng)
            assert eng.ef & seen_ef == seen_ef
            assert eng.er & seen_er == seen_er
            seen_ef, seen_er = eng.ef, eng.er


def random_engine(rnd, max_facts=10, max_rules=10, max_premises=3):
    n_facts = rnd.randint(1, max_facts)
    n_rules = rnd.randint(1, max_rules)
    premises = []
    conclusions = []
    for _ in range(n_rules):
        k = rnd.randint(1, min(max_premises, n_facts))
        premises.append(tuple(rnd.sample(range(n_facts), k)))
        conclusions.append((rnd.randrange(n_facts),))
    eng = EngineState([f"f{i}" for i in range(n_facts)],
                      [f"r{j}" for j in range(n_rules)], premises, conclusions)
    set_facts(eng, [i for i in range(n_facts) if rnd.random() < 0.3])
    return eng


def test_worklist_oracle_equivalence_random():
    rnd = random.Random(6)
    for _ in range(100):
        eng = random_engine(rnd)
        initial = eng.ef
        run_inference(eng)
        expected = naive_forward_chain(eng.n_facts, *wiring_masks(eng),
                                       initial)
        assert eng.ef == expected
        assert eng.cycles <= eng.n_rules + 1


def test_partial_participation_matches_full_scan_random():
    """Hand-edited IF, IR, ER and SF: each fact step equals a full scan."""
    rnd = random.Random(8)
    for _ in range(200):
        eng = random_engine(rnd, max_facts=14, max_rules=14, max_premises=4)
        eng.fact_if = rnd.getrandbits(eng.n_facts)
        eng.rule_ir = rnd.getrandbits(eng.n_rules)
        eng.er = rnd.getrandbits(eng.n_rules) & rnd.getrandbits(eng.n_rules)
        eng.sf = rnd.getrandbits(eng.n_facts)
        for _ in range(eng.n_rules + 2):
            expected = reference_fact_step(eng)
            delta_fact(eng)
            assert (eng.sf, eng.er) == expected
            delta_rule(eng)

        eng = random_engine(rnd, max_facts=14, max_rules=14, max_premises=4)
        fact_if = rnd.getrandbits(eng.n_facts)
        rule_ir = rnd.getrandbits(eng.n_rules)
        eng.fact_if, eng.rule_ir = fact_if, rule_ir
        initial = eng.ef
        run_inference(eng)
        expected = naive_forward_chain(eng.n_facts, *wiring_masks(eng),
                                       initial, fact_if, rule_ir)
        assert eng.ef & fact_if == expected
        assert eng.ef & ~fact_if == initial & ~fact_if


def test_render_tables():
    eng = chain_engine()
    set_facts(eng, [0])
    fact_table = render_fact_table(eng)
    lines = fact_table.splitlines()
    assert lines[0].split() == ["Facts", "EF", "IF", "SF"]
    assert lines[1].split() == ["f1", "1", "1", "0"]
    rule_table = render_rule_table(eng)
    assert rule_table.splitlines()[0].split() == ["Rules", "ER", "IR", "SR"]
    assert rule_table.splitlines()[1].split() == ["r1", "0", "1", "1"]


def test_trace_snapshots():
    eng = chain_engine()
    set_facts(eng, [0])
    trace = []
    run_inference(eng, trace)
    assert len(trace) == eng.cycles + 1
    assert "Facts" in trace[0] and "Rules" in trace[0]


def test_a_loaded_shared_premise_fires_both_rules():
    """A model file may give two rules one premise fact; establishing it
    fires both."""
    data = model_to_dict(load_fixture_model())
    data["rules"].append({"premise": 4, "conclusion": 1})
    state = model_from_dict(data).engine_template
    set_facts(state, [4])
    run_inference(state)
    assert state.er == 1 << 2 | 1 << 6
