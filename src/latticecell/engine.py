"""Boolean two-layer rule engine (fact cells + rule cells).

The engine is a synchronous cellular machine. The fact layer carries one
cell per fact with bits EF (established), IF (participates), SF (output
copy); the rule layer carries ER (triggered), IR (participates), SR (may
still fire). Two incidence matrices wire the layers: RE marks which facts
are premises of which rules, RS marks conclusions. Forward chaining
alternates the two transition steps until nothing changes:

* fact step: SF := EF; a participating rule whose premises are all
  established becomes triggered (rules keep their trigger bit; rules with
  no premises never self-trigger).
* rule step: every triggered, participating, still-fireable rule
  establishes its conclusion facts; fired rules are consumed (SR := not ER).

EF and ER only ever grow, so a fixpoint is reached within |rules| + 1
cycles. The six layers are int bitsets. The wiring is RE and RS
column-wise, as each rule's premise and conclusion fact indices, so its
size is linear in the incidences. The fact step is the paper's scan: it
checks the premises of every rule against the established facts, and
masks the satisfied rules with IR.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .bits import iter_bits
from .errors import DimensionError


class EngineState:
    """Mutable engine state: one fact layer, one rule layer, RE/RS wiring.

    Built from:

    * ``fact_labels`` and ``rule_labels``: one display label per fact and
      per rule. Their lengths are the fact and rule counts. Only the
      snapshot tables read the labels, and they are kept as given, so a
      sequence that formats its labels on first read stays unformatted
      until something renders a table.
    * ``premises[j]`` and ``conclusions[j]``: the fact indices of rule j's
      premises and conclusions (column j of RE and RS), each in
      ``range(len(fact_labels))``.

    Freshly built rules are (ER, IR, SR) = (0, 1, 1) and all facts
    participate.
    """

    __slots__ = ("fact_labels", "rule_labels", "premises", "conclusions",
                 "ef", "fact_if", "sf", "er", "rule_ir", "sr", "cycles")

    def __init__(self, fact_labels: Sequence[str], rule_labels: Sequence[str],
                 premises: Sequence[Sequence[int]],
                 conclusions: Sequence[Sequence[int]]):
        if len(premises) != len(rule_labels) or len(conclusions) != len(rule_labels):
            raise DimensionError("premise/conclusion lists must match rule count")
        n_facts = len(fact_labels)
        self.premises = tuple(map(tuple, premises))
        self.conclusions = tuple(map(tuple, conclusions))
        for wiring in (self.premises, self.conclusions):
            for j, facts in enumerate(wiring):
                if facts and not (0 <= min(facts) and max(facts) < n_facts):
                    raise DimensionError(f"rule {j} wiring exceeds fact count")
        self.fact_labels = fact_labels
        self.rule_labels = rule_labels
        self.ef = 0
        self.sf = 0
        self.fact_if = (1 << n_facts) - 1
        self.er = 0
        self.rule_ir = (1 << len(rule_labels)) - 1
        self.sr = (1 << len(rule_labels)) - 1
        self.cycles = 0

    @property
    def n_facts(self) -> int:
        return len(self.fact_labels)

    @property
    def n_rules(self) -> int:
        return len(self.rule_labels)

    def __repr__(self) -> str:
        return (f"EngineState({self.n_facts} facts, {self.n_rules} rules, "
                f"ef={self.ef:#x}, er={self.er:#x})")


def set_facts(state: EngineState, indices: Iterable[int]) -> EngineState:
    """Activate exactly the given facts and rearm every rule.

    Listed facts get EF = IF = 1; every other EF is cleared; SF is cleared;
    rules return to the fresh (0, 1, 1) state. Calling again replaces the
    previous activation.
    """
    mask = 0
    for i in indices:
        if not 0 <= i < state.n_facts:
            raise IndexError(f"fact index {i} out of range "
                             f"(0..{state.n_facts - 1})")
        mask |= 1 << i
    state.ef = mask
    state.fact_if |= mask
    state.sf = 0
    state.er = 0
    rule_full = (1 << state.n_rules) - 1
    state.rule_ir = rule_full
    state.sr = rule_full
    state.cycles = 0
    return state


def delta_fact(state: EngineState) -> EngineState:
    """Evaluation step: copy EF to SF and trigger satisfied rules.

    Every rule is checked: one with a premise, all of whose premises are
    established, is satisfied, and ER := ER or (IR and satisfied).
    """
    state.sf = state.ef
    established = set(iter_bits(state.ef & state.fact_if))
    satisfied = 0
    for j, premises in enumerate(state.premises):
        if premises and established.issuperset(premises):
            satisfied |= 1 << j
    state.er |= satisfied & state.rule_ir
    return state


def delta_rule(state: EngineState) -> EngineState:
    """Execution step: fire triggered rules, then consume them."""
    firing = state.er & state.rule_ir & state.sr
    new_facts = 0
    for j in iter_bits(firing):
        for f in state.conclusions[j]:
            new_facts |= 1 << f
    state.ef |= new_facts & state.fact_if
    state.sr = ~state.er & ((1 << state.n_rules) - 1)
    return state


def run_inference(state: EngineState, trace: list[str] | None = None) -> EngineState:
    """Alternate the two steps until EF and ER are stable over a full cycle.

    ``state.cycles`` records how many cycles ran (the last one is the
    confirming, change-free cycle). With a trace list, a snapshot of both
    layers is appended before the run and after every cycle.
    """
    if trace is not None:
        trace.append(render_snapshot(state))
    cycles = 0
    while True:
        before = (state.ef, state.er)
        delta_fact(state)
        delta_rule(state)
        cycles += 1
        if trace is not None:
            trace.append(render_snapshot(state))
        if (state.ef, state.er) == before:
            break
    state.cycles = cycles
    return state


def _render_layer(title: str, labels: Sequence[str], layers: dict[str, int]) -> str:
    """One layer as an aligned text table: a label column, then one 0/1
    column per named bitset (bit i belongs to ``labels[i]``)."""
    width = max(map(len, (title, *labels)))
    lines = [f"{title:<{width}}" + "".join(f"  {name}" for name in layers)]
    for i, label in enumerate(labels):
        lines.append(f"{label:<{width}}"
                     + "".join(f"  {mask >> i & 1:>2}" for mask in layers.values()))
    return "\n".join(lines)


def render_fact_table(state: EngineState) -> str:
    """Fact layer as an aligned text table (label, EF, IF, SF)."""
    return _render_layer("Facts", state.fact_labels,
                         {"EF": state.ef, "IF": state.fact_if, "SF": state.sf})


def render_rule_table(state: EngineState) -> str:
    """Rule layer as an aligned text table (label, ER, IR, SR)."""
    return _render_layer("Rules", state.rule_labels,
                         {"ER": state.er, "IR": state.rule_ir, "SR": state.sr})


def render_snapshot(state: EngineState) -> str:
    return render_fact_table(state) + "\n\n" + render_rule_table(state)
