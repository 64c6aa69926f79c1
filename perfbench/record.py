"""Record the reference values the benchmark checks against.

    python3 perfbench/record.py

Computes, at the current commit, every number a seed can ask the benchmark
to check that has no closed form, and writes perfbench/reference.json.
Re-record only on a commit whose outputs are known to be right; the
benchmark exists to catch a change that moves them.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semiflow_lab import criteria, operators  # noqa: E402
from semiflow_lab.cocycle import Cocycle, resolve_cocycle  # noqa: E402
from semiflow_lab.flow import attraction, resolve_flow  # noqa: E402
from semiflow_lab.spaces import SpaceSpec  # noqa: E402

import tasks  # noqa: E402


def criterion_table(flow_spec, cocycle_spec, space_spec):
    flow = resolve_flow(flow_spec)
    cocycle = resolve_cocycle(cocycle_spec, flow)
    space = SpaceSpec.parse(space_spec)
    return {tasks.t_key(t): criteria.criterion_sample(flow, cocycle, space, t).value
            for t in tasks.verdict_t_pool()}


def main():
    start = time.perf_counter()
    ref = {"criterion": {}, "decay": {}, "section_norm": {}, "norm_lower_bound": {}}
    for space, flow, cocycle in ((tasks.H2, "attraction", "derivative"),
                                 (tasks.A2_0, "dilation", "coboundary:z")):
        ref["criterion"][f"{space}/{flow}/{cocycle}"] = criterion_table(flow, cocycle, space)
        print(f"criterion {space} {flow}/{cocycle}: {time.perf_counter() - start:.0f} s",
              flush=True)
    gflow = resolve_flow("generator-attraction")
    table = criteria.direct_decay_probe(gflow, resolve_cocycle("derivative", gflow),
                                        SpaceSpec.parse(tasks.H2))
    ref["decay"][f"{tasks.H2}/generator-attraction/derivative"] = table.entries.tolist()
    att_pair = [sg for sg in operators.gallery_semigroups()
                if sg.name == "attraction/derivative"][0]
    for space in tasks.section_spaces():
        table = ref["section_norm"][f"{space.label()}/{att_pair.name}"] = {}
        for t in tasks.SECTION_T_POOL:
            result = operators.norm2(operators.matrix(att_pair.at(t), space,
                                                      dim=tasks.SECTION_DIM))
            table[tasks.t_key(t)] = {"value": result.value, "converged": result.converged}
    att = attraction()
    op = operators.semigroup_op(att, Cocycle.derivative(att), tasks.NLB_T)
    for space in tasks.nlb_spaces():
        ref["norm_lower_bound"][space.label()] = {
            str(seed): operators.norm_lower_bound(op, space, seed=seed)
            for seed in tasks.TRIAL_SEEDS}
    tasks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {tasks.REFERENCE_PATH} in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
