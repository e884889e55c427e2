"""The benchmark's calls into the program keep working.

``bench/round.py`` reaches the program through public calls (the walks, the
per-type split, the sampler build, the loss and the embedding files). A
change that breaks one of them fails every benchmark run, so this runs the
benchmark's own layer probe on the acceptance graph, in a child that imports
the bench directory without writing into it.
"""

import json
from pathlib import Path

from conftest import run_bounded

# Argv: the bench directory and a scratch directory. Prints the probe's checks
# and counts as one JSON line.
_LAYER_PROBE = """
import json, sys
sys.dont_write_bytecode = True  # leave the bench directory as it is
sys.path.append(sys.argv[1])
from pathlib import Path
import round as bench_round
from workloads import ACCEPT
from trine.synth import planted_graph
from trine.trainer import TrainConfig, default_metapaths, train

g = planted_graph((300, 60, 30), 3, 0.3, 0.02, 1)
cfg = TrainConfig(seed=1, **{**ACCEPT.train, "epochs": 1})
store = train(g, default_metapaths(), cfg)
checks, counts, _ = bench_round.layer_probe(g, store, cfg, 1, bench_round.Spans(True), Path(sys.argv[2]))
print(json.dumps({"checks": checks, "counts": counts}))
"""


def test_layer_probe_on_the_acceptance_graph(tmp_path):
    bench = Path(__file__).resolve().parents[1] / "bench"
    (line,), _ = run_bounded(_LAYER_PROBE, str(bench), str(tmp_path))
    out = json.loads(line)
    assert out["checks"] == {"hits_fixed_point": True, "walks_follow_metapaths": True,
                             "negatives_admissible": True}
    assert set(out["counts"]) == {"walks.cut_short", "sampling.restricted_centers",
                                  "sampling.empty_centers", "sampling.bucket_entries"}
