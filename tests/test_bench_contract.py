"""The benchmark's calls into the program keep working.

``bench/round.py`` reaches the program through public calls (the walks, the
per-type split, the sampler build, the loss, the embedding files and the
link features). A change that breaks one of them fails every benchmark run,
so this runs the benchmark's own layer probe and fold scoring on the
acceptance graph, in a child that imports the bench directory without
writing into it. ``bench/plant.py`` takes the user activities of
``trine.synth``, so the child also draws them through it.
"""

import json
from pathlib import Path

from conftest import run_bounded

# Argv: the bench directory and a scratch directory. Prints the probe's checks
# and counts, then fold 0's held-out edge count and its AUC-ROC from the
# trained store and from that store after an embedding-file round trip (the
# cli probe's path), and the mean of plant.py's user activities, as one JSON line.
_LAYER_PROBE = """
import json, sys
sys.dont_write_bytecode = True  # leave the bench directory as it is
sys.path.append(sys.argv[1])
from pathlib import Path
import plant
import round as bench_round
from workloads import ACCEPT, CLI_FOLDS, RELATION
from trine.graph import RELATION_NAMES
from trine.synth import planted_graph
from trine.trainer import TrainConfig, default_metapaths, load_embeddings, save_embeddings, train

g = planted_graph((300, 60, 30), 3, 0.3, 0.02, 1)
cfg = TrainConfig(seed=1, **{**ACCEPT.train, "epochs": 1})
store = train(g, default_metapaths(), cfg)
sp = bench_round.Spans(True)
checks, counts, _ = bench_round.layer_probe(g, store, cfg, 1, sp, Path(sys.argv[2]))
relation = RELATION_NAMES.index(RELATION)
ds, fold_of = bench_round._split(g, relation, 1, CLI_FOLDS, sp)
test = fold_of == 0
held_out = bench_round._held_out(ds, test)
g_fold = g.without_edges(relation, held_out)
path = Path(sys.argv[2]) / "emb.txt"
save_embeddings(store, path, str(path) + ".ctx")
loaded = load_embeddings(path, g.schema, str(path) + ".ctx").reindexed_to(g)
rocs = [bench_round._fold_scores(s, relation, ds, test, sp)[1] for s in (store, loaded)]
print(json.dumps({"checks": checks, "counts": counts, "held_out": len(held_out),
                  "removed": g.num_edges - g_fold.num_edges, "auc_roc": rocs,
                  "activity_mean": float(plant.activities(0, 10).mean())}))
"""


def test_layer_probe_on_the_acceptance_graph(tmp_path):
    bench = Path(__file__).resolve().parents[1] / "bench"
    (line,), _ = run_bounded(_LAYER_PROBE, str(bench), str(tmp_path))
    out = json.loads(line)
    assert out["checks"] == {"hits_fixed_point": True, "walks_follow_metapaths": True,
                             "negatives_admissible": True}
    assert set(out["counts"]) == {"walks.cut_short", "sampling.restricted_centers",
                                  "sampling.empty_centers", "sampling.bucket_entries"}
    assert out["removed"] == out["held_out"] > 0
    trained, reloaded = out["auc_roc"]
    assert 0.5 < trained < 1.0
    # the file keeps 9 significant digits
    assert abs(trained - reloaded) <= 1e-6
    assert abs(out["activity_mean"] - 1.0) < 1e-12
