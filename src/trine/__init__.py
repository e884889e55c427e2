"""Tripartite heterogeneous network embedding and link-prediction toolkit."""

from .centrality import CentralityScores, hits, walk_budget
from .errors import (ConfigError, EdgeListError, EmbeddingFileError, EmptyGraphError, EvalError,
                     NonFiniteError, SamplerError, SchemaError, TrineError)
from .evaluation import (EvalReport, LinkDataset, auc_pr, auc_roc, evaluate,
                         evaluate_end_to_end, f1_score, kfold_split, make_link_dataset,
                         train_classifier)
from .graph import (DEFAULT_SCHEMA, RELATION_NAMES, RELATIONS, Edge, Metapath, Node, Schema,
                    TripartiteGraph, load_edge_list)
from .sampling import NegativeSampler
from .synth import planted_graph, write_edge_list
from .trainer import (EmbeddingStore, LossReport, TrainConfig, compute_loss,
                      default_metapaths, explicit_update, implicit_update,
                      init_embeddings, load_embeddings, save_embeddings, sigmoid,
                      train)
from .walks import TypedCorpus, WalkCorpus, filter_by_type, generate_corpus, window_pairs

__version__ = "0.1.0"
