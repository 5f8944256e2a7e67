"""Joint-space multilingual word embeddings from sentence-aligned parallel text.

Word vectors compose into sentence (and document) representations; training
pushes aligned representations together and sampled noise apart with a
margin hinge over squared Euclidean distance, optimized by minibatch
AdaGrad. Evaluation covers cross-lingual document classification and
nearest-neighbor queries.
"""

from .composition import CompositionKind, backprop, compose
from .corpus import (
    DocumentCorpus,
    LabeledDocument,
    ParallelCorpus,
    ParallelPair,
    Sentence,
    load_document_pairs,
    load_documents,
    load_parallel,
    tokenize,
)
from .embeddings import (
    EmbeddingTable,
    ModelBundle,
    Vocabulary,
    build_vocab,
    export_table,
    import_table,
    init_table,
    nearest_neighbors,
)
from .errors import JointvecError
from .evaluation import (
    EvalReport,
    PerceptronModel,
    cldc_run,
    doc_representation,
    micro_f1,
    train_multiclass,
    train_multilabel,
    transfer_matrix,
)
from .objective import LossBreakdown, doc_loss_and_grads, energy, pair_loss_and_grads
from .training import (
    AdaGradState,
    TrainConfig,
    TrainReport,
    adagrad_apply,
    checkpoint,
    resume,
    train_joint,
)

__version__ = "0.1.0"
