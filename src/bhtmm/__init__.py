"""Bottom-up hidden tree Markov models.

Generative models over positional labelled trees whose hidden state at
each node depends on the joint states of its children. The exponential
joint transition table is represented either through a hard-clustered
tensor factorisation (``tf``), trained by an annealed Gibbs sampler
that also learns the per-slot cluster counts, or through the
switching-parent mixture baseline (``sp``).
"""

from .errors import (
    BhtmmError,
    ConfigError,
    DomainError,
    ParseError,
    StructureError,
)
from .trees import (
    LabelledTree,
    PackedCorpus,
    TreeBuilder,
    TreeCorpus,
    format_corpus,
    parse_corpus,
)
from .model import (
    HardClustering,
    HyperParams,
    SpModelParams,
    StorageCost,
    TfModelParams,
    init_params,
    load_checkpoint,
    reconstruct_transition,
    save_checkpoint,
    size_prior_log,
    storage_cost,
)
from .inference import (
    LatentAssignment,
    ancestral_sample,
    complete_log_likelihood,
    marginal_log_likelihood,
    node_label_marginals,
)
from .gibbs import (
    ChainState,
    Latents,
    SufficientStats,
    crp_table_count,
    latent_acceptance,
    marginal_likelihood_k,
    propose_latents,
    propose_size_move,
    resample_base_measure,
    resample_parameters,
    size_acceptance,
    temperature,
    train,
)
from .sp import (
    init_sp_params,
    sp_marginal_log_likelihood,
    sp_node_label_marginals,
    sp_train,
    sp_transition,
)
from .tasks import (
    ClassifierBundle,
    EvalReport,
    class_posterior,
    classify,
    entropy_pct,
    eval_classification,
    eval_labelling,
    generate_synthetic,
    stratified_split,
    train_classifier,
    train_model,
)

__version__ = "0.1.0"
