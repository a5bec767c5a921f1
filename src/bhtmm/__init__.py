"""Bottom-up hidden tree Markov models.

Generative models over positional labelled trees whose hidden state at
each node depends on the joint states of its children. The exponential
joint transition table is represented either through a hard-clustered
tensor factorisation (``tf``), trained by an annealed Gibbs sampler
that also learns the per-slot cluster counts, or through the
switching-parent mixture baseline (``sp``).
"""

from .errors import BhtmmError, ConfigError, DomainError, ParseError, StructureError
from .trees import (
    LabelledTree, PackedCorpus, TreeBuilder, TreeCorpus, format_corpus, parse_corpus,
)
from .model import HyperParams, load_checkpoint, save_checkpoint
from .inference import marginal_log_likelihood, node_label_marginals
from .gibbs import train
from .tasks import eval_classification, eval_labelling, train_classifier, train_model

__version__ = "0.1.0"
