"""Multimodal outfit compatibility with attention-based fusion."""

from .compatibility import (COMP, SIM, VSE, LossWeights, pair_score,
                            training_loss, triplet_loss)
from .data import (Dataset, Dims, FCQuestion, FITBQuestion, Item, ItemType,
                   Outfit, SyntheticSpec, canonical_pair, filter_questions,
                   generate_synthetic, load_dataset, save_dataset)
from .diagnostics import full_loss_grad_check
from .embedding import (CommonSpaceProjector, init_projector,
                        project_regions, project_words)
from .evaluation import (MetricsReport, compute_representations, evaluate,
                         fc_auc, fitb_answer, fitb_answers, vote)
from .fusion import (attend_text, fuse_coattention, fuse_dot_product,
                     fuse_stacked, mfb)
from .model import (FUSION_KINDS, ModelDims, OutfitModel, init_model,
                    item_features, load_model, save_model)
from .optim import Adam, GradCheckReport, grad_check
from .tensor import (Tensor, attention_pool, concat, linear, mfb_pool,
                     named_parameters, no_grad, parameter, pool_rows, softmax)
from .training import (EpochStats, TrainConfig, sample_triplets, train,
                       train_ensemble)

__version__ = "0.1.0"
