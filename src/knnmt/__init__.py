"""Retrieval-augmented sequence decoding toolkit.

Builds a token datastore from a trained model's decoder hidden states,
interpolates retrieved-token distributions into beam decoding, trains
bottleneck adapters with the base model frozen, and provides the data
pipeline (diversification, selection, filtering, sampling) plus BLEU/WER
evaluation around a small built-in encoder-decoder.
"""

from .core import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    CorpusError,
    ParallelCorpus,
    Sentence,
    SentencePair,
    Vocab,
    build_vocab,
    load_corpus,
    read_tsv,
    tokenize,
    write_corpus,
)
from .datastore import (
    Datastore,
    IvfIndex,
    Neighbor,
    build,
    load_datastore,
    query_exact,
    query_ivf,
    save_datastore,
    train_ivf,
)
from .decode import (
    DecodeConfig,
    GridSearchResult,
    beam_decode,
    beam_decode_batch,
    fuse_lm,
    grid_search,
    interpolate,
    knn_distribution,
)
from .metrics import BleuReport, bleu, corpus_wer, edit_distance, wer
from .ngram import (
    NgramLm,
    build_seed_ngrams,
    lm_interpolate,
    lm_train,
    load_ngram_counts,
    overlap_score,
    save_ngram_counts,
    select_data,
)
from .pipeline import (
    FilterConfig,
    LeaveOneOutReport,
    SamplingConfig,
    corrupt_case_punct,
    diversify,
    filter_corpus,
    leave_one_out_eval,
    sample_languages,
    sample_weights,
    upsample,
)
from .refmodel import (
    AdapterParams,
    RefModel,
    RefModelParams,
    StepModel,
    TrainConfig,
    grad_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
