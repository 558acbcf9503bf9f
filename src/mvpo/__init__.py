"""AMVP codec model, motion-vector embedders, and a predictor-optimality analyzer."""

__version__ = "0.1.0"

from .analyzer import (
    FeatureReport,
    Verdict,
    classify,
    is_locally_optimal,
    iter_pu_checks,
    optimal_rate,
)
from .codec import (
    MvField,
    block_sums,
    decode_walk,
    derive_candidates,
    encode_sequence,
    motion_estimate,
    reconstruct_mvs,
    seed_candidate,
    select_mvp,
    window_table,
)
from .core import (
    CandidatePair,
    MotionVector,
    Mvd,
    RdParams,
    ZERO_MV,
    motion_lambda,
    rate_of,
    se_bits,
    ue_bits,
)
from .errors import InputError, MalformedStreamError, MvpoError
from .formats import (
    YuvSpec,
    iter_yuv_lumas,
    load_stream,
    read_stream,
    read_yuv,
    report_to_csv,
    report_to_json,
    save_stream,
    write_stream,
)
from .stego import (
    EmbedConfig,
    EmbedMethod,
    EmbedReport,
    embed,
    embed_index_adaptive,
    embed_index_threshold,
    embed_mvd_parity,
    t_value,
)
from .stream import GOP_IPPP, Plane, PuRecord, SequenceStream, StreamHeader
from .synth import MovingRect, SynthPattern, SynthSpec, synthesize
