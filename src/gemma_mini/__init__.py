"""Desk-scale decoder LM toolkit: interleaved local/global attention with
windowed KV caching, rotary rescaling, sampled-logit distillation, memory
planning, image crop planning, and memorization auditing."""

from .attention import AttentionConfig, LayerKind, build_mask, gqa_attend
from .audit import AuditReport, AuditSample, Match, classify, levenshtein, make_samples, run_audit
from .distill import DistillTarget, distill_grad_check, distill_loss, renormalize, sample_support
from .kvcache import KvCache, kv_bytes, kv_curve
from .memplan import SCHEMES, MemoryReport, ModelPreset, PrecisionScheme, report, weight_bytes
from .model import (
    ModelConfig,
    count_params,
    forward,
    generate,
    init_params,
    layer_kinds,
    load_weights,
    make_cache,
    save_weights,
)
from .panscan import CropPlan, bilinear_resize, extract_and_resize, plan_crops, pool_embeddings
from .presets import list_presets, load_preset, model_config_from_file
from .tensor import RopeParams, rms_norm, rope_apply, softmax_rows
from .tokenizer import ChatTurn, decode, encode, format_chat, tokenize_with_bos

__version__ = "0.1.0"
