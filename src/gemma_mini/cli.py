"""Command-line front end.

Subcommands: pattern, plan, generate, distill, panscan, audit, kv-curve.
Structured output goes to stdout, diagnostics to stderr; exit codes are 0
(ok), 1 (runtime failure), 2 (usage).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import audit as audit_mod
from . import distill as distill_mod
from . import kvcache, memplan, panscan, presets, tokenizer
from .model import ModelConfig, generate, init_params, layer_kinds, load_weights, save_weights
from .attention import LayerKind


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _ascending_positive_ints(text: str) -> list[int]:
    try:
        values = [_positive_int(item) for item in text.split(",")]  # an empty item too
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {text!r}") from exc
    if any(b < a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"must be ascending, got {text!r}")
    return values


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gemma-mini")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="render the local/global layer interleaving")
    p.add_argument("--layers", type=_positive_int, required=True)
    p.add_argument("--ratio", type=_nonnegative_int, default=5,
                   help="local layers per global (default 5)")

    p = sub.add_parser("plan", help="weight + KV memory plan for a preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--context", type=_positive_int, default=32768)
    p.add_argument("--kv-bits", type=_positive_int, default=8)
    p.add_argument("--scheme", choices=sorted(memplan.SCHEMES), default=None,
                   help="report one precision scheme alone, in the table and --json")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("generate", help="decode from a prompt with the byte model (vocab 260)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", default=None, help="preset name (default: toy); errors name it")
    source.add_argument("--config", default=None, help="config file")
    source.add_argument("--weights", default=None, help="weight file; random init if omitted")
    p.add_argument("--prompt", required=True)
    p.add_argument("--chat", action="store_true",
                   help="wrap the prompt as a single user turn and stop at end_of_turn")
    p.add_argument("--max-new", type=_positive_int, default=64)
    p.add_argument("--temperature", type=_nonnegative_float, default=0.0,
                   help="0 (default) and tiny t are greedy; else samples softmax(logits / t)")
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="seeds sampling only; a random init always uses seed 0")

    p = sub.add_parser("distill", help="toy teacher->student run; emits step,loss CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=_positive_int, default=distill_mod.SUPPORT_K)
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--teacher-steps", type=_positive_int, default=300)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--save-student", default=None, help="write student weights here")
    p.add_argument("--save-teacher", default=None, help="write teacher weights here")

    p = sub.add_parser("panscan", help="plan image crops; optionally extract them")
    p.add_argument("--width", type=_positive_int, required=True)
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--max-crops", type=_positive_int, default=panscan.MAX_CROPS_DEFAULT)
    p.add_argument("--target", type=_positive_int, default=panscan.TARGET_SIZE)
    p.add_argument("--image", default=None, help="image file to crop (needs Pillow)")
    p.add_argument("--out-dir", default=".", help="where crop files go with --image")

    p = sub.add_parser("audit", help="discoverable-extraction audit of a trained model")
    p.add_argument("--corpus", action="append", required=True,
                   help="text file; blank-line-separated docs; repeatable per source")
    p.add_argument("--weights", required=True, help="weight file, which carries its config")
    p.add_argument("--stride", type=_positive_int, default=100)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--max-samples", type=_positive_int, default=None)
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("kv-curve", help="KV cache bytes vs context length, CSV")
    p.add_argument("--ratio", type=_nonnegative_int, default=5)
    p.add_argument("--window", type=_positive_int, default=1024)
    p.add_argument("--layers", type=_positive_int, default=6)
    p.add_argument("--kv-heads", type=_positive_int, default=8)
    p.add_argument("--head-dim", type=_positive_int, default=256)
    p.add_argument("--kv-bits", type=_positive_int, default=8)
    p.add_argument("--contexts", type=_ascending_positive_ints, required=True,
                   help="comma-separated, ascending")

    return parser


def _cmd_pattern(args) -> int:
    kinds = layer_kinds(args.layers, args.ratio)
    print("".join("G" if k is LayerKind.GLOBAL else "L" for k in kinds))
    return 0


def _cmd_plan(args) -> int:
    preset = presets.load_preset(args.preset)
    rep = memplan.report(preset, context=args.context, kv_bits=args.kv_bits)
    if args.scheme:  # the report itself, so the table and the JSON alike
        rep.weights_gb = {args.scheme: rep.weights_gb[args.scheme]}
    print(rep.to_json() if args.json else rep.format_table())
    return 0


def _cmd_generate(args) -> int:
    if args.weights:
        params, cfg = load_weights(args.weights)
    else:
        params, cfg = None, (presets.model_config_from_file(args.config) if args.config
                             else presets.preset_config(args.preset or "toy"))
    if cfg.vocab_size != tokenizer.VOCAB_SIZE:  # the byte tokenizer could not print the rest
        raise ValueError(f"generate needs vocab_size {tokenizer.VOCAB_SIZE}, the byte "
                         f"tokenizer's; the model has vocab_size {cfg.vocab_size}")
    if params is None:
        print("no weights given; using random init (seed 0)", file=sys.stderr)
        params = init_params(cfg, seed=0)  # --seed seeds sampling only
    if args.chat:
        text = tokenizer.format_chat([tokenizer.ChatTurn("user", args.prompt)])
        stop_ids = (tokenizer.END_OF_TURN_ID,)
    else:
        text = args.prompt
        stop_ids = (tokenizer.EOS_ID,)
    prompt_ids = tokenizer.tokenize_with_bos(text)
    out = generate(params, cfg, prompt_ids, max_new=args.max_new,
                   temperature=args.temperature, seed=args.seed, stop_ids=stop_ids)
    print(tokenizer.decode(out[len(prompt_ids):]))
    return 0


def _toy_student_config() -> ModelConfig:
    return ModelConfig(
        n_layers=2, d_model=48, hidden_dim=96, vocab_size=tokenizer.VOCAB_SIZE, max_context=512,
        num_query_heads=4, num_kv_heads=2, head_dim=12, window=64,
    )


def _toy_teacher_config() -> ModelConfig:
    return ModelConfig(
        n_layers=4, d_model=96, hidden_dim=192, vocab_size=tokenizer.VOCAB_SIZE, max_context=512,
        num_query_heads=4, num_kv_heads=2, head_dim=24, window=64,
    )


def _check_out_dirs(*flags_and_paths) -> None:
    """Fail before any work when an output path's directory does not exist."""
    for flag, path in flags_and_paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{flag}: directory of {path!r} does not exist")


def _cmd_distill(args) -> int:
    _check_out_dirs(("--out", args.out), ("--save-student", args.save_student),
                    ("--save-teacher", args.save_teacher))
    with open(args.corpus, "rb") as f:
        corpus = [tokenizer.BOS_ID] + list(f.read())
    teacher_cfg, student_cfg = _toy_teacher_config(), _toy_student_config()
    result = distill_mod.run_toy_distillation(
        corpus,
        teacher_cfg=teacher_cfg,
        student_cfg=student_cfg,
        teacher_steps=args.teacher_steps,
        student_steps=args.steps,
        k=args.k,
        seed=args.seed,
    )
    lines = ["step,loss"] + [f"{i},{loss:.6f}" for i, loss in enumerate(result.step_losses)]
    csv = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv)
    else:
        print(csv, end="")
    print(f"held-out ce (distilled): {result.held_out_ce_distilled:.4f}", file=sys.stderr)
    if args.save_student:
        save_weights(result.student_params, student_cfg, args.save_student)
    if args.save_teacher:
        save_weights(result.teacher_params, teacher_cfg, args.save_teacher)
    return 0


def _cmd_panscan(args) -> int:
    plan = panscan.plan_crops(
        args.width, args.height, target=args.target, max_crops=args.max_crops
    )
    print(plan.to_json())
    if args.image:
        try:
            from PIL import Image
        except ImportError:
            raise RuntimeError("--image needs Pillow (pip install gemma-mini[image])") from None
        img = np.asarray(Image.open(args.image).convert("RGB"), dtype=np.float64)
        if img.shape[1] != args.width or img.shape[0] != args.height:
            raise ValueError(
                f"image is {img.shape[1]}x{img.shape[0]}, not {args.width}x{args.height}")
        crops = panscan.extract_and_resize(img, plan, target=args.target)
        os.makedirs(args.out_dir, exist_ok=True)
        manifest = []
        for idx, (crop, rect) in enumerate(zip(crops, plan.crops)):
            name = f"crop_{idx:02d}.rgb"
            path = os.path.join(args.out_dir, name)
            np.clip(np.rint(crop), 0, 255).astype(np.uint8).tofile(path)
            manifest.append(
                {"file": name, "x": rect[0], "y": rect[1], "w": rect[2], "h": rect[3],
                 "resized_to": args.target}
            )
        with open(os.path.join(args.out_dir, "crops.json"), "w") as f:
            json.dump({"plan": plan.to_dict(), "crops": manifest}, f, indent=2, sort_keys=True)
        print(f"wrote {len(crops)} crops to {args.out_dir}", file=sys.stderr)
    return 0


def _cmd_audit(args) -> int:
    _check_out_dirs(("--out", args.out))
    params, cfg = load_weights(args.weights)
    corpus = []
    for path in args.corpus:
        with open(path, "rb") as f:
            blob = f.read()
        source = os.path.basename(path)
        for doc in blob.split(b"\n\n"):
            doc = doc.strip()
            if doc:
                corpus.append((source, list(doc)))
    samples = audit_mod.make_samples(
        corpus, stride=args.stride, seed=args.seed, max_samples=args.max_samples
    )
    report = audit_mod.run_audit(audit_mod.model_generator(params, cfg), samples)
    with open(args.out, "w") as f:
        f.write(report.to_json() + "\n")
    print(
        f"{report.n_samples} samples: exact {report.exact_rate:.3f}, "
        f"exact-or-approx {report.approx_rate:.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_kv_curve(args) -> int:
    pattern = layer_kinds(args.layers, args.ratio)
    points = kvcache.kv_curve(
        pattern, args.kv_heads, args.head_dim, args.kv_bits / 8, args.contexts, args.window
    )
    print(kvcache.kv_curve_csv(points), end="")
    return 0


_COMMANDS = {
    "pattern": _cmd_pattern,
    "plan": _cmd_plan,
    "generate": _cmd_generate,
    "distill": _cmd_distill,
    "panscan": _cmd_panscan,
    "audit": _cmd_audit,
    "kv-curve": _cmd_kv_curve,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
