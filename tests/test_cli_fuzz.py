"""Mutated config files, numeric flags and input files, run through
``cli.dispatch``: every run either succeeds or ends in exactly one ``error:``
line with exit code 1."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from promptsum import cli
from promptsum.cli import dispatch, shipped_defaults
from promptsum.corpus import load_dataset, load_vocab, sample_fewshot
from promptsum.model import STRATEGIES, ModelDims, PromptConfig, init_backbone, init_prompts, save_checkpoint

from conftest import make_lead_corpus, write_jsonl

TINY_MODEL = ["--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "64"]
TINY_PROMPTS = ["--prompt-len-en", "2", "--prompt-len-de", "2", "--strategy", "interval"]
TRAIN = ["--epochs", "1", "--batch", "2", "--grad-accum", "1", "--warmup-steps", "1"]
DECODE = ["--beam", "2", "--max-len", "4"]

# Small magnitudes only: a mutated size must not make a run allocate or train for long.
_ints = st.integers(-2, 9)
_floats = st.one_of(
    st.floats(-1.5, 2.5, allow_nan=False),
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "1e-9"]),
)
_words = st.sampled_from(["x", "true", "false", "none", "fixed_k", "sequential", "full_model", "1,2"])
_TYPED = {int: _ints.map(str), float: _floats.map(str), bool: st.sampled_from(["true", "false"]), str: _words}
_KEY_TYPES = {key: type(value) for key, value in shipped_defaults().items()} | cli._OPTIONAL_KEY_TYPES
SCENARIOS = ("build-pseudo", "build-pseudo-gsg", "pretrain-prompts", "finetune", "evaluate", "probe-attention")


def _value(kind: type):
    """A value of the given type or, as often, one of any type."""
    return st.one_of(_TYPED[kind], st.one_of(*_TYPED.values()))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A corpus, its vocab, and a matching tiny checkpoint (max_pos 64)."""
    root = tmp_path_factory.mktemp("fuzz")
    write_jsonl(root / "data.jsonl", make_lead_corpus(6, seed=0))
    assert dispatch(["build-vocab", "--data", str(root / "data.jsonl"), "--out", str(root / "v")]) == 0
    vocab = load_vocab(root / "v" / "vocab.txt")
    backbone = init_backbone(ModelDims(d=8, layers=1, heads=2, ffn=16, vocab=len(vocab), max_pos=64), seed=0)
    config = PromptConfig(len_en=2, len_de=2, strategy="none")
    save_checkpoint(root / "ckpt.npz", backbone, init_prompts(config, backbone, 0))
    return root


def _commands(root) -> dict[str, list[str]]:
    data, vocab = ["--data", str(root / "data.jsonl")], ["--vocab", str(root / "v" / "vocab.txt")]
    ckpt = ["--checkpoint", str(root / "ckpt.npz")]
    return {
        "build-pseudo": ["build-pseudo", *data, *vocab, "--strategy", "lead", "--lead-n", "1", "--min-sum", "1"],
        "build-pseudo-gsg": ["build-pseudo", *data, *vocab, "--strategy", "gsg", "--fewshot", str(root / "data.jsonl")],
        "pretrain-prompts": ["pretrain-prompts", *data, *vocab, *TINY_MODEL, *TINY_PROMPTS, *TRAIN],
        "finetune": ["finetune", *ckpt, *data, *vocab, "--fewshot-size", "2", *TRAIN],
        "evaluate": ["evaluate", *ckpt, *data, *vocab, *DECODE],
        "probe-attention": ["probe-attention", *ckpt, *data, *vocab],
        "pretrain-prompts-dev": [
            "pretrain-prompts", *data, *vocab, *TINY_MODEL, *TINY_PROMPTS, *TRAIN,
            "--dev", str(root / "data.jsonl"), "--backbone", str(root / "ckpt.npz"),
        ],
        "ablate": ["ablate", *data, *vocab, *TINY_MODEL, *TINY_PROMPTS, *TRAIN, *DECODE, "--fewshot-size", "2"],
    }


def _assert_one_line_or_success(rc: int, err: str) -> None:
    if rc == 0:
        assert not err.strip()
    else:
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _numeric_flags(command: str) -> list[tuple[str, type]]:
    """The command's int and float flags, as declared in the command table."""
    flags = cli._COMMON_FLAGS + cli._COMMANDS[command].flags
    return [(name, kw["type"]) for name, kw in flags if kw.get("type") in (int, float)]


# About 20 ms an example on 2 vCPUs, so the bound keeps the suite's growth to a few seconds.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=st.sampled_from(SCENARIOS), data=st.data())
def test_mutated_runs_succeed_or_fail_on_one_line(world, capsys, scenario, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(_KEY_TYPES)), min_size=1, max_size=5, unique=True))
    config = {key: data.draw(_value(_KEY_TYPES[key])) for key in keys}
    (world / "run.cfg").write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    argv = _commands(world)[scenario] + ["--config", str(world / "run.cfg"), "--out", str(world / "out")]
    numeric = _numeric_flags(argv[0])
    for _ in range(data.draw(st.integers(0, 3))):
        flag, kind = data.draw(st.sampled_from(numeric))
        value = data.draw(_value(kind))
        argv.append(f"{flag}={value}")  # '=' keeps a value such as '-inf' from reading as a flag
    capsys.readouterr()
    rc = dispatch(argv)
    _assert_one_line_or_success(rc, capsys.readouterr().err)


# The input files a command reads, by flag, relative to the world fixture.
_INPUT_FILES = {
    "--data": "data.jsonl", "--vocab": "v/vocab.txt", "--checkpoint": "ckpt.npz",
    "--dev": "data.jsonl", "--fewshot": "data.jsonl", "--backbone": "ckpt.npz",
}


@st.composite
def _mutated(draw, raw: bytes) -> bytes:
    """``raw`` truncated, with one bit flipped, with one line deleted, or with
    a byte that is not UTF-8 put in."""
    at = draw(st.integers(0, len(raw) - 1))
    kind = draw(st.sampled_from(["truncate", "flip", "delete line", "non-utf8"]))
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ (1 << draw(st.integers(0, 7)))]) + raw[at + 1 :]
    if kind == "delete line":
        lines = raw.split(b"\n")
        del lines[draw(st.integers(0, len(lines) - 1))]
        return b"\n".join(lines)
    return raw[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[at + 1 :]


def _run_mutated(world, capsys, scenario: str, flag: str, data) -> None:
    """Run ``scenario`` with the file of ``flag`` replaced by a mutated copy."""
    mutated = world / "mutated" / _INPUT_FILES[flag].replace("/", "-")
    mutated.parent.mkdir(exist_ok=True)
    mutated.write_bytes(data.draw(_mutated((world / _INPUT_FILES[flag]).read_bytes())))
    argv = _commands(world)[scenario] + ["--out", str(world / "out")]
    argv[argv.index(flag) + 1] = str(mutated)
    capsys.readouterr()
    rc = dispatch(argv)
    _assert_one_line_or_success(rc, capsys.readouterr().err)


# About 30 ms an example on 2 vCPUs.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    scenario=st.sampled_from(["evaluate", "finetune"]),
    flag=st.sampled_from(["--checkpoint", "--data", "--vocab"]),
    data=st.data(),
)
def test_mutated_input_files_succeed_or_fail_on_one_line(world, capsys, scenario, flag, data):
    _run_mutated(world, capsys, scenario, flag, data)


# The other commands that read input files, by the flag of the mutated file.
# An ablate run that succeeds trains and scores eight variants, about 0.3 s
# on 2 vCPUs, so the bound keeps this test to a few seconds.
_MORE_MUTATIONS = (
    ("build-pseudo-gsg", "--fewshot"),
    ("pretrain-prompts-dev", "--dev"),
    ("pretrain-prompts-dev", "--backbone"),
    *(("probe-attention", flag) for flag in ("--checkpoint", "--data", "--vocab")),
    ("ablate", "--data"),
    ("ablate", "--vocab"),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_MORE_MUTATIONS), data=st.data())
def test_more_mutated_input_files_succeed_or_fail_on_one_line(world, capsys, case, data):
    _run_mutated(world, capsys, *case, data)


class _Reached(Exception):
    """Raised in place of training: the run got past every check before it."""


def _reach_training(*args, **kwargs):
    raise _Reached


_RUN_IDS = itertools.count()


# No example trains: about 3 ms an example on 2 vCPUs.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["pretrain-prompts", "ablate"]),
    len_en=st.integers(-1, 4),
    len_de=st.integers(-1, 4),
    strategy=st.sampled_from(STRATEGIES),
    k=st.integers(-1, 3),
    n_max=st.integers(-1, 3),
    percentile=st.sampled_from([0.0, 0.4, 0.85, 1.0, 1.5]),
    shared=st.booleans(),
)
def test_prompt_settings_are_refused_before_the_run_as_the_handler_refuses_them(
    world, capsys, monkeypatch, command, len_en, len_de, strategy, k, n_max, percentile, shared
):
    # The pre-run step builds the prompt configs on a stand-in corpus; the handler
    # builds them on the real one. Both must raise for the same settings, with the
    # same message, and the pre-run step must raise before --out exists.
    monkeypatch.setattr(cli, "_train", _reach_training)
    prompt_settings = {
        "prompt_len_en": len_en, "prompt_len_de": len_de, "strategy": strategy,
        "k": k, "n_max": n_max, "percentile": percentile, "shared": shared,
    }
    cfg = shipped_defaults() | prompt_settings
    vocab = load_vocab(world / "v" / "vocab.txt")
    pairs = load_dataset(world / "data.jsonl", vocab, cfg["max_src_tokens"])
    try:
        if command == "ablate":
            train_docs = [p.document for p in sample_fewshot(pairs, 2, cfg["seed"]).train]
            cli._ablation_variants(cfg, train_docs, None)
        else:
            cli._prompt_config(cfg, [p.document for p in pairs])
        refusal = None
    except ValueError as exc:
        refusal = f"error: {exc}\n"

    out = world / "parity" / str(next(_RUN_IDS))
    argv = [
        command, "--data", str(world / "data.jsonl"), "--vocab", str(world / "v" / "vocab.txt"),
        "--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "512",
        "--epochs", "1", "--out", str(out), "--shared" if shared else "--no-shared",
        *(f"--{key.replace('_', '-')}={value}" for key, value in prompt_settings.items() if key != "shared"),
    ]
    if command == "ablate":
        argv += ["--fewshot-size", "2", "--max-len", "4"]
    capsys.readouterr()
    if refusal is None:
        with pytest.raises(_Reached):
            dispatch(argv)
        assert out.exists()
    else:
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == refusal
        assert not out.exists()
