"""Compact transformer encoder-decoder over a frozen backbone.

`Seq2SeqModel.encode` maps frames to the memory once per batch. One decoder
routine, `_decode_rows`, runs every decoder layer (self-attention with the
LID score prior, cross-attention over the memory, adapters, feed-forward)
for the rows of a token block over a given memory, and every caller shares
it:

- The teacher-forced `forward` encodes, then runs all rows at once under a
  square causal mask. Its per-head (B, H, N, N) self-attention maps are what
  head selection and the guidance loss consume. Its logits are the output
  projection itself: row n sees tokens 0..n and scores token n + 1, the
  target `training.sequence_ce` derives by shifting the tokens left.
- `greedy_decode` takes the output of `encode`, computes each layer's
  cross-attention K/V once, runs the prompt as one block and then one query
  row per step, appending each step's self-attention K/V rows to a
  per-layer `DecoderCache`. Evaluation reuses the same memory for a
  teacher-forced `_decode_rows` pass whose maps give the LID attribution,
  so each test utterance is encoded once, 16 rows at a time; that pass
  stops at the deepest layer holding a selected head. Head selection runs
  `encode` and `_decode_rows` through the last layer's self-attention maps.

Every parameter's name, shape and initialiser is stated once, in
`backbone_layout` and `adapter_layout`; fresh models draw them in that order,
and `load_state` and `checkpoint.load_model` check a state against them.
Bottleneck adapters (down-project, GELU, up-project, residual) sit after the
attention and the feed-forward sub-block of every layer; zero-initialised
up-projections make them exact identities.

Token layout: ids 0-6 are `SOT, ZH, EN, TRANS, NOTS, EOT, BLNK` (<zh> and
<en> are the language-ID tokens of languages A and B), then language A's
words, then language B's. A sequence is one of the three `PROMPTS`
(bilingual, or monolingual with one ID token), word tokens and <eot>;
batches pad with <blnk>. The bilingual prompt puts <zh> and <en> at
`LID_COLUMNS`, the map columns every head statistic reads. A position's
language follows from its id, so `TokenSequence.from_ids` derives the tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .numerics import (
    Parameter,
    Tensor,
    attention_map,
    embedding,
    gelu,
    layer_norm,
    linear,
)

SOT, ZH, EN, TRANS, NOTS, EOT, BLNK = range(7)
SPECIAL_STRINGS = ("<sot>", "<zh>", "<en>", "<trans>", "<nots>", "<eot>", "<blnk>")

LANG_A = "A"
LANG_B = "B"

# Decoder prompt by language: the bilingual form (key None), and the
# monolingual form of each language.
PROMPTS = {
    None: (SOT, ZH, EN, TRANS, NOTS),
    LANG_A: (SOT, ZH, TRANS, NOTS),
    LANG_B: (SOT, EN, TRANS, NOTS),
}

# Positions of <zh> and <en> in the bilingual prompt: the two LID columns of
# every decoder self-attention map that head statistics read.
LID_COLUMNS = (1, 2)


@dataclass(frozen=True)
class ModelConfig:
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    width: int = 64
    ffn_width: int = 256
    bottleneck: int = 8
    feat_dim: int = 16
    max_len: int = 64
    # Decoder self-attention heads per layer (layers above the first) that
    # carry a fixed additive score prior toward key positions holding an
    # LID token. A from-scratch desk-scale backbone parks every head's spare
    # attention on the start token and never develops LID-attending heads on
    # its own; the prior builds them in architecturally, the way a causal
    # mask or an ALiBi slope is built in. Content scores add on top, so
    # training decides how each anchored head actually distributes mass
    # between (and beyond) the two LID columns.
    anchored_heads: int = 3
    anchor_strength: float = 3.0
    # Language-contrast seeding: word embeddings start with a +-polarity
    # component along a shared language direction, and anchored heads' query
    # projections couple that direction to the zh-minus-en key coordinate.
    # This gives the guidance loss a first-order handle for routing rows to
    # their own language's column; with the step budget of the default recipe
    # a bottleneck adapter cannot grow such a circuit from scratch.
    embed_polarity: float = 0.05
    anchor_contrast: float = 0.5

    def __post_init__(self):
        for name in ("enc_layers", "dec_layers", "heads", "width", "ffn_width",
                     "bottleneck", "feat_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model config field {name} must be positive")
        if self.width % self.heads != 0:
            raise ConfigError("width must be divisible by the head count")
        if self.anchored_heads < 0:
            raise ConfigError("anchored_heads must be non-negative")
        for name in ("anchor_strength", "embed_polarity", "anchor_contrast"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"model config field {name} must be finite, "
                                  f"got {getattr(self, name)}")

    @property
    def head_dim(self) -> int:
        return self.width // self.heads

    @property
    def anchored_head_ids(self) -> tuple[int, ...]:
        """Anchored head indices, capped at the per-layer head count."""
        spread = [h for h in range(self.heads) if h % 2 == 1]
        spread += [h for h in range(self.heads) if h % 2 == 0]
        return tuple(sorted(spread[:min(self.anchored_heads, self.heads)]))


class Vocabulary:
    """Token inventory: the seven special tokens, then `n_words_a` words of
    language A (`A00`, `A01`, ...), then `n_words_b` words of language B
    (`B00`, ...). Each word token carries exactly one language tag.
    """

    def __init__(self, n_words_a: int, n_words_b: int):
        for lang, n in ((LANG_A, n_words_a), (LANG_B, n_words_b)):
            if n < 1:
                raise DataError(f"language {lang} needs at least one word, got {n}")
        self.n_words_a = n_words_a
        self.n_words_b = n_words_b
        n_special = len(SPECIAL_STRINGS)
        self._a_range = range(n_special, n_special + n_words_a)
        self._b_range = range(self._a_range.stop, self._a_range.stop + n_words_b)

    @classmethod
    def build(cls, n_a: int = 40, n_b: int = 40) -> "Vocabulary":
        return cls(n_a, n_b)

    @property
    def size(self) -> int:
        return self._b_range.stop

    def string(self, token_id: int) -> str:
        for lang, ids in ((LANG_A, self._a_range), (LANG_B, self._b_range)):
            if token_id in ids:
                return f"{lang}{token_id - ids.start:02d}"
        return SPECIAL_STRINGS[token_id]

    def lang(self, token_id: int) -> str | None:
        if token_id in self._a_range:
            return LANG_A
        if token_id in self._b_range:
            return LANG_B
        return None

    def word_ids(self, lang: str) -> list[int]:
        return list(self._a_range if lang == LANG_A else self._b_range)


def build_prompt(lang: str | None = None) -> list[int]:
    """Decoder prompt: bilingual form by default, monolingual when `lang` given."""
    if lang not in PROMPTS:
        raise DataError(f"unknown language {lang!r}")
    return list(PROMPTS[lang])


@dataclass
class TokenSequence:
    """Prompt tokens plus word tokens and the end marker, with the language
    tag of each position (None for every special token)."""

    ids: list[int]
    lang_tags: list[str | None]

    @classmethod
    def from_ids(cls, vocab: Vocabulary, ids: list[int]) -> "TokenSequence":
        """The sequence `ids`, which must be one of `PROMPTS`, then word
        tokens of `vocab`, then <eot>; any other ids raise DataError."""
        prompt = next((p for p in PROMPTS.values() if tuple(ids[:len(p)]) == p), None)
        if prompt is None:
            raise DataError("token sequence does not open with a prompt")
        if ids[-1] != EOT:
            raise DataError("token sequence does not end with <eot>")
        words = ids[len(prompt):-1]
        tags = [vocab.lang(w) for w in words]
        if None in tags:
            raise DataError(f"token {words[tags.index(None)]} is not a word token")
        return cls(ids=ids, lang_tags=[None] * len(prompt) + tags + [None])

    @classmethod
    def from_words(cls, vocab: Vocabulary, word_ids: list[int],
                   lang: str | None = None) -> "TokenSequence":
        return cls.from_ids(vocab, build_prompt(lang) + list(word_ids) + [EOT])

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def word_positions(self) -> list[int]:
        return [i for i, t in enumerate(self.lang_tags) if t is not None]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class ForwardOut:
    """Teacher-forced forward outputs.

    `logits[b, n]` holds the scores over the vocabulary for token n + 1,
    given tokens 0..n; the last row scores the token after the sequence.
    `attention[l]` holds the decoder self-attention maps, shape (B, H, N, N).
    """

    logits: Tensor
    attention: list[Tensor]


@dataclass
class AdapterSummary:
    adapter_count: int
    backbone_count: int

    @property
    def fraction(self) -> float:
        return self.adapter_count / (self.adapter_count + self.backbone_count)

    def format(self) -> str:
        return f"{self.adapter_count:,} ({self.fraction:.1%})"


# The first decoder adapter sits after layer 0's cross-attention, so no adapter
# feeds layer 0's self-attention maps, and guiding one of its heads sends no
# gradient anywhere. Head selection offers, and guided training accepts, only
# heads of decoder layers from this one up.
FIRST_GUIDABLE_LAYER = 1


def is_adapter_param(name: str) -> bool:
    return "_adapter." in name


def adapter_apply(x, down_w, down_b, up_w, up_b) -> Tensor:
    """Residual bottleneck: x + Up(gelu(Down(x)))."""
    hidden = gelu(linear(x, down_w, down_b))
    return x + linear(hidden, up_w, up_b)


def _projection(prefix: str, n_in: int, n_out: int, init) -> list[tuple]:
    return [(prefix + ".weight", (n_in, n_out), init), (prefix + ".bias", (n_out,), np.zeros)]


def _draw(layout: list[tuple], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Each parameter's initial value, drawn in layout order from `rng`: a normal
    draw when the initialiser is a standard deviation, else `np.zeros` or `np.ones`."""
    return {name: init(shape) if callable(init) else rng.normal(0.0, init, shape)
            for name, shape, init in layout}


def backbone_layout(c: ModelConfig, vocab_size: int) -> list[tuple]:
    """Every backbone parameter as (name, shape, initialiser), in draw order."""
    w, ff, std = c.width, c.ffn_width, 0.02
    # residual-branch outputs start smaller so deep stacks stay stable
    res_std = std / math.sqrt(2.0 * max(c.enc_layers, c.dec_layers))

    def norm(prefix):
        return [(prefix + ".gain", (w,), np.ones), (prefix + ".bias", (w,), np.zeros)]

    def attn(p):
        projections = (("q_proj", std), ("k_proj", std), ("v_proj", std), ("out_proj", res_std))
        return [e for proj, init in projections for e in _projection(f"{p}.{proj}", w, w, init)]

    def ffn(p):
        return _projection(p + "ffn.fc1", w, ff, std) + _projection(p + "ffn.fc2", ff, w, res_std)

    # input projection sees a 3-frame window so word boundaries (where
    # adjacent frames jump between clusters) are linearly visible
    layout = _projection("enc.in_proj", 3 * c.feat_dim, w, std) + [
        ("enc.pos.weight", (c.max_len, w), std)]
    for i in range(c.enc_layers):
        p = f"enc.{i}."
        layout += norm(p + "ln1") + attn(p + "attn") + norm(p + "ln2") + ffn(p)
    layout += norm("enc.ln_out") + [("dec.embed.weight", (vocab_size, w), std),
                                    ("dec.pos.weight", (c.max_len, w), std)]
    for i in range(c.dec_layers):
        p = f"dec.{i}."
        layout += (norm(p + "ln1") + attn(p + "self_attn") + norm(p + "ln2")
                   + attn(p + "cross_attn") + norm(p + "ln3") + ffn(p))
    return layout + norm("dec.ln_out") + _projection("dec.out_proj", w, vocab_size, std)


def adapter_layout(c: ModelConfig) -> list[tuple]:
    """Every adapter parameter, in draw order; each up-projection starts at zero."""
    return [entry for side, n_layers in (("enc", c.enc_layers), ("dec", c.dec_layers))
            for i in range(n_layers) for tag in ("attn_adapter", "ffn_adapter")
            for entry in (_projection(f"{side}.{i}.{tag}.down", c.width, c.bottleneck, 0.02)
                          + _projection(f"{side}.{i}.{tag}.up", c.bottleneck, c.width, np.zeros))]


def parameter_shapes(c: ModelConfig, vocab_size: int, adapters: bool) -> dict[str, tuple]:
    """Each parameter's shape by name, in draw order, with or without adapters."""
    layout = backbone_layout(c, vocab_size) + (adapter_layout(c) if adapters else [])
    return {name: shape for name, shape, _ in layout}


def misfits(shapes: dict[str, tuple], listed: dict) -> tuple[list[str], list[str]]:
    """The names in `listed`, a shape list by name, that `shapes` lacks, sorted;
    and those of `shapes` that `listed` lacks or gives another shape, in order."""
    return (sorted(set(listed) - set(shapes)),
            [name for name, shape in shapes.items() if listed.get(name) != list(shape)])


class Seq2SeqModel:
    """Encoder-decoder with per-head attention extraction and adapters.

    Parameters live in a flat name-to-Parameter map in layout order; adapter
    parameters are the ones whose names contain an ``_adapter.`` segment. The
    model is immutable during inference; training mutates parameters in place
    and must own the model exclusively. `frozen`, set by `freeze_backbone`,
    means only adapter parameters may train.
    """

    def __init__(self, config: ModelConfig, vocab: Vocabulary, seed: int = 0,
                 state: dict[str, np.ndarray] | None = None):
        """The backbone drawn from `seed`, or, drawing nothing, a copy of `state`."""
        self.config = config
        self.vocab = vocab
        self.has_adapters = state is not None and any(map(is_adapter_param, state))
        self.frozen = False
        if state is None:
            rng = np.random.default_rng(seed)
            state = _draw(backbone_layout(config, vocab.size), rng)
            self._seed_lid_contrast(state, rng)
        shapes = parameter_shapes(config, vocab.size, self.has_adapters)
        self.params = {name: Parameter(name, np.empty(shape)) for name, shape in shapes.items()}
        self.load_state(state)

    # -- construction --------------------------------------------------------

    def _seed_lid_contrast(self, state: dict[str, np.ndarray], rng) -> None:
        """Seed the language-contrast circuit of the anchored heads.

        Word embeddings get a +-polarity component along a shared language
        direction g. Each anchored head receives the zh-minus-en key direction
        on a private key coordinate, and its query projection couples g to the
        same coordinate with the sign that routes language-A rows toward the
        zh column. The fixed score prior (applied in the forward pass)
        supplies mass on the LID columns; this seeding supplies a steerable,
        sign-correct contrast that training may amplify, shrink, or repurpose."""
        c = self.config
        if not c.anchored_heads or c.dec_layers < 2:
            return
        d = c.head_dim

        def normed(x):
            mu = x.mean()
            sd = math.sqrt(((x - mu) ** 2).mean() + 1e-5)
            return (x - mu) / sd

        embed = state["dec.embed.weight"]
        g = rng.normal(size=c.width)
        g /= np.linalg.norm(g)
        for word in self.vocab.word_ids(LANG_A):
            embed[word] += c.embed_polarity * g
        for word in self.vocab.word_ids(LANG_B):
            embed[word] -= c.embed_polarity * g

        pos = state["dec.pos.weight"]
        v_diff = normed(embed[ZH] + pos[1]) - normed(embed[EN] + pos[2])
        v_diff /= np.linalg.norm(v_diff)
        for layer in range(1, c.dec_layers):
            for head in c.anchored_head_ids:
                w = rng.normal(size=d)
                w /= np.linalg.norm(w)
                sl = slice(head * d, (head + 1) * d)
                state[f"dec.{layer}.self_attn.k_proj.weight"][:, sl] += np.outer(v_diff, w)
                state[f"dec.{layer}.self_attn.q_proj.weight"][:, sl] += \
                    c.anchor_contrast * np.outer(g, w)

    def _lid_prior(self, tokens: np.ndarray, layer: int) -> np.ndarray | None:
        """Fixed additive self-attention score prior toward LID-token key
        positions for the anchored heads of decoder layers above the first."""
        c = self.config
        if layer == 0 or not c.anchored_heads:
            return None
        is_lid = (tokens == ZH) | (tokens == EN)
        batch, n_len = tokens.shape
        prior = np.zeros((batch, c.heads, 1, n_len))
        col = c.anchor_strength * is_lid.astype(np.float64)
        for head in c.anchored_head_ids:
            prior[:, head, 0, :] = col
        return prior

    # -- adapters -------------------------------------------------------------

    def init_adapters(self, seed: int = 1) -> None:
        """Insert the adapters drawn from `seed`; the network function is unchanged."""
        if self.has_adapters:
            raise DataError("adapters already initialised")
        drawn = _draw(adapter_layout(self.config), np.random.default_rng(seed))
        self.params.update((name, Parameter(name, data)) for name, data in drawn.items())
        self.has_adapters = True

    def adapter_summary(self) -> AdapterSummary:
        adapter = sum(p.data.size for n, p in self.params.items() if is_adapter_param(n))
        backbone = sum(p.data.size for n, p in self.params.items() if not is_adapter_param(n))
        return AdapterSummary(adapter_count=adapter, backbone_count=backbone)

    def freeze_backbone(self) -> None:
        self.frozen = True

    def adapter_params(self, side: str | None = None) -> dict[str, Parameter]:
        out = {}
        for name, p in self.params.items():
            if not is_adapter_param(name):
                continue
            if side is not None and not name.startswith(side + "."):
                continue
            out[name] = p
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Set every parameter from a copy of its `state` array; `state` must
        hold exactly this model's parameter names, each with its layout shape
        and finite values. A state that fails a check raises DataError and
        changes nothing."""
        shapes = parameter_shapes(self.config, self.vocab.size, self.has_adapters)
        unknown, misfit = misfits(shapes, {name: list(np.shape(a)) for name, a in state.items()})
        if unknown:
            raise DataError(f"state has entries the model lacks: {', '.join(unknown)}")
        if misfit:
            problem = "shape mismatch for" if misfit[0] in state else "is missing parameter"
            raise DataError(f"state {problem} {misfit[0]!r}")
        for name in shapes:
            if not np.isfinite(state[name]).all():
                raise DataError(f"state has a non-finite value in {name!r}")
        for name, p in self.params.items():
            p.data = np.array(state[name], dtype=np.float64)

    # -- forward ----------------------------------------------------------------

    def _p(self, name: str) -> Parameter:
        return self.params[name]

    def _adapter(self, x: Tensor, prefix: str) -> Tensor:
        return adapter_apply(x, self._p(prefix + "down.weight"),
                             self._p(prefix + "down.bias"),
                             self._p(prefix + "up.weight"),
                             self._p(prefix + "up.bias"))

    def _split_heads(self, t: Tensor) -> Tensor:
        c = self.config
        batch, length = t.shape[0], t.shape[1]
        return t.reshape(batch, length, c.heads, c.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, t: Tensor) -> Tensor:
        batch, length = t.shape[0], t.shape[2]
        return t.transpose(0, 2, 1, 3).reshape(batch, length, self.config.width)

    def _linear(self, x, prefix: str) -> Tensor:
        """The projection named `prefix` (its .weight and .bias) of `x`."""
        return linear(x, self._p(prefix + ".weight"), self._p(prefix + ".bias"))

    def _kv(self, src: Tensor, prefix: str) -> tuple[Tensor, Tensor]:
        """Key and value heads of one attention sub-layer over `src`."""
        k = self._split_heads(self._linear(src, prefix + ".k_proj"))
        v = self._split_heads(self._linear(src, prefix + ".v_proj"))
        return k, v

    def _attend(self, x: Tensor, k: Tensor, v: Tensor, prefix: str,
                causal: bool, extra_mask=None) -> tuple[Tensor, Tensor]:
        """One multi-head attention sub-layer of queries `x` over key and
        value heads (B, H, N_k, head_dim); returns (output, maps)."""
        q = self._split_heads(self._linear(x, prefix + ".q_proj"))
        maps = attention_map(q, k, causal=causal, extra_mask=extra_mask)
        out = self._linear(self._merge_heads(maps @ v), prefix + ".out_proj")
        return out, maps

    def encode(self, frames, frame_mask=None) -> tuple[Tensor, np.ndarray | None]:
        """Encoder pass over a batch of frames.

        frames: (B, T, feat_dim) float array, zero-padded; `frame_mask` (B, T)
        marks real frames. Returns the memory (B, T, width) and the additive
        (B, 1, 1, T) mask of its padded columns (None without a frame mask),
        which every cross-attention over the memory applies.
        """
        c = self.config
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise DataError(f"frames must have shape (B, T, feat_dim), got {frames.shape}")
        batch, t_len, feat = frames.shape
        if feat != c.feat_dim:
            raise DataError(f"feature dimension {feat} does not match config {c.feat_dim}")
        if t_len > c.max_len:
            raise DataError("sequence too long for the configured maximum length")

        col_mask = None
        if frame_mask is not None:
            fm = np.asarray(frame_mask, dtype=bool)
            if fm.shape != (batch, t_len):
                raise DataError(f"frame mask shape {fm.shape} does not match frames {(batch, t_len)}")
            col_mask = np.where(fm, 0.0, -np.inf).reshape(batch, 1, 1, t_len)

        windowed = _stack_frame_window(frames)
        x = self._linear(windowed, "enc.in_proj")
        x = x + embedding(self._p("enc.pos.weight"), np.arange(t_len))
        for i in range(c.enc_layers):
            p = f"enc.{i}."
            h = layer_norm(x, self._p(p + "ln1.gain"), self._p(p + "ln1.bias"))
            k, v = self._kv(h, p + "attn")
            attn_out, _ = self._attend(h, k, v, p + "attn", causal=False,
                                       extra_mask=col_mask)
            x = x + attn_out
            if self.has_adapters:
                x = self._adapter(x, p + "attn_adapter.")
            h = layer_norm(x, self._p(p + "ln2.gain"), self._p(p + "ln2.bias"))
            f = gelu(self._linear(h, p + "ffn.fc1"))
            x = x + self._linear(f, p + "ffn.fc2")
            if self.has_adapters:
                x = self._adapter(x, p + "ffn_adapter.")
        memory = layer_norm(x, self._p("enc.ln_out.gain"), self._p("enc.ln_out.bias"))
        return memory, col_mask

    def _decode_rows(self, tokens, memory: Tensor, col_mask,
                     cache: DecoderCache | None = None,
                     depth: int | None = None) -> tuple[Tensor | None, list[Tensor]]:
        """Decoder pass over rows `tokens[:, start:]`, where `start` is the
        number of positions `cache` already holds (0 without a cache).

        Without a cache every row runs at once under the square causal mask
        (the teacher-forced pass). With one, each layer takes its cross-attention
        K/V from the cache instead of projecting `memory`, and appends the new
        rows' self-attention K/V to the cached rows before attending.

        Returns the output projection of the new rows, (B, N - start, M), and
        each layer's self-attention maps, (B, H, N - start, N). With `depth`,
        the pass stops once the first `depth` layers' maps exist and returns
        no projection: the rest of the decoder cannot change them.
        """
        c = self.config
        tokens = np.asarray(tokens, dtype=np.int64)
        batch, n_len = tokens.shape
        if n_len > c.max_len:
            raise DataError("sequence too long for the configured maximum length")
        if batch != memory.shape[0]:
            raise DataError("frames and tokens disagree on batch size")
        start = 0 if cache is None else cache.length

        y = embedding(self._p("dec.embed.weight"), tokens[:, start:])
        y = y + embedding(self._p("dec.pos.weight"), np.arange(start, n_len))
        attn_maps: list[Tensor] = []
        for i in range(c.dec_layers):
            p = f"dec.{i}."
            h = layer_norm(y, self._p(p + "ln1.gain"), self._p(p + "ln1.bias"))
            k, v = self._kv(h, p + "self_attn")
            if cache is not None:
                k, v = cache.extend(i, k, v)
            attn_out, maps = self._attend(h, k, v, p + "self_attn", causal=True,
                                          extra_mask=self._lid_prior(tokens, i))
            attn_maps.append(maps)
            if len(attn_maps) == depth:
                return None, attn_maps
            y = y + attn_out
            h = layer_norm(y, self._p(p + "ln2.gain"), self._p(p + "ln2.bias"))
            if cache is None:
                k, v = self._kv(memory, p + "cross_attn")
            else:
                k, v = cache.cross[i]
            cross_out, _ = self._attend(h, k, v, p + "cross_attn", causal=False,
                                        extra_mask=col_mask)
            y = y + cross_out
            if self.has_adapters:
                y = self._adapter(y, p + "attn_adapter.")
            h = layer_norm(y, self._p(p + "ln3.gain"), self._p(p + "ln3.bias"))
            f = gelu(self._linear(h, p + "ffn.fc1"))
            y = y + self._linear(f, p + "ffn.fc2")
            if self.has_adapters:
                y = self._adapter(y, p + "ffn_adapter.")
        if cache is not None:
            cache.length = n_len
        y = layer_norm(y, self._p("dec.ln_out.gain"), self._p("dec.ln_out.bias"))
        proj = self._linear(y, "dec.out_proj")
        return proj, attn_maps

    def forward(self, frames, tokens, frame_mask=None) -> ForwardOut:
        """Teacher-forced pass over a batch: `encode`, then every decoder row
        at once.

        frames: (B, T, feat_dim) float array, zero-padded; `frame_mask` (B, T)
        marks real frames. tokens: (B, N) int array, <blnk>-padded.
        """
        memory, col_mask = self.encode(frames, frame_mask)
        proj, attn_maps = self._decode_rows(tokens, memory, col_mask)
        return ForwardOut(logits=proj, attention=attn_maps)

    # -- decoding -----------------------------------------------------------------

    def greedy_decode(self, memory: Tensor, col_mask: np.ndarray | None,
                      prompt_ids: list[int],
                      max_new: int | None = None) -> list[list[int]]:
        """Greedy decoding from a shared prompt over an encoded batch;
        returns content token lists (prompt and end marker stripped).

        `memory` and `col_mask` are the output of `encode`, so a caller that
        needs the memory for more than decoding encodes once. Each decoder
        layer projects the memory to its cross-attention K/V once. The first
        step runs the prompt rows as one block; every later step runs one
        query row per sequence, whose self-attention K/V row each layer
        appends to its cache. A sequence that has emitted <eot> stays in the
        batch and keeps receiving <eot> until every sequence has, or
        `max_new` (capped by the positions left after the prompt) tokens are
        out.
        """
        c = self.config
        if memory.ndim != 3 or memory.shape[-1] != c.width:
            raise DataError(f"memory must have shape (B, T, {c.width}), got "
                            f"{memory.shape}; decode the output of encode")
        prompt_len = len(prompt_ids)
        limit = c.max_len - prompt_len
        if max_new is not None:
            limit = min(limit, max_new)
        batch = memory.shape[0]
        cache = DecoderCache(
            [self._kv(memory, f"dec.{i}.cross_attn") for i in range(c.dec_layers)],
            batch, c)
        toks = np.tile(np.asarray(prompt_ids, dtype=np.int64), (batch, 1))
        done = np.zeros(batch, dtype=bool)
        for _ in range(limit):
            proj, _ = self._decode_rows(toks, memory, col_mask, cache=cache)
            nxt = proj.data[:, -1].argmax(axis=-1)
            nxt = np.where(done, EOT, nxt)
            toks = np.concatenate([toks, nxt[:, None]], axis=1)
            done |= nxt == EOT
            if done.all():
                break
        results = []
        for row in toks:
            content = []
            for tok in row[prompt_len:]:
                if tok == EOT:
                    break
                content.append(int(tok))
            results.append(content)
        return results


class DecoderCache:
    """Per-layer decoder state of one batch under incremental decoding.

    `cross[i]` holds decoder layer i's cross-attention (K, V) heads over the
    encoder memory. Self-attention K/V rows of the `length` positions decoded
    so far sit in (B, H, max_len, head_dim) buffers, one pair per layer. The
    cache holds arrays, not graph nodes, so it serves inference only.
    """

    def __init__(self, cross: list[tuple[Tensor, Tensor]], batch: int,
                 config: ModelConfig):
        self.cross = cross
        shape = (batch, config.heads, config.max_len, config.head_dim)
        self._keys = [np.empty(shape) for _ in cross]
        self._values = [np.empty(shape) for _ in cross]
        self.length = 0

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Store layer `layer`'s K/V heads for positions `length` onward and
        return the K/V heads of every position up to the new rows."""
        if k.requires_grad or v.requires_grad:
            raise NumericError("the decoder cache records no gradients; decode outside recording")
        end = self.length + k.shape[2]
        self._keys[layer][:, :, self.length:end] = k.data
        self._values[layer][:, :, self.length:end] = v.data
        return Tensor(self._keys[layer][:, :, :end]), Tensor(self._values[layer][:, :, :end])


def _stack_frame_window(frames: np.ndarray) -> np.ndarray:
    """(B, T, F) -> (B, T, 3F): previous, current, next frame per position,
    edge-padded with zeros."""
    b, t, f = frames.shape
    out = np.zeros((b, t, 3 * f))
    out[:, :, f:2 * f] = frames
    out[:, 1:, :f] = frames[:, :-1]
    out[:, :-1, 2 * f:] = frames[:, 1:]
    return out

