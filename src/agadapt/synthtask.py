"""Self-contained bilingual "speech" substitute.

Utterances pair a frame matrix (noisy per-word cluster means) with a token
reference. Language A words live in clusters offset +2 along the first half
of the feature space, language B words offset -2, so the languages are
linearly separable while individual words stay confusable under noise.

A split is two files: `<split>.manifest`, a `config.read_records` file: a
JSON header line (`format` 3, `split`, the split read, `count` and `spec`),
then one line per utterance, `uid kind ids T` separated by tabs, the ids
separated by spaces and T >= 1 the frame count, named `<manifest>:<line>` if
refused; and `<split>.frames`, each utterance's T x F little-endian float32
frames (F the spec's `feat_dim`) in manifest order and nothing else, so a
file of more or fewer bytes than its lines count is refused. A word's
language follows from its id (see `model`), so the ids are the whole
reference, and their languages decide the utterance's kind
(`Utterance.kind`), which the kind column repeats.

Also home to the edit-distance scorer and the per-language error-rate report
used for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import config
from .atomicio import atomic_write
from .errors import ConfigError, DataError
from .model import LANG_A, LANG_B, PROMPTS, TokenSequence, Vocabulary

KIND_MONO_A = "mono-a"
KIND_MONO_B = "mono-b"
KIND_CS = "cs"
KINDS = (KIND_MONO_A, KIND_MONO_B, KIND_CS)

SPLIT_SIZES = {
    "pretrain": 2000,
    "adapt": 1000,
    "valid": 200,
    "test-mono-a": 200,
    "test-mono-b": 200,
    "test-cs": 200,
}

_CS_RESAMPLE_LIMIT = 64

MANIFEST_FORMAT = 3


@dataclass(frozen=True)
class SynthSpec:
    words_per_language: int = 40
    feat_dim: int = 16
    frames_min: int = 2
    frames_max: int = 4
    offset: float = 2.0
    noise: float = 0.3
    switch_prob: float = 0.35
    words_min: int = 3
    words_max: int = 10
    seed: int = 0

    def __post_init__(self):
        # each bound is the condition that must hold, negated, so NaN fails it
        if not math.isfinite(self.offset):
            raise ConfigError(f"offset must be finite, got {self.offset}")
        if not self.noise >= 0:
            raise ConfigError(f"noise must be non-negative, got {self.noise}")
        if not 0.0 <= self.switch_prob <= 1.0:
            raise ConfigError("switch probability must lie in [0, 1]")
        if not 1 <= self.words_min <= self.words_max:
            raise ConfigError("utterance word counts need 1 <= words_min <= words_max")
        if not 1 <= self.frames_min <= self.frames_max:
            raise ConfigError("frames per word need 1 <= frames_min <= frames_max")
        if not (self.words_per_language >= 1 and self.feat_dim >= 2):
            raise ConfigError("need at least one word per language and feat_dim >= 2")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class WordBank:
    """Per-word cluster means in feature space, derived from the spec seed."""

    def __init__(self, spec: SynthSpec, vocab: Vocabulary):
        rng = np.random.default_rng([spec.seed, 0])
        half = spec.feat_dim // 2
        means_a = rng.normal(size=(vocab.n_words_a, spec.feat_dim))
        means_a[:, :half] += spec.offset
        means_b = rng.normal(size=(vocab.n_words_b, spec.feat_dim))
        means_b[:, :half] -= spec.offset
        self._means: dict[int, np.ndarray] = {}
        for i, word_id in enumerate(vocab.word_ids(LANG_A)):
            self._means[word_id] = means_a[i]
        for i, word_id in enumerate(vocab.word_ids(LANG_B)):
            self._means[word_id] = means_b[i]

    def mean(self, word_id: int) -> np.ndarray:
        if word_id not in self._means:
            raise DataError(f"unknown word token {word_id}")
        return self._means[word_id]


def render_features(word_id: int, spec: SynthSpec, rng, bank: WordBank) -> np.ndarray:
    """Frame block for one word: cluster mean plus Gaussian noise."""
    mean = bank.mean(word_id)
    count = int(rng.integers(spec.frames_min, spec.frames_max + 1))
    if spec.noise == 0:
        return np.tile(mean, (count, 1))
    return mean + rng.normal(0.0, spec.noise, size=(count, spec.feat_dim))


@dataclass
class Utterance:
    uid: str
    frames: np.ndarray  # (T, feat_dim)
    reference: TokenSequence

    @property
    def words(self) -> list[int]:
        return [self.reference.ids[i] for i in self.reference.word_positions]

    @property
    def kind(self) -> str:
        """mono-a or mono-b when every word is of language A or B, cs when
        both occur; a reference without words raises DataError."""
        langs = set(self.reference.lang_tags) - {None}
        if not langs:
            raise DataError(f"{self.uid}: reference holds no word")
        return KIND_CS if len(langs) > 1 else KIND_MONO_A if LANG_A in langs else KIND_MONO_B

    @property
    def lang(self) -> str | None:
        """Utterance language for monolingual kinds."""
        return {KIND_MONO_A: LANG_A, KIND_MONO_B: LANG_B}.get(self.kind)

    def validate(self) -> None:
        # the bilingual prompt, or a monolingual utterance's own language's
        if not any(tuple(self.reference.ids[:len(p)]) == p
                   for p in (PROMPTS[None], PROMPTS[self.lang])):
            raise DataError(f"{self.uid}: {self.kind} utterance opens with the "
                            f"prompt of another language")


def _language_pattern(spec: SynthSpec, kind: str, count: int, rng) -> list[str]:
    if kind == KIND_MONO_A:
        return [LANG_A] * count
    if kind == KIND_MONO_B:
        return [LANG_B] * count
    if kind != KIND_CS:
        raise DataError(f"unknown utterance kind {kind!r}")
    # Code-switched utterances are guaranteed bilingual: rejection-sample the
    # flip pattern, then force one switch if sampling never produced one
    # (e.g. switch_prob = 0).
    for _ in range(_CS_RESAMPLE_LIMIT):
        langs = [LANG_A if rng.random() < 0.5 else LANG_B]
        for _ in range(count - 1):
            flip = rng.random() < spec.switch_prob
            langs.append(_other(langs[-1]) if flip else langs[-1])
        if len(set(langs)) == 2:
            return langs
    pos = int(rng.integers(0, count))
    langs[pos] = _other(langs[pos])
    return langs


def _other(lang: str) -> str:
    return LANG_B if lang == LANG_A else LANG_A


def generate_utterance(spec: SynthSpec, kind: str, uid: str, vocab: Vocabulary,
                       bank: WordBank, prompt_lang_form: bool = False) -> Utterance:
    """Draw one utterance from the (seed, uid)-keyed stream.

    `prompt_lang_form` selects the monolingual prompt (used by the backbone
    pretraining corpus); otherwise the bilingual prompt is used.
    """
    rng = np.random.default_rng([spec.seed, 1, _uid_key(uid)])
    count = int(rng.integers(spec.words_min, spec.words_max + 1))
    langs = _language_pattern(spec, kind, count, rng)
    words = []
    blocks = []
    for lang in langs:
        pool = vocab.word_ids(lang)
        word = pool[int(rng.integers(0, len(pool)))]
        words.append(word)
        blocks.append(render_features(word, spec, rng, bank))
    frames = np.concatenate(blocks, axis=0)
    if prompt_lang_form and kind == KIND_CS:
        raise DataError("monolingual prompt form requires a monolingual utterance")
    ref = TokenSequence.from_words(vocab, words, langs[0] if prompt_lang_form else None)
    return Utterance(uid=uid, frames=frames, reference=ref)


def _uid_key(uid: str) -> int:
    digits = "".join(ch for ch in uid if ch.isdigit())
    return int(digits) if digits else 0


def generate_corpus(spec: SynthSpec, vocab: Vocabulary,
                    sizes: Mapping[str, int] | None = None) -> dict[str, list[Utterance]]:
    """All six splits as a pure function of (spec, seed).

    pretrain alternates the two monolingual kinds; adapt and valid mix
    code-switched and monolingual utterances 70/30; the test splits are pure.
    """
    sizes = dict(SPLIT_SIZES if sizes is None else sizes)
    bank = WordBank(spec, vocab)
    corpus: dict[str, list[Utterance]] = {}
    serial = 0

    def mono_kind(i: int) -> str:
        return KIND_MONO_A if i % 2 == 0 else KIND_MONO_B

    def draw(kind: str, mono_prompt: bool) -> Utterance:
        nonlocal serial
        uid = f"u{serial:06d}"
        serial += 1
        return generate_utterance(spec, kind, uid, vocab, bank,
                                  prompt_lang_form=mono_prompt)

    corpus["pretrain"] = [draw(mono_kind(i), True)
                          for i in range(sizes["pretrain"])]
    for split in ("adapt", "valid"):
        utts = []
        for i in range(sizes[split]):
            kind = KIND_CS if i % 10 < 7 else mono_kind(i)
            utts.append(draw(kind, False))
        corpus[split] = utts
    corpus["test-mono-a"] = [draw(KIND_MONO_A, False)
                             for _ in range(sizes["test-mono-a"])]
    corpus["test-mono-b"] = [draw(KIND_MONO_B, False)
                             for _ in range(sizes["test-mono-b"])]
    corpus["test-cs"] = [draw(KIND_CS, False)
                         for _ in range(sizes["test-cs"])]
    return corpus


# ---------------------------------------------------------------------------
# Manifest + frame-file persistence
# ---------------------------------------------------------------------------

def write_corpus(out_dir, spec: SynthSpec, vocab: Vocabulary,
                 corpus: Mapping[str, list[Utterance]]) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split, utts in corpus.items():
        with atomic_write(out_dir / f"{split}.frames", "wb") as fh:
            for utt in utts:
                fh.write(utt.frames.astype("<f4").tobytes())
        config.write_records(out_dir / f"{split}.manifest", {
            "format": MANIFEST_FORMAT, "split": split, "count": len(utts), "spec": asdict(spec),
        }, (f"{utt.uid}\t{utt.kind}\t{' '.join(map(str, utt.reference.ids))}\t{len(utt.frames)}"
            for utt in utts))


def read_split(data_dir, split: str, expected_vocab: Vocabulary | None = None
               ) -> tuple[SynthSpec, Vocabulary, list[Utterance]]:
    """The spec, vocabulary and utterances of `split`. A model scores ids of its
    own vocabulary only, so a corpus unlike `expected_vocab` raises DataError."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / f"{split}.manifest"
    frames_path = data_dir / f"{split}.frames"
    if not manifest_path.exists() or not frames_path.exists():
        raise DataError(f"missing split {split!r} under {data_dir}")
    header, lines = config.read_records(
        manifest_path, {"split": str, "count": int, "spec": SynthSpec}, MANIFEST_FORMAT,
        "manifest", "generate the corpus again with gen-data")
    if header["split"] != split:
        raise DataError(f"{manifest_path} names split {header['split']!r}, not {split!r}")
    spec, count = header["spec"], header["count"]
    n = spec.words_per_language
    vocab = Vocabulary.build(n, n)
    want = expected_vocab or vocab
    if (want.n_words_a, want.n_words_b) != (n, n):
        raise DataError(f"the checkpoint has {want.n_words_a}+{want.n_words_b} words per "
                        f"language, the corpus under {data_dir} {n}+{n}")
    blob = frames_path.read_bytes()
    feat = spec.feat_dim
    offset = 0
    utts: list[Utterance] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, 2):
        try:
            try:
                uid, kind, ids_s, t_s = line.split("\t")
                ids = [int(x) for x in ids_s.split()]
                t = int(t_s)
            except ValueError as exc:
                raise DataError("malformed manifest line") from exc
            if uid in seen:
                raise DataError(f"utterance id {uid!r} repeats")
            seen.add(uid)
            if kind not in KINDS:
                raise DataError(f"unknown utterance kind {kind!r}")
            ref = TokenSequence.from_ids(vocab, ids)
            if t < 1:
                raise DataError(f"{uid} holds {t} frames, not at least 1")
            if offset + 4 * t * feat > len(blob):
                raise DataError(f"{frames_path} ends inside {uid}'s frames")
            frames = np.frombuffer(blob, "<f4", t * feat, offset).astype(np.float64)
            offset += 4 * t * feat
            if not np.isfinite(frames).all():
                raise DataError(f"frame record for {uid} holds a non-finite value")
            utt = Utterance(uid=uid, frames=frames.reshape(t, feat), reference=ref)
            if utt.kind != kind:
                raise DataError(f"{uid}: code-switched utterance must mix languages"
                                if kind == KIND_CS else f"{uid}: {kind} utterance carries "
                                f"tags {set(ref.lang_tags) - {None}}")
            utt.validate()
        except DataError as exc:
            raise DataError(f"{manifest_path}:{lineno}: {exc}") from exc
        utts.append(utt)
    if len(utts) != count:
        raise DataError(f"manifest count mismatch in {manifest_path}")
    if offset != len(blob):
        raise DataError(f"{frames_path} holds {len(blob) - offset} bytes no manifest line counts")
    return spec, vocab, utts


# ---------------------------------------------------------------------------
# Edit distance and error rates
# ---------------------------------------------------------------------------

class EditCounts(NamedTuple):
    distance: int
    substitutions: int
    deletions: int
    insertions: int


def edit_distance(ref: list, hyp: list) -> EditCounts:
    """Levenshtein distance with a deterministic traceback.

    On ties the traceback prefers substitution over deletion over insertion.
    Deletions are reference tokens absent from the hypothesis; insertions are
    extra hypothesis tokens.
    """
    n, m = len(ref), len(hyp)
    dist = [list(range(m + 1))]  # rows of Python ints: indexing numpy scalars was 3x slower
    for i in range(1, n + 1):
        prev, row = dist[-1], [i]
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            row.append(min(prev[j - 1] + cost, prev[j] + 1, row[j - 1] + 1))
        dist.append(row)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            if dist[i][j] == dist[i - 1][j - 1] + cost:
                subs += cost
                i -= 1
                j -= 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dels += 1
            i -= 1
            continue
        ins += 1
        j -= 1
    return EditCounts(distance=dist[n][m], substitutions=subs,
                      deletions=dels, insertions=ins)


@dataclass
class MerReport:
    """Percent error rates per test-set kind plus the corpus-weighted total."""

    per_kind: dict[str, float]
    overall: float
    errors: dict[str, int]
    tokens: dict[str, int]


def mixed_error_rate(refs: Mapping[str, list[int]], hyps: Mapping[str, list[int]],
                     kinds: Mapping[str, str]) -> MerReport:
    """Token error rates grouped by utterance kind.

    `refs` and `hyps` are keyed by utterance id and must cover the same ids;
    `kinds` assigns each id to one of the three kinds. Rates are percentages:
    total edit distance over total reference tokens, per kind and overall.
    """
    if set(refs) != set(hyps):
        raise DataError("reference and hypothesis utterance ids differ")
    errors: dict[str, int] = {}
    tokens: dict[str, int] = {}
    for uid in sorted(refs):
        kind = kinds[uid]
        counts = edit_distance(refs[uid], hyps[uid])
        errors[kind] = errors.get(kind, 0) + counts.distance
        tokens[kind] = tokens.get(kind, 0) + len(refs[uid])
    per_kind = {}
    for kind in errors:
        if tokens[kind] == 0:
            raise DataError(f"kind {kind!r} has no reference tokens")
        per_kind[kind] = 100.0 * errors[kind] / tokens[kind]
    total_tokens = sum(tokens.values())
    overall = 100.0 * sum(errors.values()) / total_tokens if total_tokens else 0.0
    return MerReport(per_kind=per_kind, overall=overall, errors=errors, tokens=tokens)
