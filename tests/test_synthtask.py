"""Corpus generation, manifests, edit distance, and error rates."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agadapt.errors import ConfigError, DataError
from agadapt.model import LANG_A, LANG_B, TokenSequence, Vocabulary
from agadapt.synthtask import (
    KIND_CS,
    KIND_MONO_A,
    KIND_MONO_B,
    SynthSpec,
    Utterance,
    WordBank,
    edit_distance,
    generate_corpus,
    generate_utterance,
    mixed_error_rate,
    read_split,
    render_features,
    write_corpus,
)

VOCAB = Vocabulary.build(6, 6)
SPEC = SynthSpec(words_per_language=6, seed=11)
BANK = WordBank(SPEC, VOCAB)

SIZES = {"pretrain": 8, "adapt": 10, "valid": 6, "test-mono-a": 4,
         "test-mono-b": 4, "test-cs": 4}


class TestGeneration:
    def test_monolingual_kinds_pure(self):
        utt = generate_utterance(SPEC, KIND_MONO_A, "u1", VOCAB, BANK)
        tags = {t for t in utt.reference.lang_tags if t}
        assert tags == {LANG_A}
        utt = generate_utterance(SPEC, KIND_MONO_B, "u2", VOCAB, BANK)
        assert {t for t in utt.reference.lang_tags if t} == {LANG_B}

    def test_cs_guaranteed_bilingual_even_at_p0(self):
        spec = SynthSpec(words_per_language=6, switch_prob=0.0, seed=3)
        bank = WordBank(spec, VOCAB)
        for i in range(10):
            utt = generate_utterance(spec, KIND_CS, f"u{i}", VOCAB, bank)
            tags = {t for t in utt.reference.lang_tags if t}
            assert tags == {LANG_A, LANG_B}

    def test_p1_strictly_alternates(self):
        spec = SynthSpec(words_per_language=6, switch_prob=1.0, seed=4)
        bank = WordBank(spec, VOCAB)
        for i in range(5):
            utt = generate_utterance(spec, KIND_CS, f"u{i}", VOCAB, bank)
            tags = [t for t in utt.reference.lang_tags if t]
            for a, b in zip(tags, tags[1:]):
                assert a != b

    def test_seed_determinism_byte_identical(self, tmp_path):
        c1 = generate_corpus(SPEC, VOCAB, SIZES)
        c2 = generate_corpus(SPEC, VOCAB, SIZES)
        write_corpus(tmp_path / "a", SPEC, VOCAB, c1)
        write_corpus(tmp_path / "b", SPEC, VOCAB, c2)
        for split in SIZES:
            for ext in (".manifest", ".frames"):
                fa = (tmp_path / "a" / (split + ext)).read_bytes()
                fb = (tmp_path / "b" / (split + ext)).read_bytes()
                assert fa == fb, (split, ext)

    def test_frame_counts_in_range(self):
        utt = generate_utterance(SPEC, KIND_CS, "u9", VOCAB, BANK)
        n_words = len(utt.words)
        t = utt.frames.shape[0]
        assert SPEC.frames_min * n_words <= t <= SPEC.frames_max * n_words

    def test_word_count_in_range(self):
        for i in range(20):
            utt = generate_utterance(SPEC, KIND_CS, f"u{i}", VOCAB, BANK)
            assert SPEC.words_min <= len(utt.words) <= SPEC.words_max

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(noise=-0.1)
        with pytest.raises(ConfigError):
            SynthSpec(switch_prob=1.5)
        with pytest.raises(ConfigError):
            SynthSpec(words_min=5, words_max=3)
        with pytest.raises(ConfigError, match="need 1 <= frames_min <= frames_max"):
            SynthSpec(frames_min=3, frames_max=2)
        with pytest.raises(ConfigError, match="noise must be non-negative, got nan"):
            SynthSpec(noise=float("nan"))
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match=f"offset must be finite, got {value}"):
                SynthSpec(offset=value)


class TestValidate:
    # VOCAB: ids 7-12 are language A's words, 13-18 language B's
    @pytest.mark.parametrize("kind, words, prompt", [
        (KIND_MONO_A, [7, 8], None), (KIND_MONO_A, [7, 8], LANG_A),
        (KIND_MONO_B, [13, 14], None), (KIND_MONO_B, [13, 14], LANG_B),
        (KIND_CS, [7, 13], None),
    ])
    def test_prompt_of_the_kind_accepted(self, kind, words, prompt):
        ref = TokenSequence.from_words(VOCAB, words, prompt)
        utt = Utterance(uid="u1", frames=np.zeros((2, 2)), reference=ref)
        assert utt.kind == kind
        utt.validate()

    @pytest.mark.parametrize("kind, words, prompt", [
        (KIND_MONO_A, [7, 8], LANG_B), (KIND_MONO_B, [13, 14], LANG_A),
        (KIND_CS, [7, 13], LANG_A), (KIND_CS, [7, 13], LANG_B),
    ])
    def test_prompt_of_another_language_rejected(self, kind, words, prompt):
        ref = TokenSequence.from_words(VOCAB, words, prompt)
        utt = Utterance(uid="u1", frames=np.zeros((2, 2)), reference=ref)
        with pytest.raises(DataError, match=f"u1: {kind} utterance opens with the prompt"):
            utt.validate()

    @pytest.mark.parametrize("words, kind, lang", [
        ([7, 8, 12], KIND_MONO_A, LANG_A), ([13, 18], KIND_MONO_B, LANG_B),
        ([13, 7, 13], KIND_CS, None), ([7, 13, 14], KIND_CS, None),
    ])
    def test_kind_follows_from_the_reference_words(self, words, kind, lang):
        utt = Utterance(uid="u1", frames=np.zeros((2, 2)),
                        reference=TokenSequence.from_words(VOCAB, words))
        assert (utt.kind, utt.lang) == (kind, lang)

    def test_reference_without_words_has_no_kind(self):
        utt = Utterance(uid="u1", frames=np.zeros((2, 2)),
                        reference=TokenSequence.from_words(VOCAB, []))
        with pytest.raises(DataError, match="u1: reference holds no word"):
            utt.kind


class TestFeatures:
    def test_zero_noise_equals_means(self):
        spec = SynthSpec(words_per_language=6, noise=0.0, seed=2)
        bank = WordBank(spec, VOCAB)
        rng = np.random.default_rng(0)
        word = VOCAB.word_ids(LANG_A)[2]
        frames = render_features(word, spec, rng, bank)
        for row in frames:
            assert np.array_equal(row, bank.mean(word))

    def test_unknown_word_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            render_features(0, SPEC, rng, BANK)  # special token, no cluster

    def test_languages_linearly_separable_noiseless(self):
        spec = SynthSpec(words_per_language=6, noise=0.0, seed=7)
        bank = WordBank(spec, VOCAB)
        centroid_a = np.mean([bank.mean(w) for w in VOCAB.word_ids(LANG_A)], axis=0)
        centroid_b = np.mean([bank.mean(w) for w in VOCAB.word_ids(LANG_B)], axis=0)
        hits = 0
        total = 0
        for lang, centroid in ((LANG_A, centroid_a), (LANG_B, centroid_b)):
            for w in VOCAB.word_ids(lang):
                m = bank.mean(w)
                da = np.linalg.norm(m - centroid_a)
                db = np.linalg.norm(m - centroid_b)
                predicted = LANG_A if da < db else LANG_B
                hits += predicted == lang
                total += 1
        assert hits == total

    def test_word_centroid_classifier_perfect_noiseless(self):
        spec = SynthSpec(words_per_language=6, noise=0.0, seed=7)
        bank = WordBank(spec, VOCAB)
        words = VOCAB.word_ids(LANG_A) + VOCAB.word_ids(LANG_B)
        rng = np.random.default_rng(1)
        for w in words:
            frames = render_features(w, spec, rng, bank)
            dists = {u: np.linalg.norm(frames[0] - bank.mean(u)) for u in words}
            assert min(dists, key=dists.get) == w


class TestManifest:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(SPEC, VOCAB, SIZES)
        write_corpus(tmp_path, SPEC, VOCAB, corpus)
        for split in SIZES:
            spec2, vocab2, utts = read_split(tmp_path, split)
            assert spec2 == SPEC
            assert vocab2.size == VOCAB.size
            assert len(utts) == SIZES[split]
            for orig, loaded in zip(corpus[split], utts):
                assert orig.uid == loaded.uid
                assert orig.kind == loaded.kind
                assert orig.reference.ids == loaded.reference.ids
                # derived from the ids on reading, equal to the generated tags
                assert orig.reference.lang_tags == loaded.reference.lang_tags
                # frames stored as f32
                np.testing.assert_allclose(orig.frames, loaded.frames, atol=1e-6)

    def test_missing_split_errors(self, tmp_path):
        with pytest.raises(DataError):
            read_split(tmp_path, "pretrain")

    # fields: uid, kind, ids, offset, length
    @pytest.mark.parametrize("corrupt", [
        lambda f: f[:4],                                  # four fields
        lambda f: f + ["extra"],                          # six fields
        lambda f: f[:2] + ["0 x 2"] + f[3:],              # non-integer id
        lambda f: f[:4] + ["long"],                       # non-integer length
        lambda f: f[:3] + ["99999999", f[4]],             # offset past the end
    ])
    def test_malformed_manifest_line(self, tmp_path, corrupt):
        write_corpus(tmp_path, SPEC, VOCAB, generate_corpus(SPEC, VOCAB, SIZES))
        path = tmp_path / "adapt.manifest"
        lines = path.read_text().splitlines()
        lines[2] = "\t".join(corrupt(lines[2].split("\t")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            read_split(tmp_path, "adapt")

    @pytest.mark.parametrize("header", [
        "not json", "[1, 2]", '{"count": 10}', '{"spec": {"colour": 1}, "count": 10}',
        '{"spec": {"noise": -1.0}, "count": 10}',
    ])
    def test_malformed_manifest_header(self, tmp_path, header):
        write_corpus(tmp_path, SPEC, VOCAB, generate_corpus(SPEC, VOCAB, SIZES))
        path = tmp_path / "adapt.manifest"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(DataError):
            read_split(tmp_path, "adapt")

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["spec"].update(words_per_language=6.0),
         "words_per_language must be a JSON int, got 6.0"),
        (lambda h: h["spec"].update(words_per_language=True),
         "words_per_language must be a JSON int, got True"),
        (lambda h: h["spec"].update(words_per_language="6"),
         "words_per_language must be a JSON int, got '6'"),
        (lambda h: h["spec"].update(noise=float("nan")), "noise must be a JSON float"),
        (lambda h: h.update(count=10.0), "count must be a JSON int"),
        (lambda h: h.pop("split"), r"lacks \['split'\]"),
        (lambda h: h.update(colour=1), r"unknown keys \['colour'\]"),
        (lambda h: h["spec"].pop("seed"), r"spec has unknown keys \[\] and lacks \['seed'\]"),
        (lambda h: h.update(split="valid"), "names split 'valid', not 'adapt'"),
        (lambda h: h["spec"].update(seed=-1), "spec: seed must be non-negative, got -1"),
    ], ids=["float-words", "bool-words", "string-words", "nan-noise", "float-count",
            "missing-key", "unknown-key", "missing-spec-key", "other-split", "negative-seed"])
    def test_header_value_checked(self, tmp_path, edit, message):
        write_corpus(tmp_path, SPEC, VOCAB, generate_corpus(SPEC, VOCAB, SIZES))
        path = tmp_path / "adapt.manifest"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(DataError, match=message):
            read_split(tmp_path, "adapt")

    # fields: uid, kind, ids, offset, length; line 1 is mono-a, its ids
    # the monolingual prompt (4 ids), words, <eot>
    @pytest.mark.parametrize("corrupt, message", [
        (lambda f: f[:1] + ["mono-z"] + f[2:], "unknown utterance kind"),
        (lambda f: f[:1] + ["mono-b"] + f[2:], "mono-b utterance carries tags"),
        (lambda f: f[:2] + [" ".join(f[2].split()[:4] + ["13"] + f[2].split()[5:])] + f[3:],
         "mono-a utterance carries tags"),
        # the <en> prompt before language-A words
        (lambda f: f[:2] + [" ".join(["0", "2"] + f[2].split()[2:])] + f[3:],
         "mono-a utterance opens with the prompt of another language"),
        (lambda f: f[:1] + ["cs"] + f[2:], "code-switched utterance must mix languages"),
        # the prompt and <eot> alone
        (lambda f: f[:2] + [" ".join(f[2].split()[:4] + f[2].split()[-1:])] + f[3:],
         "reference holds no word"),
    ])
    def test_bad_kind_or_tag_count(self, tmp_path, corrupt, message):
        write_corpus(tmp_path, SPEC, VOCAB, generate_corpus(SPEC, VOCAB, SIZES))
        path = tmp_path / "pretrain.manifest"
        lines = path.read_text().splitlines()
        lines[1] = "\t".join(corrupt(lines[1].split("\t")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            read_split(tmp_path, "pretrain")

    @pytest.mark.parametrize("frames, message", [
        (np.zeros((3, SPEC.feat_dim // 2)), "3 frames of 8 features"),
        (np.zeros((0, SPEC.feat_dim)), "0 frames of 16 features"),
    ], ids=["narrow-frames", "no-frames"])
    def test_frame_record_must_fit_the_spec(self, tmp_path, frames, message):
        corpus = generate_corpus(SPEC, VOCAB, SIZES)
        corpus["test-cs"][1].frames = frames
        write_corpus(tmp_path, SPEC, VOCAB, corpus)
        with pytest.raises(DataError, match=message):
            read_split(tmp_path, "test-cs")

    def test_expected_vocabulary_must_match(self, tmp_path):
        write_corpus(tmp_path, SPEC, VOCAB, generate_corpus(SPEC, VOCAB, SIZES))
        assert len(read_split(tmp_path, "adapt", VOCAB)[2]) == SIZES["adapt"]
        with pytest.raises(DataError, match=f"the checkpoint has 8\\+6 words per language, "
                                            f"the corpus under {tmp_path} 6\\+6"):
            read_split(tmp_path, "adapt", Vocabulary.build(8, 6))

    def test_failed_write_keeps_previous_corpus(self, tmp_path):
        corpus = generate_corpus(SPEC, VOCAB, SIZES)
        write_corpus(tmp_path, SPEC, VOCAB, corpus)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        broken = dict(corpus)
        broken["adapt"] = corpus["adapt"][:3] + [None]  # fails partway through
        with pytest.raises(AttributeError):
            write_corpus(tmp_path, SPEC, VOCAB, broken)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# ---------------------------------------------------------------------------
# Edit distance
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def recursive_distance(ref: tuple, hyp: tuple) -> int:
    """Plain recursive definition, memoised; independent of the DP + traceback
    implementation under test."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    sub = recursive_distance(ref[1:], hyp[1:]) + (ref[0] != hyp[0])
    dele = recursive_distance(ref[1:], hyp) + 1
    ins = recursive_distance(ref, hyp[1:]) + 1
    return min(sub, dele, ins)


def all_sequences(alphabet, max_len):
    seqs = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (a,) for s in frontier for a in alphabet]
        seqs.extend(frontier)
    return seqs


class TestEditDistance:
    def test_identical_zero(self):
        c = edit_distance([1, 2, 3], [1, 2, 3])
        assert c == (0, 0, 0, 0)

    def test_single_substitution(self):
        c = edit_distance(["a", "b", "c"], ["a", "x", "c"])
        assert c.distance == 1 and c.substitutions == 1
        assert c.deletions == 0 and c.insertions == 0

    def test_counts_sum_to_distance_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            ref = list(rng.integers(0, 4, rng.integers(0, 8)))
            hyp = list(rng.integers(0, 4, rng.integers(0, 8)))
            c = edit_distance(ref, hyp)
            assert c.substitutions + c.deletions + c.insertions == c.distance
            assert c.distance == recursive_distance(tuple(ref), tuple(hyp))

    def test_exhaustive_short_pairs(self):
        # the full length<=5 sweep lives in the acceptance suite
        seqs = all_sequences((0, 1, 2), 3)
        for ref in seqs:
            for hyp in seqs:
                assert edit_distance(list(ref), list(hyp)).distance == \
                    recursive_distance(ref, hyp)

    @given(st.lists(st.integers(0, 2), max_size=6),
           st.lists(st.integers(0, 2), max_size=6),
           st.lists(st.integers(0, 2), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_metric_properties(self, a, b, c):
        dab = edit_distance(a, b).distance
        dba = edit_distance(b, a).distance
        assert dab == dba
        assert (dab == 0) == (a == b)
        dac = edit_distance(a, c).distance
        dcb = edit_distance(c, b).distance
        assert dab <= dac + dcb


class TestMixedErrorRate:
    def test_perfect_hypotheses(self):
        refs = {"u1": [1, 2], "u2": [3]}
        hyps = {"u1": [1, 2], "u2": [3]}
        kinds = {"u1": KIND_MONO_A, "u2": KIND_CS}
        report = mixed_error_rate(refs, hyps, kinds)
        assert report.overall == 0.0
        assert all(v == 0.0 for v in report.per_kind.values())

    def test_one_substitution_in_ten(self):
        refs = {"u1": list(range(10))}
        hyps = {"u1": [99] + list(range(1, 10))}
        report = mixed_error_rate(refs, hyps, {"u1": KIND_CS})
        assert report.per_kind[KIND_CS] == pytest.approx(10.0)
        assert report.overall == pytest.approx(10.0)

    def test_matches_per_utterance_oracle(self):
        rng = np.random.default_rng(5)
        refs, hyps, kinds = {}, {}, {}
        for i in range(30):
            uid = f"u{i}"
            refs[uid] = list(rng.integers(0, 5, rng.integers(1, 9)))
            hyps[uid] = list(rng.integers(0, 5, rng.integers(0, 9)))
            kinds[uid] = (KIND_MONO_A, KIND_MONO_B, KIND_CS)[i % 3]
        report = mixed_error_rate(refs, hyps, kinds)
        for kind in (KIND_MONO_A, KIND_MONO_B, KIND_CS):
            err = sum(recursive_distance(tuple(refs[u]), tuple(hyps[u]))
                      for u in refs if kinds[u] == kind)
            tok = sum(len(refs[u]) for u in refs if kinds[u] == kind)
            assert report.per_kind[kind] == pytest.approx(100.0 * err / tok)
        total_err = sum(report.errors.values())
        total_tok = sum(report.tokens.values())
        assert report.overall == pytest.approx(100.0 * total_err / total_tok)

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        refs = {f"u{i}": list(rng.integers(0, 3, 5)) for i in range(10)}
        hyps = {f"u{i}": list(rng.integers(0, 3, 5)) for i in range(10)}
        kinds = {f"u{i}": KIND_CS for i in range(10)}
        a = mixed_error_rate(refs, hyps, kinds)
        shuffled = dict(reversed(list(refs.items())))
        b = mixed_error_rate(shuffled, hyps, kinds)
        assert a.overall == b.overall

    def test_id_mismatch_errors(self):
        with pytest.raises(DataError):
            mixed_error_rate({"u1": [1]}, {"u2": [1]}, {"u1": KIND_CS})
