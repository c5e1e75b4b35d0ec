import random
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from treelang import formats
from treelang.core import ValidationError
from treelang.formats import (
    check,
    derivor_from_doc,
    derivor_to_doc,
    dump_document,
    hyperderivor_from_doc,
    hyperderivor_to_doc,
    partition_from_doc,
    partition_to_doc,
    recognizer_from_doc,
    recognizer_to_doc,
    signature_from_doc,
    signature_to_doc,
)
from treelang.congruence import partition
from treelang.recognizer import equivalent, recognizer

from conftest import (
    check_branch,
    random_derivor,
    random_hyperderivor,
    random_recognizer,
    random_rich_signature,
    random_signature,
    retrying,
)

# bounded and seeded so tier-1 stays fast and repeatable
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestSignatureDocs:
    def test_roundtrip(self, f1, x1):
        doc = signature_to_doc(f1, x1)
        sig, vars = signature_from_doc(doc)
        assert sig == f1 and vars == x1

    def test_missing_key(self):
        with pytest.raises(ValidationError):
            signature_from_doc({"sorts": ["s"]})

    def test_exact_key_names(self, f1, x1):
        doc = signature_to_doc(f1, x1)
        assert set(doc) == {"sorts", "ops", "vars"}
        assert set(doc["ops"][0]) == {"name", "arity", "result"}


class TestRecognizerDocs:
    def test_roundtrip(self, r_par):
        doc = recognizer_to_doc(r_par)
        back = recognizer_from_doc(doc)
        assert back.algebra == r_par.algebra
        assert back.assignment == r_par.assignment
        assert back.accepting == r_par.accepting

    def test_serialization_stable(self, r_par):
        text1 = dump_document(recognizer_to_doc(r_par))
        text2 = dump_document(recognizer_to_doc(r_par))
        assert text1 == text2

    def test_mixed_radix_order_is_normative(self, r_par):
        doc = recognizer_to_doc(r_par)
        # sigma table rows: (0,0),(0,1),(1,0),(1,1) with the last argument fastest
        assert doc["tables"]["sigma"] == [0, 1, 1, 0]

    def test_bad_table_rejected(self, r_par):
        doc = recognizer_to_doc(r_par)
        doc["tables"]["g"] = [5, 0]
        with pytest.raises(ValidationError):
            recognizer_from_doc(doc)


class TestHyperderivorDocs:
    def test_roundtrip(self, h1, f1, x1, f2, x2):
        doc = hyperderivor_to_doc(h1)
        back = hyperderivor_from_doc(doc, f2, x2, f1, x1)
        assert back == h1

    def test_doc_shape(self, h1):
        doc = hyperderivor_to_doc(h1)
        assert set(doc) == {"sort_map", "patterns", "var_images"}
        assert doc["patterns"]["iszero"] == "sigma(v0,c)"


class TestDerivorDocs:
    def test_roundtrip(self, d1, f1, f2):
        doc = derivor_to_doc(d1)
        back = derivor_from_doc(doc, f2, f1)
        assert back == d1

    def test_doc_shape(self, d1):
        doc = derivor_to_doc(d1)
        assert set(doc) == {"sort_map", "patterns"}


class TestMorphismDocFaults:
    """A document's sort map is checked before its patterns are read, so a
    sort map naming an unknown target sort says so, whichever sort it maps."""

    @pytest.mark.parametrize("source_sort", ["e", "b"])
    def test_unknown_target_sort(self, h1, d1, f1, x1, f2, x2, source_sort):
        for doc, read in (
            (hyperderivor_to_doc(h1), lambda doc: hyperderivor_from_doc(doc, f2, x2, f1, x1)),
            (derivor_to_doc(d1), lambda doc: derivor_from_doc(doc, f2, f1)),
        ):
            doc["sort_map"][source_sort] = "t"
            with pytest.raises(ValidationError, match="^sort map hits unknown target sort 't'$"):
                read(doc)


class TestPartitionDocs:
    def test_roundtrip(self):
        p = partition(["s", "t"], {"s": [0, 0, 1], "t": [0]})
        doc = partition_to_doc(p)
        assert doc == {"s": [0, 0, 1], "t": [0]}
        assert partition_from_doc(doc, ["s", "t"]) == p

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"s": [0, 1.5]}, "s[1] must be an integer, got 1.5"),
            ({"s": [0], "u": [0]}, "document has unknown key 'u'"),
            ({"s": 0}, "s must be a list, got int"),
            ([0, 1], "document must be a mapping, got list"),
        ],
    )
    def test_rejected(self, doc, message):
        with pytest.raises(ValidationError, match=message.replace("[", r"\[")):
            partition_from_doc(doc, ["s", "t"])


class TestFileRoundtrip:
    def test_recognizer_file(self, tmp_path, r_par):
        path = tmp_path / "r.rec"
        from treelang.formats import load_recognizer, save_recognizer

        save_recognizer(r_par, path)
        again = load_recognizer(path)
        assert equivalent(again, r_par)
        assert dump_document(recognizer_to_doc(again)) == dump_document(
            recognizer_to_doc(r_par)
        )


class TestShapeCheck:
    def test_mapping_from_names_rejects_other_keys(self):
        with pytest.raises(ValidationError, match="vars has a key that is not a string: 1"):
            check({"vars": {1: ["x"]}}, {"vars": {str: [str]}})

    def test_optional_field_may_be_absent(self):
        check({"a": 1}, {"a": int, "b?": [str]})
        check({"a": 1, "b": []}, {"a": int, "b?": [str]})


def reloaded(doc):
    """The document as the library writes it to text and reads it back,
    which is what PyYAML reads from that text."""
    text = dump_document(doc)
    try:
        back = formats._parse(text)
    except formats._Unsupported:
        back = yaml.safe_load(text)
    assert back == yaml.safe_load(text)
    return back


class TestRoundTripProperties:
    """``*_from_doc(*_to_doc(x)) == x``, directly and through YAML text: every
    document the library writes passes the shape check for its kind."""

    @PROPERTY
    @given(st.integers(0, 2**32), st.booleans())
    def test_recognizer(self, seed, accept_nothing):
        rng = random.Random(seed)
        sig, vars = random_signature(rng)
        rec = random_recognizer(rng, sig, vars)
        if accept_nothing:
            rec = recognizer(vars, rec.algebra, dict(rec.assignment), {})
        doc = recognizer_to_doc(rec)
        assert recognizer_from_doc(doc) == rec
        assert recognizer_from_doc(reloaded(doc)) == rec
        assert signature_from_doc(reloaded(signature_to_doc(sig, vars))) == (sig, vars)

    @PROPERTY
    @given(st.integers(0, 2**32))
    def test_hyperderivor_and_derivor(self, seed):
        rng = random.Random(seed)
        src, srcv = random_signature(rng)
        tgt, tgtv = random_rich_signature(rng)
        h = retrying(lambda: random_hyperderivor(rng, src, srcv, tgt, tgtv), rng)
        assert hyperderivor_from_doc(reloaded(hyperderivor_to_doc(h)), src, srcv, tgt, tgtv) == h
        d = retrying(lambda: random_derivor(rng, src, tgt), rng)
        assert derivor_from_doc(reloaded(derivor_to_doc(d)), src, tgt) == d

    def test_golden_hyperderivor_and_derivor(self, h1, d1, f1, x1, f2, x2):
        assert hyperderivor_from_doc(reloaded(hyperderivor_to_doc(h1)), f2, x2, f1, x1) == h1
        assert derivor_from_doc(reloaded(derivor_to_doc(d1)), f2, f1) == d1

    @PROPERTY
    @given(st.dictionaries(st.sampled_from(["s", "t"]), st.lists(st.integers(0, 3), max_size=5)))
    def test_partition(self, classes):
        p = partition(["s", "t"], classes)
        assert partition_from_doc(reloaded(partition_to_doc(p)), ["s", "t"]) == p


# ---------------------------------------------------------------------------
# the direct YAML path against PyYAML

LOADERS = [getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader]
DUMPERS = [getattr(yaml, "CSafeDumper", yaml.SafeDumper), yaml.SafeDumper]
WORDS = ["yes", "No", "on", "OFF", "true", "False", "null", "NULL", "y", "n", "Y", "inf", "nan"]
NAMES = ["s", "t0", "sigma", "x_1", "_", "e1", "Ab"]
TERMS = ["g(v0)", "sigma(v0,c)", "a,", "f(x,y,z)"]
# what the direct path hands to PyYAML, and long keys: libyaml writes a key
# of more than 128 characters as a complex key (``? key``), PyYAML's pure
# emitter one of more than 122
ODD_KEYS = WORDS + ["k" * n for n in range(120, 133)]
# the key lengths at which the pure emitter writes other bytes than libyaml
PURE_COMPLEX = range(123, 129)
ODD_SCALARS = WORDS + ["", "0", "-0", "007", "1_0", "0x1", "a b", "'q'", "x:y", "@x", "#c", "-x",
                       "1.5", "~", "2001-12-14", "g(@)", True, False, None]


def random_document(rng: random.Random) -> dict:
    """A mapping of names, integers, terms, and collections of them, nested
    up to three deep; one in four has odd keys or scalars as well, and one in
    four shares a list or dict (which PyYAML writes as an anchor and aliases)."""
    odd = rng.random() < 0.25

    def key():
        if odd and rng.random() < 0.1:
            return rng.choice(ODD_KEYS)
        return rng.choice(NAMES) if rng.random() < 0.8 else rng.randint(-3, 20)

    def scalar():
        if odd and rng.random() < 0.1:
            return rng.choice(ODD_SCALARS)
        return rng.choice([rng.randint(-3, 40), rng.randint(-(10**12), 10**12),
                           rng.choice(NAMES), rng.choice(TERMS)])

    def value(depth, kinds="sld"):
        kind = "s" if depth == 3 else rng.choice(kinds)
        if kind == "s":
            return scalar()
        if kind == "l":
            # mostly no list directly in a list, which the direct path hands on
            inner = "sld" if rng.random() < 0.1 else "sd"
            return [value(depth + 1, inner) for _ in range(rng.choice([0, 2, 5, 30]))]
        return {key(): value(depth + 1) for _ in range(rng.randint(0, 5))}

    doc = {key(): value(0, rng.choice(["sld", "ld"])) for _ in range(rng.randint(1, 6))}
    shared = [v for v in doc.values() if isinstance(v, (list, dict))]
    if shared and rng.random() < 0.25:
        doc[key()] = rng.choice(shared)
    return doc


GOLDEN_TEXTS = [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent / "golden").iterdir())
    if path.suffix in (".rec", ".sig", ".hyp", ".drv")
]


def dumped(doc, dumper, flow=None):
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=flow)


def keys(value):
    """Every mapping key in ``value``, at any depth."""
    if type(value) is dict:
        for key, item in value.items():
            yield key
            yield from keys(item)
    elif type(value) is list:
        for item in value:
            yield from keys(item)


def mutated(rng: random.Random, text: str) -> str:
    """``text`` with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    c = rng.choice(" ,:-[]{}'#\n\tab0_")
    return rng.choice([text[:i] + c + text[i:], text[:i] + text[i + 1:], text[:i] + c + text[i + 1:]])


def read_as_pyyaml(text: str) -> None:
    """The direct reader hands ``text`` on or reads what both PyYAML loaders read."""
    try:
        got = formats._parse(text)
    except formats._Unsupported:
        return
    assert all(got == yaml.load(text, Loader=loader) for loader in LOADERS)


class TestDirectYaml:
    """The direct path writes exactly what libyaml's emitter writes, and
    reads exactly what PyYAML reads, or hands the document or text on."""

    MANY = settings(PROPERTY, max_examples=300)

    @MANY
    @given(st.integers(0, 2**32))
    def test_writer_matches_pyyaml(self, seed):
        doc = random_document(random.Random(seed))
        expected = dumped(doc, DUMPERS[0])
        assert dump_document(doc) == expected
        try:
            text = formats._emit(doc)
        except formats._Unsupported:
            return
        assert text == expected
        if not any(type(k) is str and len(k) in PURE_COMPLEX for k in keys(doc)):
            assert text == dumped(doc, DUMPERS[1])

    @MANY
    @given(st.integers(0, 2**32))
    def test_reader_matches_pyyaml(self, seed):
        rng = random.Random(seed)
        doc = random_document(rng)
        for flow in (None, False, True):
            text = dumped(doc, DUMPERS[0], flow)
            read_as_pyyaml(text)
            read_as_pyyaml(mutated(rng, text))

    @MANY
    @given(st.sampled_from(GOLDEN_TEXTS), st.integers(0, 2**32))
    def test_reader_matches_pyyaml_on_mutated_library_texts(self, text, seed):
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 3)):
            text = mutated(rng, text)
        read_as_pyyaml(text)

    def test_library_documents_take_the_direct_path(self, r_par, h1, d1, f1, x1):
        docs = [recognizer_to_doc(r_par), hyperderivor_to_doc(h1), derivor_to_doc(d1),
                signature_to_doc(f1, x1), {"s": [0, 0, 1], "t": [0]}]
        for doc in docs:
            for flow in (None, False):
                assert formats._parse(dumped(doc, DUMPERS[0], flow)) == doc
            assert formats._emit(doc) == dumped(doc, DUMPERS[0])

    @pytest.mark.parametrize("width", range(70, 90))
    def test_flow_wraps_at_column_80(self, width):
        doc = {"k" * (width - 6): list(range(9, 40)), "tables": {"f": [10**11] * 12}}
        text = formats._emit(doc)
        assert text == dumped(doc, DUMPERS[0]) == dumped(doc, DUMPERS[1])
        assert formats._parse(text) == doc



def _load_top_level_sequence(fx):
    fx("monkeypatch").chdir(fx("tmp_path"))
    Path("a.rec").write_text("- 1\n- 2\n")
    return formats.load_document("a.rec")


# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "top-level-sequence": (
        _load_top_level_sequence, ValidationError, "a.rec: expected a mapping at top level"
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)
