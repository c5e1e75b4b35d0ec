import random

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
    """The document as the library writes it to text and reads it back."""
    return yaml.load(dump_document(doc), Loader=formats._LOADER)


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
