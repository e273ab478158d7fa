"""Tests for repro.dns.name."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.errors import (
    BadPointerError,
    CompressionLoopError,
    NameError_,
    TruncatedMessageError,
)
from repro.dns.name import MAX_LABEL_LENGTH, ROOT, Name, _escape_label


class TestFromText:
    def test_simple(self):
        name = Name.from_text("www.example.nl.")
        assert name.labels == (b"www", b"example", b"nl")

    def test_trailing_dot_optional(self):
        assert Name.from_text("example.nl") == Name.from_text("example.nl.")

    def test_root(self):
        assert Name.from_text(".") == ROOT
        assert Name.from_text("") == ROOT
        assert ROOT.is_root()

    def test_case_preserved_in_text(self):
        assert Name.from_text("WWW.Example.NL.").to_text() == "WWW.Example.NL."

    def test_case_insensitive_equality(self):
        assert Name.from_text("WWW.EXAMPLE.NL.") == Name.from_text("www.example.nl.")

    def test_case_insensitive_hash(self):
        names = {Name.from_text("A.B."), Name.from_text("a.b.")}
        assert len(names) == 1

    def test_escaped_dot(self):
        name = Name.from_text(r"a\.b.example.")
        assert name.labels == (b"a.b", b"example")

    def test_decimal_escape(self):
        name = Name.from_text(r"a\255b.example.")
        assert name.labels[0] == b"a\xffb"

    def test_decimal_escape_too_big(self):
        with pytest.raises(NameError_):
            Name.from_text(r"a\999.example.")

    def test_dangling_escape(self):
        with pytest.raises(NameError_):
            Name.from_text("example\\")

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..b.")

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            Name.from_text("a" * (MAX_LABEL_LENGTH + 1) + ".nl.")

    def test_label_at_limit(self):
        name = Name.from_text("a" * MAX_LABEL_LENGTH + ".nl.")
        assert len(name.labels[0]) == MAX_LABEL_LENGTH

    def test_name_too_long(self):
        label = "a" * 63
        with pytest.raises(NameError_):
            Name.from_text(".".join([label] * 4) + ".")


class TestStructure:
    def test_parent(self):
        assert Name.from_text("www.example.nl.").parent() == Name.from_text("example.nl.")

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_child(self):
        assert Name.from_text("nl.").child("example") == Name.from_text("example.nl.")

    def test_child_rejects_multi_label(self):
        with pytest.raises(NameError_):
            Name.from_text("nl.").child("a.b")

    def test_concatenate(self):
        www = Name.from_text("www")
        assert www.concatenate(Name.from_text("example.nl.")) == Name.from_text(
            "www.example.nl."
        )

    def test_is_subdomain_of_self(self):
        name = Name.from_text("example.nl.")
        assert name.is_subdomain_of(name)

    def test_is_subdomain_of_parent(self):
        assert Name.from_text("www.example.nl.").is_subdomain_of(
            Name.from_text("example.nl.")
        )

    def test_is_subdomain_of_root(self):
        assert Name.from_text("example.nl.").is_subdomain_of(ROOT)

    def test_not_subdomain_of_sibling(self):
        assert not Name.from_text("a.nl.").is_subdomain_of(Name.from_text("b.nl."))

    def test_not_subdomain_label_boundary(self):
        # "badexample.nl" must not count as under "example.nl".
        assert not Name.from_text("badexample.nl.").is_subdomain_of(
            Name.from_text("example.nl.")
        )

    def test_subdomain_case_insensitive(self):
        assert Name.from_text("WWW.EXAMPLE.NL.").is_subdomain_of(
            Name.from_text("example.nl.")
        )

    def test_relativize(self):
        rel = Name.from_text("a.b.example.nl.").relativize(Name.from_text("example.nl."))
        assert rel == (b"a", b"b")

    def test_relativize_not_subdomain(self):
        with pytest.raises(NameError_):
            Name.from_text("a.com.").relativize(Name.from_text("nl."))

    def test_canonical_ordering_right_to_left(self):
        assert Name.from_text("a.nl.") < Name.from_text("b.nl.")
        assert Name.from_text("z.a.nl.") < Name.from_text("a.b.nl.")

    def test_wire_length(self):
        assert Name.from_text("example.nl.").wire_length() == 1 + 7 + 1 + 2 + 1
        assert ROOT.wire_length() == 1


class TestWire:
    def test_roundtrip_uncompressed(self):
        name = Name.from_text("www.example.nl.")
        wire = name.to_wire()
        decoded, end = Name.from_wire(wire, 0)
        assert decoded == name
        assert end == len(wire)

    def test_root_wire(self):
        assert ROOT.to_wire() == b"\x00"

    def test_compression_pointer_followed(self):
        # Build: "example.nl." at 0, then "www" + pointer to 0.
        base = Name.from_text("example.nl.").to_wire()
        wire = base + b"\x03www" + bytes([0xC0, 0x00])
        decoded, end = Name.from_wire(wire, len(base))
        assert decoded == Name.from_text("www.example.nl.")
        assert end == len(wire)

    def test_compression_emit_and_reuse(self):
        compress = {}
        first = Name.from_text("example.nl.").to_wire(compress, 0)
        second = Name.from_text("www.example.nl.").to_wire(compress, len(first))
        # Second encoding ends with a 2-byte pointer instead of a full copy.
        assert second[-2] & 0xC0 == 0xC0
        wire = first + second
        decoded, _ = Name.from_wire(wire, len(first))
        assert decoded == Name.from_text("www.example.nl.")

    def test_forward_pointer_rejected(self):
        wire = bytes([0xC0, 0x02, 0x00, 0x00])
        with pytest.raises(BadPointerError):
            Name.from_wire(wire, 0)

    def test_pointer_loop_rejected(self):
        # name at 2 points to 0, name at 0 points to... itself via 2.
        wire = b"\x03abc" + bytes([0xC0, 0x00])
        # Create a loop: pointer at offset 0 pointing to itself is forward-
        # rejected, so build a two-step loop manually.
        wire = bytes([0xC0, 0x00])
        with pytest.raises((BadPointerError, CompressionLoopError)):
            Name.from_wire(wire, 0)

    def test_truncated_label(self):
        with pytest.raises(TruncatedMessageError):
            Name.from_wire(b"\x05ab", 0)

    def test_truncated_pointer(self):
        with pytest.raises(TruncatedMessageError):
            Name.from_wire(b"\xc0", 0)

    def test_reserved_label_type(self):
        with pytest.raises(BadPointerError):
            Name.from_wire(b"\x80abc", 0)

    def test_offset_beyond_end(self):
        with pytest.raises(TruncatedMessageError):
            Name.from_wire(b"", 0)

    def test_no_compression_past_0x3fff(self):
        # Offsets >= 0x4000 are not pointer-encodable; names there must be
        # emitted in full and not registered as targets.
        compress = {}
        wire = Name.from_text("example.nl.").to_wire(compress, 0x4000)
        assert compress == {}
        assert wire == Name.from_text("example.nl.").to_wire()


label_strategy = st.binary(min_size=1, max_size=63)
name_strategy = st.builds(
    Name,
    st.lists(label_strategy, min_size=0, max_size=5).filter(
        lambda labels: sum(len(l) + 1 for l in labels) + 1 <= 255
    ),
)


class TestProperties:
    @given(name_strategy)
    def test_wire_roundtrip(self, name):
        decoded, end = Name.from_wire(name.to_wire(), 0)
        assert decoded == name
        assert end == name.wire_length()

    @given(name_strategy)
    def test_text_roundtrip(self, name):
        # Presentation format must round-trip arbitrary label bytes.
        assert Name.from_text(name.to_text()) == name

    @given(name_strategy)
    def test_subdomain_of_own_parent_chain(self, name):
        current = name
        while not current.is_root():
            current = current.parent()
            assert name.is_subdomain_of(current)

    @given(name_strategy, name_strategy)
    def test_ordering_total(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(name_strategy)
    def test_compressed_roundtrip_in_pair(self, name):
        compress = {}
        prefix = Name.from_text("prefix.example.").to_wire(compress, 0)
        encoded = name.to_wire(compress, len(prefix))
        decoded, _ = Name.from_wire(prefix + encoded, len(prefix))
        assert decoded == name


printable_label = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    max_size=63,
).map(str.encode)


def per_label_text(name: Name) -> str:
    """``to_text`` spelled out with the per-byte escaper alone."""
    return "".join(_escape_label(label) + "." for label in name.labels) or "."


class TestToTextShortcut:
    """``to_text``'s all-plain-bytes shortcut agrees with the per-byte escaper."""

    def test_every_single_byte_label(self):
        for byte in range(256):
            name = Name([bytes([byte])])
            assert name.to_text() == per_label_text(name), byte

    @given(st.one_of(st.binary(min_size=1, max_size=63), printable_label))
    def test_random_labels(self, label):
        name = Name([label]) if label else ROOT
        assert name.to_text() == per_label_text(name)

    @given(st.one_of(
        name_strategy,
        st.builds(Name, st.lists(printable_label.filter(bool), max_size=3)),
    ))
    def test_random_names(self, name):
        assert name.to_text() == per_label_text(name)
