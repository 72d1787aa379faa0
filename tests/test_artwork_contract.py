"""The codec's untrusted-input contract: the exact message of every
rejection, which rejection wins when an artifact has several faults, and
the exit code ``artpta regen`` turns each into."""

import re

import pytest

from artpta import (
    Artwork,
    CorpusConfig,
    MalformedArtworkError,
    Site,
    UnknownReferenceError,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_program,
    regen_inter,
)
from artpta.cli import main

# ``main:2`` heads a loop; ``r`` is self-recursive and ``main`` is not.  Slot
# 1 of ``main`` and slot 2 of ``r`` are their return carriers.
PROGRAM = """\
method main() {
  1: x = new C
  2: if goto 5
  3: x.f = x
  4: goto 2
  5: call [r](x)
}
method r(p) {
  1: call [r](p)
  2: q = new D
  3: p.g = q
}
"""

# The [out] block writes two of its bindings a second time, one of them in
# r's scoped spelling (``:2`` is ``r:2``); decode reads the same graph.  The
# repeats keep VALID at least as long as its ``ART/3`` form (190 bytes), so
# the truncation test below keeps every cut it had.
VALID = """\
ART/6
[loop]
main:2 {
  main/0 main:1
  main:1 .f main:1
}
[in]
main {
}
r {
  r/0 main:1
  main:1 .f main:1
}
[out]
r {
  main:1 .f main:1
  main:1 .g r:2
  main:1 .g :2
  main:1 .f main:1
}
"""


def _art(loop: str = "", in_: str = "", out: str = "") -> str:
    return "ART/6\n[loop]\n" + loop + "[in]\n" + in_ + "[out]\n" + out


def _block(head: str, *edges: str) -> str:
    return head + " {\n" + "".join(f"  {e}\n" for e in edges) + "}\n"


MALFORMED = {
    "not-utf8": (b"ART/6\n\xff\n[loop]\n[in]\n[out]\n", "not valid UTF-8"),
    "no-trailing-newline": (b"ART/6\n[loop]\n[in]\n[out]", "missing trailing newline"),
    "empty-file": (b"", "missing trailing newline"),
    "bad-header": (b"ART/7\n[loop]\n[in]\n[out]\n", "missing ART/6 header"),
    # the grammars this one replaced have no reader
    "art1-header": (b"ART/1\n[loop]\n[in]\n[out]\n", "missing ART/6 header"),
    "art2-header": (b"ART/2\n[loop]\n[in]\n[out]\n", "missing ART/6 header"),
    "art3-header": (b"ART/3\n[loop]\n[in]\n[out]\n", "missing ART/6 header"),
    # an ART/4 file: its [loop] entries held the whole header value
    "art4-header": (b"ART/4\n[loop]\n[in]\n[out]\n", "missing ART/6 header"),
    # an ART/5 file: its [out] entries held the whole OUT summary
    "art5-header": (b"ART/5\n[loop]\n[in]\n[out]\n", "missing ART/6 header"),
    "art3-entry-header": (_art(in_="m:main = {\n}\n"), "bad [in] entry"),
    "blank-first-line": (b"\nART/6\n[loop]\n[in]\n[out]\n", "missing ART/6 header"),
    "only-header": (b"ART/6\n", "unexpected end of file"),
    "missing-loop": (b"ART/6\n[in]\n[out]\n", "expected [loop] section"),
    "missing-in": (b"ART/6\n[loop]\n[out]\n", "bad [loop] entry"),
    "missing-in-at-eof": (b"ART/6\n[loop]\n", "unexpected end of file"),
    "missing-out": (b"ART/6\n[loop]\n[in]\n", "unexpected end of file"),
    "bad-loop-entry": (_art(loop="main:x {\n}\n"), "bad [loop] entry"),
    "bad-in-entry": (_art(in_="9main {\n}\n"), "bad [in] entry"),
    "bad-out-entry": (_art(out="r{\n}\n"), "bad [out] entry"),
    "bad-value": (_art(in_="main []\n"), "expected graph block or '^', got '[]'"),
    "unterminated-block": (_art(out="r {\n  r/0 null\n"), "unterminated graph block"),
    "unterminated-empty-block": (_art(out="r {\n"), "unterminated graph block"),
    "header-inside-block": (
        _art(in_="main {\n  main/0 main:1\nr {\n}\n"),
        "expected edge line or '}', got 'r {'",
    ),
    "bad-edge-operator": (
        _art(in_=_block("main", "main:1 => main:1")),
        "bad edge line 'main:1 => main:1'",
    ),
    "edge-too-short": (_art(in_=_block("main", "main/0")), "bad edge line 'main/0'"),
    # a binding line is its key and its targets, with no arrow; an object's
    # key is followed by a field token, and a variable's is not
    "arrow-in-a-binding-line": (_art(in_=_block("main", "/0 -> :1")), "bad object '->'"),
    "variable-key-with-a-field-token": (_art(in_=_block("main", "/0 .f :1")), "bad object '.f'"),
    "object-key-without-a-field-token": (_art(in_=_block("main", ":1 :1")), "bad edge line ':1 :1'"),
    # a binding line names one or more targets, none twice (by value)
    "field-binding-with-no-targets": (
        _art(in_=_block("main", "main:1 .f")),
        "bad edge line 'main:1 .f'",
    ),
    "repeated-target": (
        _art(in_=_block("main", "main/0 main:1 null main:1")),
        "repeated target main:1 in edge line 'main/0 main:1 null main:1'",
    ),
    "repeated-target-written-two-ways": (
        _art(in_=_block("main", "main:1 .f main:1 main:01")),
        "repeated target main:01 in edge line 'main:1 .f main:1 main:01'",
    ),
    "repeated-target-in-an-edit": (
        _art(in_=_block("main") + "r ^\n+ r/0 null null\n"),
        "repeated target null in edge line 'r/0 null null'",
    ),
    "bad-variable": (_art(in_=_block("main", "main/x main:1")), "bad variable 'main/x'"),
    "bad-object": (_art(in_=_block("main", "main/0 main")), "bad object 'main'"),
    # An object is an allocation site or null: a "?" token is a syntax
    # error, even one that would name a real parameter of its method.
    "bad-placeholder": (_art(in_=_block("main", "main/0 main?x")), "bad object 'main?x'"),
    "unknown-placeholder": (_art(in_=_block("main", "main/0 main?0")), "bad object 'main?0'"),
    "placeholder-of-unknown-method": (_art(in_=_block("r", "r/0 ghost?0")), "bad object 'ghost?0'"),
    "placeholder-of-a-real-parameter": (_art(in_=_block("r", "r/0 r?0")), "bad object 'r?0'"),
    "unknown-scoped-placeholder": (_art(in_=_block("main", "/0 ?0")), "bad object '?0'"),
    # An identifier's method is an ASCII identifier, as an entry's is.
    "placeholder-before-a-site-label": (_art(in_=_block("r", "r/0 r?0:1")), "bad object 'r?0:1'"),
    "placeholder-before-a-variable-slot": (_art(in_=_block("r", "r?0/0 null")), "bad variable 'r?0/0'"),
    "site-of-a-method-that-is-no-name": (_art(in_=_block("main", "/0 a-b:1")), "bad object 'a-b:1'"),
    "slot-of-a-method-that-is-no-name": (_art(in_=_block("main", "a-b/0 null")), "bad variable 'a-b/0'"),
    "empty-field-name": (
        _art(in_=_block("main", "main:1 . null")),
        "bad field edge 'main:1 . null'",
    ),
    "null-source": (_art(in_=_block("main", "null .f main:1")), "field edge with null source"),
    # A field name is an ASCII identifier, and the error quotes the line by
    # ``repr``, so no control character reaches the terminal.
    "escape-in-field-name": (
        _art(in_=_block("main", "main:1 .\x1b[31mEVIL\x1b[0m null")),
        "bad field edge 'main:1 .\\x1b[31mEVIL\\x1b[0m null'",
    ),
    "bell-in-field-name": (
        _art(in_=_block("main", "main:1 .f\x07 null")),
        "bad field edge 'main:1 .f\\x07 null'",
    ),
    "non-ascii-field-name": (
        _art(in_=_block("main", "main:1 .\u00e9 null")),
        "bad field edge 'main:1 .\u00e9 null'",
    ),
    "arrow-in-field-name": (
        _art(in_=_block("main", "main:1 .a->b null")),
        "bad field edge 'main:1 .a->b null'",
    ),
    "bad-edge-before-good": (
        _art(in_=_block("main", "main/0 main:1", "main/0 ", "main/0 null")),
        "bad edge line 'main/0 '",
    ),
    # Only U+0020 separates the tokens of an edge line: any other whitespace
    # joins the tokens beside it into one, and the error quotes it by ``repr``.
    "tab-after-a-variable": (
        _art(in_=_block("main", "main/0\tmain:1")),
        "bad edge line 'main/0\\tmain:1'",
    ),
    "tab-among-targets": (
        _art(in_=_block("main", "main/0 main:1\tnull")),
        "bad object 'main:1\\tnull'",
    ),
    "vertical-tab-after-an-arrow": (
        _art(in_=_block("main", "main:1 .f\x0bmain:1")),
        "bad edge line 'main:1 .f\\x0bmain:1'",
    ),
    "form-feed-after-a-field-source": (
        _art(in_=_block("main", "main:1\x0c.f null")),
        "bad edge line 'main:1\\x0c.f null'",
    ),
    "file-separator-after-a-scoped-variable": (
        _art(in_=_block("main", "/0\x1c:1")),
        "bad edge line '/0\\x1c:1'",
    ),
    "group-separator-after-a-variable": (
        _art(in_=_block("main", "main/0\x1dmain:1")),
        "bad edge line 'main/0\\x1dmain:1'",
    ),
    "record-separator-after-a-variable": (
        _art(in_=_block("main", "main/0\x1emain:1")),
        "bad edge line 'main/0\\x1emain:1'",
    ),
    "unit-separator-in-an-edit": (
        _art(in_=_block("main") + "r ^\n+ /0\x1fnull\n"),
        "bad edge line '/0\\x1fnull'",
    ),
    "next-line-after-a-variable": (
        _art(in_=_block("main", "main/0\x85main:1")),
        "bad edge line 'main/0\\x85main:1'",
    ),
    "no-break-space-after-a-variable": (
        _art(in_=_block("main", "main/0\xa0main:1")),
        "bad edge line 'main/0\\xa0main:1'",
    ),
    "em-space-after-a-variable": (
        _art(in_=_block("main", "main/0\u2003main:1")),
        "bad edge line 'main/0\\u2003main:1'",
    ),
    "ideographic-space-among-targets": (
        _art(in_=_block("main", "main/0 main:1\u3000null")),
        "bad object 'main:1\\u3000null'",
    ),
    # ``^`` is the graph of the entry before, in the file, not in the section
    "repeat-in-first-entry": (_art(loop="main:2 ^\n"), "'^' in the first entry"),
    "repeat-first-in-a-later-section": (_art(in_="main ^\n"), "'^' in the first entry"),
    "repeat-with-trailing-text": (
        _art(in_="main {\n}\nr ^ \n"),
        "expected graph block or '^', got '^ '",
    ),
    # An entry "^" with edit lines: the entry before's value, the "- "
    # edges removed and the "+ " edges added, one line after another.
    "edit-removes-an-absent-edge": (
        _art(in_=_block("main", "main/0 main:1") + "r ^\n- main/0 null\n"),
        "edit removes an absent edge 'main/0 -> null'",
    ),
    "edit-adds-a-present-edge": (
        _art(in_=_block("main", "main/0 main:1") + "r ^\n+ main/0 main:1\n"),
        "edit adds a present edge 'main/0 -> main:1'",
    ),
    "removal-written-twice": (
        _art(in_=_block("main", "main/0 main:1") + "r ^\n- main/0 main:1\n- main/0 main:1\n"),
        "edit removes an absent edge 'main/0 -> main:1'",
    ),
    "addition-written-twice": (
        _art(in_=_block("main") + "r ^\n+ r/0 main:1\n+ r/0 main:1\n"),
        "edit adds a present edge 'r/0 -> main:1'",
    ),
    # each target of an edit line is checked, in line order
    "edit-removes-one-absent-target": (
        _art(in_=_block("main", "main/0 main:1") + "r ^\n- main/0 main:1 null\n"),
        "edit removes an absent edge 'main/0 -> null'",
    ),
    "edit-adds-one-present-target": (
        _art(in_=_block("main", "main/0 main:1") + "r ^\n+ main/0 null main:1\n"),
        "edit adds a present edge 'main/0 -> main:1'",
    ),
    "edit-adds-a-target-an-earlier-line-added": (
        _art(in_=_block("main") + "r ^\n+ r/0 main:1\n+ r/0 null main:1\n"),
        "edit adds a present edge 'r/0 -> main:1'",
    ),
    "edits-in-first-entry": (
        _art(loop="main:2 ^\n+ main/0 main:1\n"),
        "'^' in the first entry",
    ),
    "edit-line-after-a-block": (
        _art(in_=_block("main", "main/0 main:1") + "+ main/0 null\n"),
        "bad [in] entry",
    ),
    "edit-line-after-a-section-header": (
        _art(loop=_block("main:2", "main/0 main:1"), in_="- main/0 main:1\nmain ^\n"),
        "bad [in] entry",
    ),
    "edit-line-in-a-block": (
        _art(in_=_block("main", "main/0 main:1", "- main/0 main:1").replace("  - ", "- ")),
        "expected edge line or '}', got '- main/0 main:1'",
    ),
    "absent-removal-before-a-bad-edit-line": (
        _art(in_=_block("main") + "r ^\n- r/0 main:1\n+ main:1 => main:1\n"),
        "edit removes an absent edge 'r/0 -> main:1'",
    ),
    "bad-edit-line": (
        _art(in_=_block("main") + "r ^\n+ main:1 => main:1\n"),
        "bad edge line 'main:1 => main:1'",
    ),
    "edit-with-a-null-source": (
        _art(in_=_block("main") + "r ^\n+ null .f main:1\n"),
        "field edge with null source",
    ),
    "duplicate-loop-entry": (
        _art(loop="main:2 {\n}\nmain:2 {\n}\n"),
        "duplicate loop entry ('main', 2)",
    ),
    "duplicate-in-entry": (_art(in_="main {\n}\nmain {\n}\n"), "duplicate in entry main"),
    "duplicate-out-entry": (_art(out="r {\n}\nr {\n}\n"), "duplicate out entry r"),
    # past CPython's default limit of 4,300 digits for int()
    "huge-loop-label": (
        _art(loop="main:" + "9" * 5000 + " {\n}\n"),
        "[loop] label too long (5000 digits)",
    ),
    "huge-variable-slot": (
        _art(in_=_block("main", "main/" + "9" * 5000 + " main:1")),
        "variable slot too long (5000 digits)",
    ),
    "huge-site-label": (
        _art(in_=_block("main", "main/0 main:" + "9" * 5000)),
        "allocation site label too long (5000 digits)",
    ),
    "huge-placeholder-index": (
        _art(in_=_block("r", "r/0 r?" + "9" * 5000)),
        "bad object 'r?" + "9" * 5000 + "'",
    ),
    # Integers are ASCII digits only: no other script's digits, no superscripts.
    "arabic-indic-site-label": (
        _art(in_=_block("main", "main/0 main:\u0661")),
        "bad object 'main:\u0661'",
    ),
    "superscript-site-label": (
        _art(in_=_block("main", "main/0 main:\u00b2")),
        "bad object 'main:\u00b2'",
    ),
    "arabic-indic-placeholder-index": (
        _art(in_=_block("r", "r/0 r?\u0661")),
        "bad object 'r?\u0661'",
    ),
    "arabic-indic-variable-slot": (
        _art(in_=_block("main", "main/\u0661 main:1")),
        "bad variable 'main/\u0661'",
    ),
    "superscript-field-source": (
        _art(out=_block("r", "r:\u00b2 .g r:2")),
        "bad object 'r:\u00b2'",
    ),
    # A scoped identifier (``/0``, ``:1`` in an entry of main) is a mark and
    # a number; a syntax error quotes it as written.
    "scoped-variable-without-a-slot": (_art(in_=_block("main", "/ null")), "bad variable '/'"),
    "scoped-variable-with-a-name": (_art(in_=_block("main", "/x null")), "bad variable '/x'"),
    "scoped-site-without-a-label": (_art(in_=_block("main", "/0 :")), "bad object ':'"),
    "scoped-placeholder-without-an-index": (_art(in_=_block("r", "/0 ?")), "bad object '?'"),
    "scoped-field-source-without-a-label": (_art(in_=_block("main", ": .f null")), "bad object ':'"),
    "scoped-variable-as-a-target": (_art(in_=_block("main", "/0 /0")), "bad object '/0'"),
    "scoped-variable-as-an-edit-target": (
        _art(in_=_block("main") + "r ^\n+ /0 /0\n"),
        "bad object '/0'",
    ),
    "scoped-target-written-twice": (
        _art(in_=_block("main", "/0 main:1 :1")),
        "repeated target :1 in edge line '/0 main:1 :1'",
    ),
    # an edit error names the edge in full
    "scoped-edit-removes-an-absent-edge": (
        _art(in_=_block("r", "/0 main:1") + "main ^\n- /0 :1\n"),
        "edit removes an absent edge 'main/0 -> main:1'",
    ),
    "scoped-edit-adds-a-present-edge": (
        _art(in_=_block("main") + "r ^\n+ r/0 :2\n+ /0 :2\n"),
        "edit adds a present edge 'r/0 -> r:2'",
    ),
}

UNKNOWN = {
    "loop-unknown-method": (_art(loop="ghost:2 {\n}\n"), "[loop]: unknown method 'ghost'"),
    "loop-no-statement": (_art(loop="main:9 {\n}\n"), "[loop]: no statement main:9"),
    "in-unknown-method": (_art(in_="ghost {\n}\n"), "[in]: unknown method 'ghost'"),
    "out-unknown-method": (_art(out="ghost {\n}\n"), "[out]: unknown method 'ghost'"),
    "out-not-recursive": (_art(out="main {\n}\n"), "[out]: method 'main' is not recursive"),
    "unknown-slot": (
        _art(in_=_block("main", "main/2 main:1")),
        "[in] main: unknown variable slot main/2",
    ),
    "slot-of-unknown-method": (
        _art(in_=_block("main", "ghost/0 main:1")),
        "[in] main: unknown variable slot ghost/0",
    ),
    "not-an-allocation": (
        _art(in_=_block("main", "main/0 main:3")),
        "[in] main: object main:3 is not an allocation site",
    ),
    "site-of-unknown-method": (
        _art(in_=_block("main", "main/0 ghost:1")),
        "[in] main: object ghost:1 is not an allocation site",
    ),
    "field-source": (
        _art(out=_block("r", "r:1 .g r:2")),
        "[out] r: object r:1 is not an allocation site",
    ),
    "field-target": (
        _art(loop=_block("main:2", "main:1 .f r:3")),
        "[loop] main:2: object r:3 is not an allocation site",
    ),
    "unknown-second-target": (
        _art(in_=_block("main", "main/0 main:1 main:3")),
        "[in] main: object main:3 is not an allocation site",
    ),
    # a bad graph is reported at the entry that writes it out, not at a repeat
    "repeat-of-a-graph-with-a-missing-slot": (
        _art(in_=_block("main", "main/2 main:1") + "r ^\n"),
        "[in] main: unknown variable slot main/2",
    ),
    # an edit line is checked at the entry that holds it
    "unknown-slot-in-an-edit": (
        _art(in_=_block("main", "main/0 main:1") + "r ^\n+ main/2 main:1\n"),
        "[in] r: unknown variable slot main/2",
    ),
    "unknown-object-in-an-edit-across-a-section-header": (
        _art(in_=_block("r", "r/0 main:1"), out="r ^\n- r/0 main:1\n+ r/0 r:1\n"),
        "[out] r: object r:1 is not an allocation site",
    ),
    "edit-removing-a-bad-line": (
        _art(in_=_block("main", "main/2 main:1") + "r ^\n- main/2 main:1\n"),
        "[in] main: unknown variable slot main/2",
    ),
    # A scoped identifier the entry's method lacks is named in full.
    "unknown-scoped-slot": (_art(in_=_block("main", "/2 :1")), "[in] main: unknown variable slot main/2"),
    "unknown-scoped-site": (
        _art(in_=_block("main", "/0 :3")),
        "[in] main: object main:3 is not an allocation site",
    ),
    "unknown-scoped-field-source": (
        _art(out=_block("r", ":1 .g :2")),
        "[out] r: object r:1 is not an allocation site",
    ),
    # scoped to the entry's method, not to the method of the entry before
    "scoped-slot-of-the-edited-entry": (
        _art(in_=_block("r", "/2 main:1") + "main ^\n- r/2 main:1\n+ /2 :1\n"),
        "[in] main: unknown variable slot main/2",
    ),
    "scoped-slot-in-an-entry-of-an-unknown-method": (
        _art(in_=_block("main") + "ghost ^\n+ /0 null\n"),
        "[in]: unknown method 'ghost'",
    ),
}

PRECEDENCE = {
    # A syntax error anywhere wins over any reference error.
    "syntax-after-references": (
        _art(
            loop="ghost:1 {\n}\n",
            in_=_block("main", "main/2 main:3"),
            out="r {\n",
        ),
        MalformedArtworkError,
        "unterminated graph block",
    ),
    "repeat-in-first-entry-before-its-key": (
        _art(loop="ghost:1 ^\n"),
        MalformedArtworkError,
        "'^' in the first entry",
    ),
    # After the first entry at fault, edits are still checked, against the
    # running value: the first edit is valid, the second is not.
    "edit-error-after-a-reference-error": (
        _art(
            loop=_block("ghost:1", "main/0 main:1"),
            in_="main ^\n- main/0 main:1\nr ^\n- main/0 main:1\n",
        ),
        MalformedArtworkError,
        "edit removes an absent edge 'main/0 -> main:1'",
    ),
    "edit-key-before-its-lines": (
        _art(in_=_block("main") + "ghost ^\n+ main/2 main:1\n"),
        UnknownReferenceError,
        "[in]: unknown method 'ghost'",
    ),
    "recursion-before-an-edit-s-lines": (
        _art(in_=_block("main"), out="main ^\n+ main/2 main:1\n"),
        UnknownReferenceError,
        "[out]: method 'main' is not recursive",
    ),
    # [loop] before [in] before [out]: the sections, not the lines.
    "loop-first": (
        _art(
            loop=_block("main:2", "main:1 .f main:5"),
            in_=_block("main", "main/2 main:1"),
            out="main {\n}\n",
        ),
        UnknownReferenceError,
        "[loop] main:2: object main:5 is not an allocation site",
    ),
    "in-before-out": (
        _art(in_=_block("main", "main/2 main:1"), out="main {\n}\n"),
        UnknownReferenceError,
        "[in] main: unknown variable slot main/2",
    ),
    "entries-in-file-order": (
        _art(in_=_block("r", "r/0 r:1") + _block("main", "main/2 main:1")),
        UnknownReferenceError,
        "[in] r: object r:1 is not an allocation site",
    ),
    # Within an entry, the key is checked before the graph.
    "label-before-graph": (
        _art(loop=_block("main:9", "main/2 main:1")),
        UnknownReferenceError,
        "[loop]: no statement main:9",
    ),
    "recursion-before-graph": (
        _art(out=_block("main", "main/2 main:1")),
        UnknownReferenceError,
        "[out]: method 'main' is not recursive",
    ),
    # A repeat's key is checked after the entry it repeats.
    "graph-before-the-key-of-its-repeat": (
        _art(loop=_block("main:2", "main/7 null"), in_="ghost ^\n"),
        UnknownReferenceError,
        "[loop] main:2: unknown variable slot main/7",
    ),
    # Within a line, the left side before the right.
    "variable-before-object": (
        _art(in_=_block("main", "main/2 main:3")),
        UnknownReferenceError,
        "[in] main: unknown variable slot main/2",
    ),
    "source-before-target": (
        _art(in_=_block("main", "main:3 .f main:4")),
        UnknownReferenceError,
        "[in] main: object main:3 is not an allocation site",
    ),
    # A binding line's key before its targets, its targets in line order.
    "key-before-targets": (
        _art(in_=_block("main", "main/2 main:3 main:1")),
        UnknownReferenceError,
        "[in] main: unknown variable slot main/2",
    ),
    "targets-in-line-order": (
        _art(in_=_block("main", "main/0 null main:4 main:1 main:3")),
        UnknownReferenceError,
        "[in] main: object main:4 is not an allocation site",
    ),
    # A repeated target is a syntax error, so it wins over an unknown one.
    "repeated-target-before-an-unknown-one": (
        _art(in_=_block("main", "main/0 main:3 main:3")),
        MalformedArtworkError,
        "repeated target main:3 in edge line 'main/0 main:3 main:3'",
    ),
}

CASES = {
    **{k: (data, MalformedArtworkError, msg) for k, (data, msg) in MALFORMED.items()},
    **{k: (data, UnknownReferenceError, msg) for k, (data, msg) in UNKNOWN.items()},
    **PRECEDENCE,
}


@pytest.fixture(scope="module")
def program():
    return parse_program(PROGRAM)


def _bytes(data) -> bytes:
    return data if isinstance(data, bytes) else data.encode()


# The same artwork three times: every entry inline, a repeat, and an edit
# (as encode writes it: ``r/0`` is ``/0`` in an entry of ``r``).
INLINE = _art(in_=_block("main") + _block("r", "r/0 main:1"), out=_block("r", "r/0 main:1"))
REPEAT = _art(in_=_block("main") + _block("r", "r/0 main:1"), out="r ^\n")
EDITED = _art(in_=_block("main") + "r ^\n+ /0 main:1\n", out="r ^\n")


def test_the_valid_artifact_decodes(program):
    a = decode(VALID.encode(), program)
    assert (len(a.i_loop), len(a.i_in), len(a.i_out)) == (1, 2, 1)
    inline, repeat, edited = (decode(data.encode(), program) for data in (INLINE, REPEAT, EDITED))
    assert inline == repeat == edited
    assert repeat.i_out["r"] is repeat.i_in["r"] and edited.i_out["r"] is edited.i_in["r"]
    assert encode(inline) == EDITED.encode()


# The ART/6 bytes of the loopy fixture, and its body with every identifier
# in full, as the ``ART/2`` grammar wrote them.  The [loop] entry holds what
# the loop adds at header 5 to the OUT of statement 4, which the header
# passes on unchanged.
LOOPY_ART5 = (
    "ART/6\n[loop]\nmain:5 {\n  /0 :6\n  /1 :11 :9\n"
    "  :6 .f :11 :3 :9\n}\n[in]\nmain {\n}\n[out]\n"
)
LOOPY_FULL_BODY = (
    "[loop]\nmain:5 {\n  main/0 main:6\n  main/1 main:11 main:9\n"
    "  main:6 .f main:11 main:3 main:9\n}\n[in]\nmain {\n}\n[out]\n"
)


def test_a_full_spelling_body_decodes_to_its_canonical_artwork(loopy_pipeline):
    p, _, a = loopy_pipeline
    assert encode(a) == LOOPY_ART5.encode()
    full = decode(("ART/6\n" + LOOPY_FULL_BODY).encode(), p)
    assert full == a == decode(LOOPY_ART5.encode(), p)
    assert encode(full) == LOOPY_ART5.encode()
    with pytest.raises(MalformedArtworkError, match="^missing ART/6 header$"):
        decode(("ART/3\n" + LOOPY_FULL_BODY).encode(), p)


def test_a_binding_line_holds_every_target_of_its_key(program):
    from artpta import VarId

    line = "r/0 main:1 null"
    one = _art(
        loop=_block("r:1", "/0 main:1 null"),
        in_="r ^\n+ main:1 .f main:1 :2\n",
        out="r ^\n- main:1 .f main:1 :2\n",
    )
    spread = _art(
        loop=_block("r:1", "r/0 null", "r/0 main:1"),
        in_=_block("r", "r/0 null", "main:1 .f r:2", "r/0 main:1", "main:1 .f main:1"),
        out=_block("r", "r/0 main:1 null"),
    )
    a = decode(one.encode(), program)
    assert a == decode(spread.encode(), program)
    assert encode(decode(spread.encode(), program)) == one.encode()
    # a line's one set is stored as it is, by every block that holds it
    blocks = decode(_art(loop=_block("r:1", line), in_=_block("r", line)).encode(), program)
    v = VarId("r", 0)
    assert blocks.i_loop[("r", 1)]._vars[v] is blocks.i_in["r"]._vars[v]


def _maps_are_canonical(a) -> bool:
    """No empty target set or field map is stored."""
    return all(
        all(g._vars.values()) and all(fields and all(fields.values()) for fields in g._heap.values())
        for g in [*a.i_loop.values(), *a.i_in.values(), *a.i_out.values()]
    )


def test_an_entry_may_empty_a_map_and_refill_it(program):
    # r/0's target set and main:1's field map are emptied by the removals,
    # then refilled by the additions; r:2's untouched field map is shared.
    # Lines are written as encode writes them in an entry of r: sorted by
    # their full text, r's own identifiers without r's name.
    kept = ("main/0 main:1", ":2 .f main:1", ":2 .g :2")
    before = ("main/0 main:1", "/0 main:1", "main:1 .f main:1", *kept[1:])  # sorted in full
    after = ("/0 null", "main:1 .f :2", *kept)
    data = _art(
        in_=_block("r", *before),
        out="r ^\n- /0 main:1\n- main:1 .f main:1\n+ /0 null\n+ main:1 .f :2\n",
    ).encode()
    a = decode(data, program)
    assert a == decode(_art(in_=_block("r", *before), out=_block("r", *after)).encode(), program)
    assert _maps_are_canonical(a)
    assert a.i_out["r"]._heap[Site("r", 2)] is a.i_in["r"]._heap[Site("r", 2)]
    assert encode(a) == data
    # emptied and not refilled: nothing empty is kept
    data = _art(in_=_block("r", *before), out="r ^\n- /0 main:1\n- main:1 .f main:1\n")
    a = decode(data.encode(), program)
    assert _maps_are_canonical(a)
    assert a.i_out["r"] == decode(_art(in_=_block("r", *kept)).encode(), program).i_in["r"]


def test_edits_apply_to_the_entry_before_across_section_headers(program):
    data = _art(
        loop=_block("main:2", "main/0 main:1", "main:1 .f main:1"),
        in_="main ^\n- main/0 main:1\n- main:1 .f main:1\n" + _block("r", "r/0 main:1"),
        out="r ^\n+ main:1 .f main:1\n",
    )
    a = decode(data.encode(), program)
    assert a.i_in["main"] == decode(_art(in_=_block("main")).encode(), program).i_in["main"]
    assert a == decode(
        _art(
            loop=_block("main:2", "main/0 main:1", "main:1 .f main:1"),
            in_=_block("main") + _block("r", "r/0 main:1"),
            out=_block("r", "r/0 main:1", "main:1 .f main:1"),
        ).encode(),
        program,
    )


def test_edit_lines_apply_in_order(program):
    # an edge added and removed again, and removed and added again, leaves
    # the value as it was; encode never writes either
    base = _block("main", "/0 :1")
    for edits in ("+ main/0 null\n- main/0 null\n", "- main/0 main:1\n+ main/0 main:1\n"):
        a = decode(_art(in_=base + "r ^\n" + edits).encode(), program)
        assert a.i_in["r"] == a.i_in["main"]
        assert encode(a) == _art(in_=base + "r ^\n").encode()


@pytest.mark.parametrize("name", list(CASES))
def test_decode_rejection_message(program, name):
    data, exc, message = CASES[name]
    with pytest.raises(exc) as info:
        decode(_bytes(data), program)
    assert type(info.value) is exc
    assert str(info.value) == message


_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_ENTRY_HEADERS = {
    "[loop]": re.compile(rf"{_NAME}:[0-9]+ [{{^]"),
    "[in]": re.compile(rf"{_NAME} [{{^]"),
    "[out]": re.compile(rf"{_NAME} [{{^]"),
}
# a variable and its targets, or an object, a field token and its targets
_BINDING_LINE = re.compile(rf"(  |- |\+ )([^ ]*/[0-9]+|[^ /]+ \.{_NAME})( [^ /]+)+")


def test_every_line_of_a_corpus_artifact_is_an_art4_line(small_corpus):
    # the plain and -O artifacts of the small corpus and of two programs of
    # the roundtrip-large shape (one self-recursive method of 300 statements),
    # and each plain artifact with whole OUT summaries as its [out] entries
    # (valid ART/6: the entries hold their bases too)
    large = generate_corpus(
        CorpusConfig(program_count=2, seed=1, methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
    )
    programs = [p for _, p in small_corpus] + [parse_program(text) for _, text in large]
    checked = 0
    for p in programs:
        lfp = analyze_inter(p)
        plain = emit_artwork(p, lfp)
        whole = Artwork(plain.i_loop, plain.i_in, {n: lfp.out_summary[n] for n in plain.i_out})
        for a in (plain, optimize_artwork(p, plain), whole):
            first, *lines, last = encode(a).decode().split("\n")
            assert first == "ART/6" and last == ""
            section = None
            for line in lines:
                if line in _ENTRY_HEADERS:
                    section = line
                elif line != "}" and not _ENTRY_HEADERS[section].fullmatch(line):
                    assert _BINDING_LINE.fullmatch(line) and "->" not in line, line
                    checked += 1
    assert checked > 1000


def _verdict(program, text: str):
    """The artwork ``text`` decodes to, or the type of its error."""
    try:
        return decode(text.encode(), program)
    except (MalformedArtworkError, UnknownReferenceError) as exc:
        return type(exc)


def test_an_edge_line_gets_one_verdict_on_either_path(program):
    # Decode reads a canonical edge line by splitting it at single spaces
    # (the text path) and any other through ``ptg.parse_binding_line``; a
    # doubled space after the key, a trailing space or a third space of
    # indent sends the same line down the second path.
    texts = [data for data, _, _ in CASES.values() if isinstance(data, str)]
    respaced = (lambda rest: rest.replace(" ", "  ", 1), lambda rest: rest + " ", lambda rest: " " + rest)
    checked = 0
    for text in [VALID, INLINE, REPEAT, EDITED, *texts]:
        lines = text.split("\n")
        for i, line in enumerate(lines):
            head, rest = line[:2], line[2:]
            if head not in ("  ", "+ ", "- ") or " " not in rest:
                continue
            for respace in respaced:
                spaced = [*lines[:i], head + respace(rest), *lines[i + 1 :]]
                assert _verdict(program, text) == _verdict(program, "\n".join(spaced)), line
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("cut", range(1, len(VALID)))
def test_every_truncation_is_rejected_as_malformed(program, cut):
    data = VALID.encode()[:cut]
    if data.endswith(b"[out]\n"):
        # An artifact with no OUT entries: the one valid cut.
        assert decode(data, program).i_out == {}
        return
    with pytest.raises(MalformedArtworkError) as info:
        decode(data, program)
    if not data.endswith(b"\n"):
        assert str(info.value) == "missing trailing newline"


@pytest.mark.parametrize(
    "lines,message",
    [
        (5, "unterminated graph block"),  # inside the [loop] block
        (6, "unexpected end of file"),  # after the [loop] entry
        (7, "unexpected end of file"),  # after the [in] header
        (8, "unterminated graph block"),  # m:main's IN block opened
        (11, "unterminated graph block"),  # inside m:r's IN block
        (16, "unterminated graph block"),  # inside the [out] block
    ],
)
def test_truncation_at_a_line_boundary(program, lines, message):
    data = "".join(VALID.splitlines(keepends=True)[:lines]).encode()
    with pytest.raises(MalformedArtworkError) as info:
        decode(data, program)
    assert str(info.value) == message


def test_truncation_after_a_whole_entry_is_valid(program):
    # ``[in]`` ends with ``m:main``'s empty block: nothing marks the end of a
    # section, so cutting the file there drops the rest of it, and the
    # missing [out] header is what gives the cut away.
    data = "".join(VALID.splitlines(keepends=True)[:9]).encode()
    with pytest.raises(MalformedArtworkError) as info:
        decode(data, program)
    assert str(info.value) == "unexpected end of file"


@pytest.mark.parametrize("name", list(CASES))
def test_regen_exits_2_with_the_message(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setenv("ART_COLOR", "0")
    data, _, message = CASES[name]
    prog = tmp_path / "p.ir"
    prog.write_text(PROGRAM)
    art = tmp_path / "a.art"
    art.write_bytes(_bytes(data))
    assert main(["regen", str(prog), str(art)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_loop_key_off_a_loop_header_is_reported_and_ignored(tmp_path, capsys, monkeypatch, program):
    # main:3 is a statement of the loop, not its header
    data = VALID.replace("[in]\n", _block("main:3", "main/0 main:1") + "[in]\n", 1)
    outcome = regen_inter(program, decode(data.encode(), program))
    assert outcome.safe
    assert outcome.ignored_loop_keys == (("main", 3),)
    assert regen_inter(program, decode(VALID.encode(), program)).ignored_loop_keys == ()
    monkeypatch.setenv("ART_COLOR", "0")
    prog = tmp_path / "p.ir"
    prog.write_text(PROGRAM)
    art = tmp_path / "a.art"
    art.write_text(data)
    assert main(["regen", str(prog), str(art)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "SAFE\n"
    assert captured.err == "warning: [loop] main:3 is not a loop header; ignored\n"


def test_a_shared_bad_line_is_reported_for_its_first_entry(program):
    line = "r/0 r:1"
    data = _art(in_=_block("r", "r/0 main:1", line), out=_block("r", line)).encode()
    with pytest.raises(UnknownReferenceError) as info:
        decode(data, program)
    assert str(info.value) == "[in] r: object r:1 is not an allocation site"
    data = _art(in_=_block("r", "r/0 main:1"), out=_block("r", line)).encode()
    with pytest.raises(UnknownReferenceError) as info:
        decode(data, program)
    assert str(info.value) == "[out] r: object r:1 is not an allocation site"


# Several unknown references in one entry: the first bad edge line in file
# order is reported, and within a line its left side before its right.
FIRST_BAD_LINE = """\
import sys
from artpta import UnknownReferenceError, decode, parse_program
p = parse_program("method main() {\\n  1: x = new C\\n}\\n")
for body in sys.argv[1:]:  # " {", the edge lines, "}"
    data = ("ART/6\\n[loop]\\n[in]\\nmain" + body + "[out]\\n").encode()
    try:
        decode(data, p)
        print("accepted")
    except UnknownReferenceError as exc:
        print(exc)
"""

SEVERAL_BAD = [
    _block("", "main/0 main:97", "main/0 main:98", "main/0 main:99", "main/0 zz:5"),
    _block("", "main:1 .f main:7", "main/5 zz:1", "main:3 .g main:1"),
    _block("", "main/0 main:1", "zz:1 .f zz:2", "main/0 main:2"),
]


def test_the_first_bad_line_is_reported_under_every_hash_seed():
    import os
    import subprocess
    import sys

    import artpta

    src = os.path.dirname(os.path.dirname(os.path.abspath(artpta.__file__)))
    seen = set()
    for seed in ("0", "1", "2", "3", "17", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", FIRST_BAD_LINE, *SEVERAL_BAD],
            env=env, capture_output=True, text=True, check=True,
        )
        seen.add(run.stdout)
    assert seen == {
        "[in] main: object main:97 is not an allocation site\n"
        "[in] main: object main:7 is not an allocation site\n"
        "[in] main: object zz:1 is not an allocation site\n"
    }


@pytest.mark.parametrize(
    "data,message",
    [
        (b"NAIVE/2\n", "missing NAIVE/1 header"),
        (b"NAIVE/1\n[method main]", "missing trailing newline"),
        (b"NAIVE/1\nentry = {\n}\n", "bad dump line 'entry = {'"),
        (b"NAIVE/1\n[method main]\nl:x = {\n}\n", "bad dump line 'l:x = {'"),
        (b"NAIVE/1\n[method main]\nentry = {\n  main/0 -> main:1\n", "unexpected end of file"),
        (b"NAIVE/1\n[method main]\nentry = {\nexit = {\n}\n", "bad dump edge line 'exit = {'"),
    ],
)
def test_parse_naive_rejection_message(data, message):
    from artpta.artwork import parse_naive

    with pytest.raises(MalformedArtworkError) as info:
        parse_naive(data)
    assert str(info.value) == message


def test_parse_naive_reads_sorted_edge_lines():
    from artpta.artwork import parse_naive

    data = (
        b"NAIVE/1\n[method main]\nentry = {\n}\n"
        b"l:2 = {\n  main:1 .f-> null\n  main/0 -> main:1\n}\n"
    )
    assert parse_naive(data) == {
        ("main", "entry"): (),
        ("main", "l:2"): ("main/0 -> main:1", "main:1 .f-> null"),
    }


def test_a_syntax_error_wins_over_a_program_the_index_rejects():
    from artpta import IrreducibleCfgError

    p = parse_program("method main() {\n  1: return\n  2: nop\n  3: goto 2\n}\n")
    with pytest.raises(MalformedArtworkError) as info:
        decode(b"ART/6\n[loop]\n[in]\nmain {\n", p)
    assert str(info.value) == "unterminated graph block"
    with pytest.raises(IrreducibleCfgError):
        decode(b"ART/6\n[loop]\n[in]\n[out]\n", p)
