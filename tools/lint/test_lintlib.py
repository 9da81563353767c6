#!/usr/bin/env python3
"""Unit tests for lintlib's lexer and the regex engine's edge cases.

The linters' credibility rests on strip_code: if a raw string
containing ``//`` were treated as a comment, or a multi-line member
declaration dropped on the floor, a checker would silently pass code
it should flag.  These tests pin the tricky inputs; run directly or
via ``ctest -R lint_lintlib``.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lintlib import Finding, find_matching, split_top_level, strip_code

import check_serialization


class StripCodeRawStrings(unittest.TestCase):
    def test_raw_string_slashes_are_not_comments(self):
        text = 'auto s = R"(// not a comment)";  // trailing note\n'
        st = strip_code("t.cc", text)
        # The fake comment is blanked out of the code view...
        self.assertNotIn("not a comment", st.code)
        # ...and never captured as a comment, while the real one is.
        self.assertIn("trailing note", st.comments.get(1, ""))
        self.assertNotIn("not a comment", st.comments.get(1, ""))

    def test_raw_string_custom_delimiter(self):
        # The inner )" must not close a delimited raw string.
        text = 'auto s = R"ser((inner )" quote))ser";\nint after_;\n'
        st = strip_code("t.cc", text)
        self.assertNotIn("inner", st.code)
        self.assertIn("int after_;", st.code)

    def test_multiline_raw_string_preserves_line_numbers(self):
        text = ('auto q = R"(line one\n'
                '// line two\n'
                'line three)";\n'
                'int x_ = 0;  // ser: config\n')
        st = strip_code("t.cc", text)
        self.assertEqual(st.comments.get(2), None)
        offset = st.code.index("x_")
        self.assertEqual(st.line_of(offset), 4)
        self.assertIn("ser: config", st.comments.get(4, ""))

    def test_escaped_quote_then_comment(self):
        text = 'auto s = "a\\"b";  // ser: derived\n'
        st = strip_code("t.cc", text)
        self.assertIn("ser: derived", st.comments.get(1, ""))
        self.assertNotIn("a\\", st.code)

    def test_char_literal_quote_does_not_open_string(self):
        text = "char c = '\"';  // note\nint y_;\n"
        st = strip_code("t.cc", text)
        self.assertIn("note", st.comments.get(1, ""))
        self.assertIn("int y_;", st.code)

    def test_block_comment_line_tracking(self):
        text = "/* a\n b\n c */\nint z_;  // here\n"
        st = strip_code("t.cc", text)
        self.assertIn(" a", st.comments.get(1, ""))
        self.assertEqual(st.line_of(st.code.index("z_")), 4)
        self.assertIn("here", st.comments.get(4, ""))


class Matching(unittest.TestCase):
    def test_find_matching_nested(self):
        code = "f { a { b } c { d } }"
        open_pos = code.index("{")
        self.assertEqual(find_matching(code, open_pos), len(code))

    def test_find_matching_unbalanced(self):
        self.assertEqual(find_matching("{ { }", 0), -1)

    def test_split_top_level_respects_nesting(self):
        parts = split_top_level("a<x, y>(1, 2), b{3, 4}, c")
        # Angle brackets are not tracked, but parens/braces are; the
        # template's comma sits inside neither, so it splits.  This
        # pins the documented behavior rather than an aspiration.
        self.assertEqual([p.strip() for p in parts],
                         ["a<x", "y>(1, 2)", "b{3, 4}", "c"])


def _regex_findings(text: str) -> list[Finding]:
    with tempfile.TemporaryDirectory(prefix="lintlib_t_") as tmp:
        path = os.path.join(tmp, "fixture.hh")
        with open(path, "w") as f:
            f.write(text)
        return check_serialization.run([path])


class RegexEngineMembers(unittest.TestCase):
    def test_multiline_member_declaration_found(self):
        text = """
class Multi {
  public:
    void fields(ser::Io &io) { io.u64(plain_); io.u64(wide_); }
  private:
    unsigned plain_ = 0;
    std::map<unsigned,
             unsigned>
        wide_;
};
"""
        self.assertEqual(_regex_findings(text), [])

    def test_multiline_member_forgotten_is_flagged(self):
        text = """
class Multi {
  public:
    void fields(ser::Io &io) { io.u64(plain_); }
  private:
    unsigned plain_ = 0;
    std::vector<
        unsigned> forgotten_;
};
"""
        findings = _regex_findings(text)
        self.assertEqual(len(findings), 1)
        self.assertIn("forgotten_", findings[0].message)

    def test_mention_inside_string_does_not_count(self):
        # The hook "mentions" the member only inside a string literal;
        # literals are blanked, so this must still be a finding.
        text = """
class Stringy {
  public:
    void fields(ser::Io &io) { io.u64(a_); log("b_"); }
  private:
    unsigned a_ = 0;
    unsigned b_ = 0;
};
"""
        findings = _regex_findings(text)
        self.assertEqual(len(findings), 1)
        self.assertIn("b_", findings[0].message)

    def test_annotation_two_lines_above(self):
        text = """
class Annotated {
  public:
    void fields(ser::Io &io) { io.u64(a_); }
  private:
    unsigned a_ = 0;
    // ser: derived -- rebuilt by the first tick after restore;
    // spans two comment lines before the declaration.
    unsigned scratch_ = 0;
};
"""
        self.assertEqual(_regex_findings(text), [])

    def test_neighbour_annotation_does_not_cover(self):
        # The comment trailing b_'s declaration belongs to b_, not to
        # the member declared on the next line.
        text = """
class Neighbours {
  public:
    void fields(ser::Io &io) { io.u64(a_); }
  private:
    unsigned a_ = 0;
    unsigned b_ = 0;  // ser: derived
    unsigned c_ = 0;
};
"""
        findings = _regex_findings(text)
        self.assertEqual(len(findings), 1)
        self.assertIn("c_", findings[0].message)

    def test_load_side_check_does_not_list(self):
        # Naming a member in a restore check or rebuild is not listing
        # it: its bytes would never be written.
        text = """
class Checked {
  public:
    void fields(ser::Io &io) {
        io.u64(a_);
        fatal_if(io.reading() && b_ > a_, "b_ out of range");
        if (io.reading())
            c_ = 0;
    }
  private:
    unsigned a_ = 0;
    unsigned b_ = 0;
    unsigned c_ = 0;
};
"""
        names = sorted(f.message.split("::")[1].split()[0]
                       for f in _regex_findings(text))
        self.assertEqual(names, ["b_", "c_"])

    def test_out_of_line_nested_class_is_its_own(self):
        # "struct Outer::Impl {" must not hand Impl's members to
        # Outer; a member Impl's own fields() forgets is flagged on
        # Impl, by its qualified name.
        text = """
class Outer {
  public:
    void fields(ser::Io &io) { io.u64(a_); }
  private:
    struct Impl;
    unsigned a_ = 0;
};
struct Outer::Impl : Base {
    void fields(ser::Io &io);
    unsigned kept_ = 0;
    unsigned forgotten_ = 0;
};
void Outer::Impl::fields(ser::Io &io) { io.u64(kept_); }
"""
        findings = _regex_findings(text)
        self.assertEqual([f.message.split()[0] for f in findings],
                         ["Outer::Impl::forgotten_"])


if __name__ == "__main__":
    unittest.main()
