#!/usr/bin/env python3
"""Serialization-completeness checker (the PKCK bit-identity rule).

A checkpointed class lists its persisted members once, in a
``fields(ser::Io &)`` hook (``extraFields`` in subclasses of a class
whose ``fields`` calls it).  Every non-static data member of such a
class must be *referenced* in its hook bodies.  A member the list
forgets is exactly the checkpoint drift that breaks the soak layer's
restore-is-bit-identical invariant, silently: the run restores,
diverges later, and the divergence points nowhere near the missing
field.

Members that are legitimately not serialized carry an annotation on
their declaration line (or the line above):

    // ser: config   -- fixed at construction, restore requires the
                        same configuration (validated separately)
    // ser: derived  -- recomputed from serialized state on restore
                        or scoped to a single call (scratch space)

A class that still hand-writes both a ``save*(ser::Writer &)`` and a
``load*(ser::Reader &)`` body is a finding too, unless both are
one-line forwards onto the field list (``ser::save(w, *this)`` /
``ser::load(r, *this)``): two hand-kept lists are what drifts apart.

Engine: a regex/lexical parser, the fast local check.  The
authoritative AST-grade enforcement of the same rule is the in-tree
clang-tidy plugin (``tools/analyzer``, check
``pktbuf-serialization-complete``); CI requires both to pass on the
tree, so the two must agree on it.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lintlib import (Finding, Stripped, cxx_files, find_matching,
                     read_stripped, report, run_self_test,
                     split_top_level)

TOOL = "check_serialization"

ANNOTATION_RE = re.compile(r"\bser:\s*(config|derived)\b")
# hook kind -> method name + ser:: parameter (the name is group 1)
HOOKS = {kind: rf"({name})\s*\(\s*(?:pktbuf::)?ser::{param}\b"
         for kind, name, param in (("fields", r"\w*[Ff]ields", "Io"),
                                   ("save", r"save\w*", "Writer"),
                                   ("load", r"load\w*", "Reader"))}
HOOK_RES = {kind: re.compile(r"\b" + pat) for kind, pat in HOOKS.items()}
# Out-of-line definitions: "A::B::hook(" (the qualifier is group 1).
OUT_OF_LINE_RES = {kind: re.compile(r"\b((?:\w+::)*\w+)::" + pat)
                   for kind, pat in HOOKS.items()}
# Load-side checks and rebuilds name members without listing them.
CHECK_RE = re.compile(r"\b(?:fatal_if|panic_if)\s*(\()|"
                      r"\bif\s*\(\s*io\.reading\(\)\s*\)\s*(\{)?")
# A save/load body that only hands over to the field list.
FORWARD_RE = re.compile(r"\bser::(?:save|load)\s*\(|\bfields\s*\(")
# An out-of-line nested definition "struct A::B {" is class "A::B".
CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*(?:::\w+)*)"
                      r"(?:\s+final)?\s*(:(?!:)[^;{]*)?\{")
# A nested type's forward declaration ("struct Impl;") is no member.
FORWARD_DECL_RE = re.compile(r"^(?:class|struct)\s+\w+\s*$")
MEMBER_SKIP_RE = re.compile(
    r"^\s*(using|typedef|friend|static|template|enum|public|private|"
    r"protected|return|if|for|while|switch|case|goto|break|continue)\b")


class ClassInfo:
    def __init__(self, name: str, path: str, line: int):
        self.name = name
        self.path = path
        self.line = line
        # member name -> (line, annotated)
        self.members: dict[str, tuple[int, bool]] = {}
        # hook kind -> bodies found (inline or out of line)
        self.bodies: dict[str, list[str]] = {k: [] for k in HOOKS}
        self.fields_declared = False
        self.pure = False
        self.bases: list[str] = []

    def merge(self, other: "ClassInfo") -> None:
        self.members.update(other.members)
        for kind, bodies in other.bodies.items():
            self.bodies[kind] += bodies
        self.fields_declared |= other.fields_declared
        self.pure |= other.pure
        self.bases = sorted(set(self.bases) | set(other.bases))


def _member_name(stmt: str) -> str | None:
    """Extract the declared member name from one class-body statement.

    Returns None for anything that is not a plain data-member
    declaration (functions, nested types, access labels, ...).
    """
    s = stmt.strip()
    # Drop access labels glued to the front of the statement.
    s = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", s)
    s = s.strip()
    if (not s or "(" in s or MEMBER_SKIP_RE.match(s) or
            FORWARD_DECL_RE.match(s)):
        return None  # a function (or a std::function member)
    # Chop any initializer, then array extents, then take the last
    # identifier: "std::vector<T> foo_ = {}" -> foo_.
    decl = re.split(r"[={]", s, 1)[0]
    decl = re.sub(r"\[[^\]]*\]", "", decl)
    m = re.search(r"([A-Za-z_]\w*)\s*$", decl)
    if not m:
        return None
    name = m.group(1)
    # A lone type keyword is not a member name.
    if name in ("const", "override", "final", "noexcept", "int",
                "unsigned", "double", "float", "bool", "char", "auto"):
        return None
    return name


def _base_names(spec: str | None) -> list[str]:
    """Base-class names out of an inheritance spec (': public A, B<T>')."""
    if not spec:
        return []
    names = []
    for part in split_top_level(spec.lstrip(":")):
        part = re.sub(r"<.*", "", part)
        m = re.search(r"([A-Za-z_]\w*)\s*$", part)
        if m and m.group(1) not in ("public", "private", "protected",
                                    "virtual"):
            names.append(m.group(1))
    return names


def _annotated(st: Stripped, line: int) -> bool:
    """An annotation on the declaration's line or on the comment-only
    lines just above it (a comment trailing the previous declaration
    belongs to that one)."""
    code_lines = st.code.split("\n")
    for ln in (line, line - 1, line - 2):
        if ln < line and code_lines[ln - 1].strip():
            return False
        if ANNOTATION_RE.search(st.comments.get(ln, "")):
            return True
    return False


def _hook_body(code: str, m: re.Match) -> tuple[str, str | None]:
    """What follows the parameter list of the hook ``m`` matched:
    ``"{"`` with the body, ``";"`` or ``"= 0;"`` with None, or
    ``""`` when it is not a declaration at all."""
    close = find_matching(code, m.start() + m.group(0).index("("),
                          "(", ")")
    head = re.match(r"\s*(?:const)?\s*(?:noexcept)?\s*(?:override)?"
                    r"\s*(=\s*0\s*;|;|\{)", code[close:]) \
        if close != -1 else None
    if not head:
        return "", None
    if head.group(1) != "{":
        return head.group(1), None
    end = find_matching(code, close + head.end(1) - 1)
    return "{", code[close + head.end(1) - 1:end] if end != -1 else None


def _scan_class_body(st: Stripped, cls: ClassInfo, body_start: int,
                     body_end: int,
                     classes: dict[str, ClassInfo]) -> None:
    """Collect members and inline hooks at this class's top level.

    Nested class/struct definitions are recursed into as their own
    classes and blanked out of the parent's view.
    """
    body = st.code[body_start:body_end]
    view = list(body)

    # Recurse into (and blank) nested class/struct definitions.
    for m in CLASS_RE.finditer(body):
        open_pos = body.index("{", m.end() - 1)
        close = find_matching(body, open_pos)
        if close == -1:
            continue
        nested = ClassInfo(m.group(2), st.path,
                           st.line_of(body_start + m.start()))
        nested.bases = _base_names(m.group(3))
        _scan_class_body(st, nested, body_start + open_pos + 1,
                         body_start + close - 1, classes)
        classes.setdefault(nested.name, nested)
        for k in range(m.start(), close):
            if view[k] != "\n":
                view[k] = " "
    flat = "".join(view)

    # Inline hook bodies (and pure-virtual / declaration-only hooks).
    for kind, hook_re in HOOK_RES.items():
        for m in hook_re.finditer(flat):
            tok, body = _hook_body(flat, m)
            if kind == "fields" and tok:
                cls.fields_declared = True
                cls.pure |= tok.startswith("=")
            if body is not None:
                cls.bodies[kind].append(body)

    # Blank member-function bodies so their locals are not mistaken
    # for member declarations, then split the remainder into
    # statements at top level.
    depth = 0
    stmt_start = 0
    statements: list[tuple[int, str]] = []
    for i, c in enumerate(flat):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                # A braced chunk not followed by ';' is a function
                # body: it ends the statement.
                if flat[i + 1:i + 2] != ";":
                    statements.append((stmt_start, flat[stmt_start:i + 1]))
                    stmt_start = i + 1
        elif c == ";" and depth == 0:
            statements.append((stmt_start, flat[stmt_start:i]))
            stmt_start = i + 1

    for off, stmt in statements:
        name = _member_name(stmt)
        if name is None:
            continue
        # Line of the declaration = line of the statement's last
        # non-space content (annotations sit on or above it).
        line = st.line_of(body_start + off + len(stmt.rstrip()) - 1)
        cls.members[name] = (line, _annotated(st, line))


def parse_regex(paths: list[str]) -> dict[str, ClassInfo]:
    classes: dict[str, ClassInfo] = {}
    stripped = [read_stripped(p) for p in paths]

    # Pass 1: class definitions in every file.
    for st in stripped:
        for m in CLASS_RE.finditer(st.code):
            # Skip out-of-line "Name::method" hits and forward decls
            # (CLASS_RE requires a brace, so forward decls never match).
            open_pos = st.code.index("{", m.end() - 1)
            close = find_matching(st.code, open_pos)
            if close == -1:
                continue
            name = m.group(2)
            cls = ClassInfo(name, st.path, st.line_of(m.start()))
            cls.bases = _base_names(m.group(3))
            _scan_class_body(st, cls, open_pos + 1, close - 1, classes)
            if name in classes:
                # Same-named class seen twice (e.g. in a .hh and a
                # test fixture): merge hooks/members conservatively.
                classes[name].merge(cls)
            else:
                classes[name] = cls

    # Pass 2: out-of-line hook definitions (hybrid_buffer.cc style),
    # owned by the longest known suffix of the qualifier: namespaces
    # drop off the front, and inline nested classes go by their own
    # name.
    for st in stripped:
        for kind, hook_re in OUT_OF_LINE_RES.items():
            for m in hook_re.finditer(st.code):
                parts = m.group(1).split("::")
                cls = next((classes["::".join(parts[k:])]
                            for k in range(len(parts))
                            if "::".join(parts[k:]) in classes), None)
                body = _hook_body(st.code, m)[1]
                if cls is not None and body is not None:
                    cls.bodies[kind].append(body)

    return classes


def _inherits_fields(cls: ClassInfo, classes: dict[str, ClassInfo],
                     seen: frozenset[str] = frozenset()) -> bool:
    """True when an ancestor declares a fields() hook."""
    bases = [classes[b] for b in cls.bases
             if b in classes and b not in seen]
    return any(b.fields_declared or
               _inherits_fields(b, classes, seen | {cls.name})
               for b in bases)


def _listing(body: str) -> str:
    """The body with its fatal_if/panic_if calls and its
    ``if (io.reading())`` branches blanked: a member named only there
    is checked or rebuilt on restore, not listed."""
    out = list(body)
    for m in CHECK_RE.finditer(body):
        paren, brace = m.start(1), m.start(2)
        if paren >= 0 or brace >= 0:
            at = max(paren, brace)
            end = find_matching(body, at, body[at],
                                ")" if paren >= 0 else "}")
        else:  # an unbraced branch: up to its statement's ';'
            depth, end = 0, m.end()
            while end < len(body) and (depth or body[end] != ";"):
                depth += (body[end] in "([{") - (body[end] in ")]}")
                end += 1
        end = max(end, m.end())
        out[m.start():end] = " " * (end - m.start())
    return "".join(out)


def _is_forward(body: str) -> bool:
    """A one-statement body handing over to the field list."""
    return body.count(";") <= 1 and bool(FORWARD_RE.search(body))


def check(classes: dict[str, ClassInfo]) -> list[Finding]:
    findings = []
    for cls in classes.values():
        saves, loads = cls.bodies["save"], cls.bodies["load"]
        if saves and loads and not all(map(_is_forward, saves + loads)):
            findings.append(Finding(
                cls.path, cls.line, "ser-hand-pair",
                f"{cls.name}: hand-written save()/load() pair; list the"
                f" members once in fields(ser::Io &) and keep save()/"
                f"load() as one-line forwards (ser::save/ser::load)"))
        own = cls.bodies["fields"]
        inherited = _inherits_fields(cls, classes)
        if (not cls.fields_declared and not inherited) or cls.pure:
            continue  # not checkpointed, or an interface
        if cls.fields_declared and not own:
            # Only possible if the caller narrowed the file set.
            findings.append(Finding(
                cls.path, cls.line, "ser-missing-body",
                f"{cls.name}: fields() declared but no body found in "
                f"the scanned files"))
            continue
        text = "\n".join(map(_listing, own))
        for name, (line, annotated) in sorted(cls.members.items()):
            if annotated or re.search(rf"\b{re.escape(name)}\b", text):
                continue
            where = ("its fields() hooks" if own else
                     "an inherited fields() that cannot see it; add an "
                     "extraFields(ser::Io &) override")
            findings.append(Finding(
                cls.path, line, "ser-member-missing",
                f"{cls.name}::{name} not listed in {where}; serialize "
                f"it or annotate the declaration with '// ser: config'"
                f" or '// ser: derived'"))
    return findings


def run(paths: list[str]) -> list[Finding]:
    return check(parse_regex(paths))


# ---------------------------------------------------------------- fixtures

CLEAN_FIXTURE = """
#include "common/serialize.hh"
class Good {
  public:
    void fields(ser::Io &io) {
        io.u64(a_); io.u64(b_);
        if (io.reading()) rebuild();
    }
    void save(ser::Writer &w) const { ser::save(w, *this); }
    void load(ser::Reader &r) { ser::load(r, *this); }
  protected:
    virtual void extraFields(ser::Io &) {}
  private:
    unsigned a_ = 0;
    unsigned long b_ = 0;
    unsigned cfg_queues_;  // ser: config
    // ser: derived (rebuilt on restore from a_)
    unsigned scratch_ = 0;
};
class Sub : public Good {
  protected:
    void extraFields(ser::Io &io) override { io.u64(cursor_); }
  private:
    unsigned cursor_ = 0;
};
"""

VIOLATION_FIXTURE = """
#include "common/serialize.hh"
class Drifty {
  public:
    void fields(ser::Io &io) { io.u64(a_); }
  private:
    unsigned a_ = 0;
    unsigned forgotten_ = 0;   // added without updating fields()
};
"""

INHERIT_FIXTURE = """
#include "common/serialize.hh"
class Base {
  public:
    void fields(ser::Io &io) { io.u64(a_); }
  private:
    unsigned a_ = 0;
};
class Sub : public Base {
  private:
    unsigned cursor_ = 0;  // stateful, but Sub lists no fields
};
"""

HAND_PAIR_FIXTURE = """
#include "common/serialize.hh"
class TwoLists {
  public:
    void save(ser::Writer &w) const { w.u64(a_); }
    void load(ser::Reader &r) { a_ = r.u64(); }
  private:
    unsigned a_ = 0;
};
"""

# "struct Outer::Impl { ... }" defined out of line is its own class:
# its members are not Outer's, and Outer's forward declaration of it
# is no member either.
NESTED_FIXTURE = """
#include "common/serialize.hh"
class Outer {
  public:
    void fields(ser::Io &io);
  private:
    struct Impl;
    unsigned a_ = 0;
    Impl *impl_ = nullptr;  // ser: derived
};
struct Outer::Impl {
    unsigned threads_ = 0;
    bool stopping_ = false;
};
void Outer::fields(ser::Io &io) { io.u64(a_); }
"""

NESTED_VIOLATION_FIXTURE = """
#include "common/serialize.hh"
class Outer {
  public:
    void fields(ser::Io &io) { io.u64(a_); }
  private:
    struct Impl;
    unsigned a_ = 0;
};
struct Outer::Impl {
    void fields(ser::Io &io);
    unsigned kept_ = 0;
    unsigned forgotten_ = 0;
};
void Outer::Impl::fields(ser::Io &io) { io.u64(kept_); }
"""


def self_test() -> int:
    cases = []
    with tempfile.TemporaryDirectory(prefix="ser_lint_") as tmp:
        for desc, text, clean in (
                ("clean fixture", CLEAN_FIXTURE, True),
                ("forgotten member", VIOLATION_FIXTURE, False),
                ("hand-written save/load pair", HAND_PAIR_FIXTURE,
                 False),
                ("field-less subclass with state", INHERIT_FIXTURE,
                 False),
                ("out-of-line nested class", NESTED_FIXTURE, True),
                ("out-of-line nested class forgets a member",
                 NESTED_VIOLATION_FIXTURE, False)):
            path = os.path.join(tmp, "fixture.hh")
            with open(path, "w") as f:
                f.write(text)
            cases.append((desc, clean, len(run([path]))))
    return run_self_test(TOOL, cases)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/dirs to scan (default: src/)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    roots = args.paths or ["src"]
    paths = cxx_files(roots)
    if not paths:
        print(f"{TOOL}: no C++ sources under {roots}", file=sys.stderr)
        return 2
    return report(run(paths), TOOL)


if __name__ == "__main__":
    sys.exit(main())
