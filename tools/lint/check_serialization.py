#!/usr/bin/env python3
"""Serialization-completeness checker (the PKCK bit-identity rule).

For every class that declares checkpoint hooks -- a ``save*`` method
taking ``ser::Writer&`` and a ``load*`` method taking ``ser::Reader&``
-- every non-static data member must be *referenced* in both hook
bodies.  A member a hook forgets is exactly the checkpoint drift that
breaks the soak layer's restore-is-bit-identical invariant, silently:
the run restores, diverges later, and the divergence points nowhere
near the missing field.

Members that are legitimately not serialized carry an annotation on
their declaration line (or the line above):

    // ser: config   -- fixed at construction, restore requires the
                        same configuration (validated separately)
    // ser: derived  -- recomputed from serialized state on load()
                        or scoped to a single call (scratch space)

Both hooks must still *mention* an unannotated member; referencing it
in load() alone (e.g. a reset) without saving it is reported, and
vice versa.

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
SAVE_HOOK_RE = re.compile(r"\b(save\w*)\s*\(\s*(?:pktbuf::)?ser::Writer\b")
LOAD_HOOK_RE = re.compile(r"\b(load\w*)\s*\(\s*(?:pktbuf::)?ser::Reader\b")
OUT_OF_LINE_RE = re.compile(
    r"\b(\w+)::(save\w*|load\w*)\s*\(\s*(?:pktbuf::)?ser::(Writer|Reader)\b")
CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)"
                      r"(?:\s+final)?\s*(:[^;{]*)?\{")
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
        self.save_bodies: list[str] = []
        self.load_bodies: list[str] = []
        self.save_declared = False
        self.load_declared = False
        self.pure_save = False
        self.pure_load = False
        self.bases: list[str] = []


def _member_name(stmt: str) -> str | None:
    """Extract the declared member name from one class-body statement.

    Returns None for anything that is not a plain data-member
    declaration (functions, nested types, access labels, ...).
    """
    s = stmt.strip()
    # Drop access labels glued to the front of the statement.
    s = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", s)
    s = s.strip()
    if not s or MEMBER_SKIP_RE.match(s):
        return None
    # A paren outside template angle brackets means a function;
    # std::function<bool(QueueId)> members keep theirs inside <>.
    head = s.split("=", 1)[0].split("{", 1)[0]
    angle = 0
    for c in head:
        if c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "(" and angle == 0:
            return None  # function declaration / definition
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
    for ln in (line, line - 1, line - 2):
        text = st.comments.get(ln, "")
        if ANNOTATION_RE.search(text):
            return True
    return False


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
    for hook_re, which in ((SAVE_HOOK_RE, "save"), (LOAD_HOOK_RE, "load")):
        for m in hook_re.finditer(flat):
            open_paren = m.start() + m.group(0).index("(")
            close_paren = find_matching(flat, open_paren, "(", ")")
            if close_paren == -1:
                continue
            tail = flat[close_paren:]
            head = re.match(r"\s*(?:const)?\s*(?:noexcept)?\s*"
                            r"(?:override)?\s*(=\s*0\s*;|;|\{)", tail)
            if not head:
                continue
            tok = head.group(1)
            if which == "save":
                cls.save_declared = True
            else:
                cls.load_declared = True
            if tok.startswith("="):
                if which == "save":
                    cls.pure_save = True
                else:
                    cls.pure_load = True
                # Blank so the declaration is not seen as a member.
                continue
            if tok == "{":
                open_brace = close_paren + head.end(1) - 1
                body_close = find_matching(flat, open_brace)
                if body_close == -1:
                    continue
                text = flat[open_brace:body_close]
                (cls.save_bodies if which == "save"
                 else cls.load_bodies).append(text)

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
                # End of a braced chunk: if the statement so far has
                # no "=", it is a function/initializer block --
                # terminate the statement here (no semicolon after a
                # function body).
                nxt = flat[i + 1:i + 2]
                if nxt != ";":
                    statements.append((stmt_start, flat[stmt_start:i + 1]))
                    stmt_start = i + 1
        elif c == ";" and depth == 0:
            statements.append((stmt_start, flat[stmt_start:i]))
            stmt_start = i + 1

    for off, stmt in statements:
        if "(" in stmt:
            continue
        name = _member_name(stmt)
        if name is None:
            continue
        # Line of the declaration = line of the statement's last
        # non-space content (annotations sit on or above it).
        content = off + len(stmt) - len(stmt.rstrip())
        line = st.line_of(body_start + off + len(stmt.rstrip()) - 1) \
            if stmt.strip() else st.line_of(body_start + off)
        _ = content
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
                prev = classes[name]
                prev.members.update(cls.members)
                prev.save_bodies += cls.save_bodies
                prev.load_bodies += cls.load_bodies
                prev.save_declared |= cls.save_declared
                prev.load_declared |= cls.load_declared
                prev.pure_save |= cls.pure_save
                prev.pure_load |= cls.pure_load
                prev.bases = sorted(set(prev.bases) | set(cls.bases))
            else:
                classes[name] = cls

    # Pass 2: out-of-line hook definitions (hybrid_buffer.cc style).
    for st in stripped:
        for m in OUT_OF_LINE_RE.finditer(st.code):
            cls = classes.get(m.group(1))
            if cls is None:
                continue
            open_paren = m.start() + m.group(0).index("(")
            close_paren = find_matching(st.code, open_paren, "(", ")")
            if close_paren == -1:
                continue
            brace = re.match(r"\s*(?:const)?\s*\{", st.code[close_paren:])
            if not brace:
                continue
            open_brace = close_paren + brace.end() - 1
            body_close = find_matching(st.code, open_brace)
            if body_close == -1:
                continue
            text = st.code[open_brace:body_close]
            if m.group(3) == "Writer":
                cls.save_bodies.append(text)
            else:
                cls.load_bodies.append(text)

    return classes


def _inherits_hooks(cls: ClassInfo, classes: dict[str, ClassInfo],
                    seen: frozenset[str] = frozenset()) -> bool:
    """True when an ancestor declares both hooks (pure or concrete)."""
    for base_name in cls.bases:
        if base_name in seen:
            continue
        base = classes.get(base_name)
        if base is None:
            continue
        if base.save_declared and base.load_declared:
            return True
        if _inherits_hooks(base, classes, seen | {cls.name}):
            return True
    return False


def check(classes: dict[str, ClassInfo]) -> list[Finding]:
    findings = []
    for cls in classes.values():
        own_hooks = cls.save_declared and cls.load_declared
        inherited = _inherits_hooks(cls, classes)
        if not own_hooks and not inherited:
            continue  # not a serializable class
        if cls.pure_save or cls.pure_load:
            continue  # interface; concrete classes are checked
        if inherited and not own_hooks and not cls.save_bodies \
                and not cls.load_bodies:
            # Subclass of a serializable base with no extra hooks of
            # its own: every unannotated member it adds is drift (the
            # base's hooks cannot reference it).
            for name, (line, annotated) in sorted(cls.members.items()):
                if annotated:
                    continue
                findings.append(Finding(
                    cls.path, line, "ser-member-missing",
                    f"{cls.name}::{name}: class inherits save()/load()"
                    f" but declares no save/load hook referencing this"
                    f" member; add a saveExtra/loadExtra-style hook or"
                    f" annotate with '// ser: config' or"
                    f" '// ser: derived'"))
            continue
        if not cls.save_bodies or not cls.load_bodies:
            # Hook declared here, body defined in some TU we did not
            # scan -- only possible if the caller narrowed the file
            # set, so say so rather than guessing.
            findings.append(Finding(
                cls.path, cls.line, "ser-missing-body",
                f"{cls.name}: save()/load() declared but no body "
                f"found in the scanned files"))
            continue
        save_text = "\n".join(cls.save_bodies)
        load_text = "\n".join(cls.load_bodies)
        for name, (line, annotated) in sorted(cls.members.items()):
            if annotated:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            in_save = bool(word.search(save_text))
            in_load = bool(word.search(load_text))
            if in_save and in_load:
                continue
            missing = [h for h, ok in (("save()", in_save),
                                       ("load()", in_load)) if not ok]
            findings.append(Finding(
                cls.path, line, "ser-member-missing",
                f"{cls.name}::{name} not referenced in "
                f"{' or '.join(missing)}; serialize it or annotate "
                f"the declaration with '// ser: config' or "
                f"'// ser: derived'"))
    return findings


def run(paths: list[str]) -> list[Finding]:
    return check(parse_regex(paths))


# ---------------------------------------------------------------- fixtures

CLEAN_FIXTURE = """
#include "common/serialize.hh"
class Good {
  public:
    void save(ser::Writer &w) const { w.u64(a_); w.u64(b_); }
    void load(ser::Reader &r) { a_ = r.u64(); b_ = r.u64(); }
  private:
    unsigned a_ = 0;
    unsigned long b_ = 0;
    unsigned cfg_queues_;  // ser: config
    // ser: derived (rebuilt by load from a_)
    unsigned scratch_ = 0;
};
"""

VIOLATION_FIXTURE = """
#include "common/serialize.hh"
class Drifty {
  public:
    void save(ser::Writer &w) const { w.u64(a_); }
    void load(ser::Reader &r) { a_ = r.u64(); }
  private:
    unsigned a_ = 0;
    unsigned forgotten_ = 0;   // added without updating save/load
};
"""

INHERIT_FIXTURE = """
#include "common/serialize.hh"
class Base {
  public:
    void save(ser::Writer &w) const { w.u64(a_); saveExtra(w); }
    void load(ser::Reader &r) { a_ = r.u64(); loadExtra(r); }
  protected:
    virtual void saveExtra(ser::Writer &) const {}
    virtual void loadExtra(ser::Reader &) {}
  private:
    unsigned a_ = 0;
};
class Sub : public Base {
  private:
    unsigned cursor_ = 0;  // stateful, but Sub overrides no hook
};
"""

HALF_FIXTURE = """
#include "common/serialize.hh"
class HalfDone {
  public:
    void save(ser::Writer &w) const { w.u64(a_); w.u64(half_); }
    void load(ser::Reader &r) { a_ = r.u64(); }
  private:
    unsigned a_ = 0;
    unsigned half_ = 0;  // saved but never loaded
};
"""


def self_test() -> int:
    cases = []
    with tempfile.TemporaryDirectory(prefix="ser_lint_") as tmp:
        for desc, text, clean in (
                ("clean fixture", CLEAN_FIXTURE, True),
                ("forgotten member", VIOLATION_FIXTURE, False),
                ("saved-but-not-loaded member", HALF_FIXTURE, False),
                ("hook-less subclass with state", INHERIT_FIXTURE,
                 False)):
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
