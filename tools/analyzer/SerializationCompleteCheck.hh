//===--- SerializationCompleteCheck.hh - pktbuf-serialization-complete ---===//
//
// The AST-true version of tools/lint/check_serialization.py: every
// non-static data member of a class with a fields(ser::Io&) hook
// (own, an extraFields-style override, or out-of-line in a .cc) must
// be listed in the hook bodies -- outside its load-side checks and
// rebuilds -- or carry a "// ser: config" / "// ser: derived"
// annotation on (or just above) its declaration.  A class that
// hand-writes both a save*(ser::Writer&) and a load*(ser::Reader&)
// body, other than one-line forwards onto the field list, is a
// finding too.  Unlike the lexical engine, this check sees through
// member-expression spelling, helper calls and out-of-line
// definitions -- it matches actual FieldDecl references, not words.
//
// Per-TU scoping rule: the completeness verdict is only issued in a
// translation unit where *every* declared hook body is visible
// (inline hooks: any TU including the header; out-of-line hooks: the
// defining .cc).  TUs that see only declarations stay silent, so
// scanning all of src/*.cc covers every class exactly once or more,
// never wrongly.
//
//===----------------------------------------------------------------------===//

#ifndef PKTBUF_TOOLS_ANALYZER_SERIALIZATION_COMPLETE_CHECK_HH
#define PKTBUF_TOOLS_ANALYZER_SERIALIZATION_COMPLETE_CHECK_HH

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::pktbuf
{

class SerializationCompleteCheck : public ClangTidyCheck
{
  public:
    SerializationCompleteCheck(StringRef Name, ClangTidyContext *Context)
        : ClangTidyCheck(Name, Context)
    {}

    void registerMatchers(ast_matchers::MatchFinder *Finder) override;
    void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

} // namespace clang::tidy::pktbuf

#endif // PKTBUF_TOOLS_ANALYZER_SERIALIZATION_COMPLETE_CHECK_HH
