//===--- StatKeyCheck.hh - pktbuf-stat-key -------------------------------===//
//
// String literals passed to StatRegistry registration (counter /
// sampler / highWater) must follow the `component.metric`
// grammar -- lower-case alnum/underscore tokens joined by dots -- and
// a full-literal key must be registered from exactly one source
// location, so `grep <key>` from a stat dump lands on one site.
// Literal fragments of runtime-composed keys ("across_ports." +
// name) are charset-checked.
//
//===----------------------------------------------------------------------===//

#ifndef PKTBUF_TOOLS_ANALYZER_STAT_KEY_CHECK_HH
#define PKTBUF_TOOLS_ANALYZER_STAT_KEY_CHECK_HH

#include <map>
#include <string>

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::pktbuf
{

class StatKeyCheck : public ClangTidyCheck
{
  public:
    StatKeyCheck(StringRef Name, ClangTidyContext *Context)
        : ClangTidyCheck(Name, Context)
    {}

    void registerMatchers(ast_matchers::MatchFinder *Finder) override;
    void check(const ast_matchers::MatchFinder::MatchResult &Result) override;

  private:
    /// Full-literal key -> "file:line" of its first registration.
    /// Two *different* sites registering the same key is ambiguity a
    /// dump reader cannot resolve; the same site seen again (header
    /// re-parsed in another TU of this invocation) is not.
    std::map<std::string, std::string> seen_;
};

} // namespace clang::tidy::pktbuf

#endif // PKTBUF_TOOLS_ANALYZER_STAT_KEY_CHECK_HH
