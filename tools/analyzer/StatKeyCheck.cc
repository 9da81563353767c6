//===--- StatKeyCheck.cc - pktbuf-stat-key -------------------------------===//

#include "StatKeyCheck.hh"

#include "PktbufAstHelpers.hh"
#include "clang/AST/ASTContext.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang::tidy::pktbuf
{

void
StatKeyCheck::registerMatchers(MatchFinder *Finder)
{
    Finder->addMatcher(
        cxxMemberCallExpr(
            callee(cxxMethodDecl(
                hasAnyName("counter", "sampler", "highWater"),
                ofClass(hasName("::pktbuf::StatRegistry")))),
            unless(isExpansionInSystemHeader()))
            .bind("reg"),
        this);
}

namespace
{

/// Descend through the temporary-materialization / std::string
/// construction wrappers the AST puts between a call argument and the
/// string literal that seeds it.  Returns the literal when the whole
/// argument is one literal, nullptr when it is runtime-composed.
const clang::StringLiteral *
fullLiteral(const clang::Expr *E)
{
    while (true) {
        E = E->IgnoreParenImpCasts();
        if (const auto *MT =
                llvm::dyn_cast<clang::MaterializeTemporaryExpr>(E)) {
            E = MT->getSubExpr();
            continue;
        }
        if (const auto *BT =
                llvm::dyn_cast<clang::CXXBindTemporaryExpr>(E)) {
            E = BT->getSubExpr();
            continue;
        }
        if (const auto *CE = llvm::dyn_cast<clang::CXXConstructExpr>(E)) {
            if (CE->getNumArgs() == 0)
                return nullptr;
            E = CE->getArg(0);
            continue;
        }
        return llvm::dyn_cast<clang::StringLiteral>(E);
    }
}

} // namespace

void
StatKeyCheck::check(const MatchFinder::MatchResult &Result)
{
    const auto *Call = Result.Nodes.getNodeAs<CXXMemberCallExpr>("reg");
    if (Call == nullptr || Call->getNumArgs() == 0)
        return;
    const Expr *Arg = Call->getArg(0);

    if (const StringLiteral *Lit = fullLiteral(Arg)) {
        const StringRef Key = Lit->getString();
        if (!isValidStatKey(Key)) {
            diag(Lit->getBeginLoc(),
                 "stat key '%0' does not match the component.metric "
                 "grammar (lower-case [a-z0-9_] tokens joined by "
                 "'.', at least one dot)")
                << Key;
            return;
        }
        const SourceLocation Loc =
            Result.SourceManager->getExpansionLoc(Lit->getBeginLoc());
        std::string Site = Loc.printToString(*Result.SourceManager);
        // printToString appends a column; drop it so the same line
        // re-parsed in another TU dedups cleanly.
        const size_t LastColon = Site.rfind(':');
        if (LastColon != std::string::npos)
            Site.resize(LastColon);
        auto It = seen_.find(std::string(Key));
        if (It == seen_.end()) {
            seen_.emplace(std::string(Key), Site);
        } else if (It->second != Site) {
            diag(Lit->getBeginLoc(),
                 "stat key '%0' is also registered at %1; keys must "
                 "be tree-unique so a dump line greps to one site")
                << Key << It->second;
        }
        return;
    }

    // Runtime-composed key: charset-check every literal fragment.
    for (const auto &M :
         match(findAll(stringLiteral().bind("lit")), *Arg,
               *Result.Context)) {
        const auto *Lit = M.getNodeAs<StringLiteral>("lit");
        if (Lit == nullptr)
            continue;
        const StringRef Frag = Lit->getString();
        if (!isValidStatKeyFragment(Frag)) {
            diag(Lit->getBeginLoc(),
                 "stat key fragment '%0' contains characters outside "
                 "the component.metric grammar ([a-z0-9_.])")
                << Frag;
        }
    }
}

} // namespace clang::tidy::pktbuf
