//===--- EnumSwitchCheck.cc - pktbuf-enum-switch -------------------------===//

#include "EnumSwitchCheck.hh"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/ADT/DenseSet.h"
#include "llvm/ADT/SmallString.h"
#include "llvm/ADT/SmallVector.h"
#include "llvm/ADT/StringRef.h"

using namespace clang::ast_matchers;

namespace clang::tidy::pktbuf
{

namespace
{

/// The project's determinism-critical mode enums.  Adding an
/// enumerator to any of these must fail loudly at every switch.
const char kDefaultEnumNames[] =
    "pktbuf::dram::StallCause;pktbuf::dram::AccessKind;"
    "pktbuf::sim::BufferVariant;pktbuf::sim::WorkloadKind;"
    "pktbuf::fabric::TrafficPattern;pktbuf::xbar::SchedulerKind;"
    "pktbuf::buffer::MmaKind;pktbuf::core::BufferKind;"
    "pktbuf::model::SramDesign;pktbuf::model::SchedFeasibility;"
    "pktbuf::LineRate";

std::vector<std::string>
splitNames(llvm::StringRef Raw)
{
    std::vector<std::string> Out;
    llvm::SmallVector<llvm::StringRef, 16> Parts;
    Raw.split(Parts, ';', /*MaxSplit=*/-1, /*KeepEmpty=*/false);
    for (llvm::StringRef P : Parts) {
        P = P.trim();
        // Normalize away a leading "::" so both spellings configure
        // the same enum.
        if (P.size() >= 2 && P.take_front(2) == "::")
            P = P.drop_front(2);
        if (!P.empty())
            Out.push_back(P.str());
    }
    return Out;
}

} // namespace

EnumSwitchCheck::EnumSwitchCheck(StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      rawEnumNames_(Options.get("EnumNames", kDefaultEnumNames)),
      enumNames_(splitNames(rawEnumNames_))
{}

void
EnumSwitchCheck::storeOptions(ClangTidyOptions::OptionMap &Opts)
{
    Options.store(Opts, "EnumNames", rawEnumNames_);
}

void
EnumSwitchCheck::registerMatchers(MatchFinder *Finder)
{
    Finder->addMatcher(
        switchStmt(unless(isExpansionInSystemHeader())).bind("switch"),
        this);
}

void
EnumSwitchCheck::check(const MatchFinder::MatchResult &Result)
{
    const auto *Switch = Result.Nodes.getNodeAs<SwitchStmt>("switch");
    if (Switch == nullptr || Switch->getCond() == nullptr)
        return;

    const QualType CondType =
        Switch->getCond()->IgnoreImpCasts()->getType();
    const auto *ET = CondType->getAs<EnumType>();
    if (ET == nullptr)
        return;
    const EnumDecl *ED = ET->getDecl();
    if (ED == nullptr)
        return;
    ED = ED->getDefinition() ? ED->getDefinition() : ED;

    const std::string Qual = ED->getQualifiedNameAsString();
    bool Tracked = false;
    for (const std::string &Name : enumNames_) {
        if (Qual == Name) {
            Tracked = true;
            break;
        }
    }
    if (!Tracked)
        return;

    // Collect covered enumerators and spot default labels.
    llvm::DenseSet<const EnumConstantDecl *> Covered;
    for (const SwitchCase *SC = Switch->getSwitchCaseList(); SC != nullptr;
         SC = SC->getNextSwitchCase()) {
        if (llvm::isa<DefaultStmt>(SC)) {
            diag(SC->getKeywordLoc(),
                 "default label in a switch over %0 swallows future "
                 "enumerators; enumerate every case so new modes "
                 "break this switch at compile time")
                << Qual;
            continue;
        }
        const auto *CS = llvm::dyn_cast<CaseStmt>(SC);
        if (CS == nullptr || CS->getLHS() == nullptr)
            continue;
        const Expr *LHS = CS->getLHS()->IgnoreParenImpCasts();
        if (const auto *CE = llvm::dyn_cast<ConstantExpr>(LHS))
            LHS = CE->getSubExpr()->IgnoreParenImpCasts();
        if (const auto *DRE = llvm::dyn_cast<DeclRefExpr>(LHS)) {
            if (const auto *ECD =
                    llvm::dyn_cast<EnumConstantDecl>(DRE->getDecl()))
                Covered.insert(ECD);
        }
    }

    llvm::SmallString<128> Missing;
    for (const EnumConstantDecl *ECD : ED->enumerators()) {
        if (Covered.contains(ECD))
            continue;
        if (!Missing.empty())
            Missing += ", ";
        Missing += ECD->getName();
    }
    if (!Missing.empty()) {
        diag(Switch->getSwitchLoc(),
             "switch over %0 is not exhaustive; missing enumerator(s) "
             "%1")
            << Qual << Missing.str();
    }
}

} // namespace clang::tidy::pktbuf
