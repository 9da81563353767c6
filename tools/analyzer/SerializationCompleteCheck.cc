//===--- SerializationCompleteCheck.cc - pktbuf-serialization-complete ---===//

#include "SerializationCompleteCheck.hh"

#include "PktbufAstHelpers.hh"
#include "clang/AST/ASTContext.h"
#include "clang/AST/DeclCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/ADT/DenseSet.h"
#include "llvm/ADT/STLExtras.h"
#include "llvm/ADT/SmallVector.h"

using namespace clang::ast_matchers;

namespace clang::tidy::pktbuf
{

namespace
{

/// A checkpoint hook taking a ser::<Param>&: fields / *Fields (Io),
/// save* (Writer) or load* (Reader).
bool
isHook(const clang::CXXMethodDecl *M, llvm::StringRef Param)
{
    const auto *II = M->getIdentifier();
    if (II == nullptr)
        return false;
    const llvm::StringRef Name = II->getName();
    if (Param == "Io" ? Name != "fields" && Name.take_back(6) != "Fields"
                      : Name.take_front(4) !=
                            (Param == "Writer" ? "save" : "load"))
        return false;
    return llvm::any_of(M->parameters(), [&](const clang::ParmVarDecl *P) {
        const auto *RD =
            P->getType().getNonReferenceType()->getAsCXXRecordDecl();
        const auto *NS = RD ? llvm::dyn_cast<clang::NamespaceDecl>(
                                  RD->getDeclContext())
                            : nullptr;
        return NS != nullptr && NS->getName() == "ser" &&
               RD->getName() == Param;
    });
}

/// Any (transitive) base declaring a fields() hook?
bool
baseDeclaresFields(const clang::CXXRecordDecl *RD)
{
    return llvm::any_of(RD->bases(), [](const clang::CXXBaseSpecifier &B) {
        const clang::CXXRecordDecl *BD = B.getType()->getAsCXXRecordDecl();
        BD = BD != nullptr ? BD->getDefinition() : nullptr;
        return BD != nullptr &&
               (llvm::any_of(BD->methods(),
                             [](const clang::CXXMethodDecl *M) {
                                 return isHook(M, "Io");
                             }) ||
                baseDeclaresFields(BD));
    });
}

/// A one-statement body handing over to the field list: a call of
/// fields() or of ser::save / ser::load.
bool
isForward(const clang::FunctionDecl *Def, clang::ASTContext &Ctx)
{
    const auto *Body =
        llvm::dyn_cast_or_null<clang::CompoundStmt>(Def->getBody());
    return Body != nullptr && Body->size() <= 1 &&
           !match(findAll(callExpr(callee(functionDecl(
                      hasAnyName("fields", "::pktbuf::ser::save",
                                 "::pktbuf::ser::load"))))),
                  *Body, Ctx)
                .empty();
}

/// Every FieldDecl the field list names in Body.  A member named
/// only by a load-side check or rebuild is not listed: one inside an
/// `if (io.reading())`, or inside an if that fails the run (fatal_if
/// and panic_if expand to one).
void
collectListedFields(const clang::Stmt *Body, clang::ASTContext &Ctx,
                    llvm::DenseSet<const clang::FieldDecl *> &Out)
{
    const auto FailsRun =
        callExpr(callee(functionDecl(hasAnyName("fatal", "panic"))));
    const auto RestoreSide = ifStmt(anyOf(
        hasCondition(ignoringImplicit(cxxMemberCallExpr(
            callee(cxxMethodDecl(hasName("reading")))))),
        hasThen(anyOf(FailsRun, hasDescendant(FailsRun)))));
    for (const auto &M :
         match(findAll(memberExpr(unless(hasAncestor(RestoreSide)))
                           .bind("m")),
               *Body, Ctx)) {
        const auto *ME = M.getNodeAs<clang::MemberExpr>("m");
        if (const auto *FD = llvm::dyn_cast_or_null<clang::FieldDecl>(
                ME ? ME->getMemberDecl() : nullptr))
            Out.insert(FD->getCanonicalDecl());
    }
}

/// "// ser: config|derived" on the declaration's line or on the
/// comment lines just above it (a comment trailing the previous
/// declaration belongs to that one).
bool
annotated(const clang::SourceManager &SM, const clang::FieldDecl *FD)
{
    llvm::SmallVector<llvm::StringRef, 4> Lines;
    lineAndAbove(SM, FD->getLocation(), 2).split(Lines, '\n');
    for (auto It = Lines.rbegin(); It != Lines.rend(); ++It) {
        const llvm::StringRef L = It->trim();
        if (It != Lines.rbegin() && !L.empty() && L.front() != '/' &&
            L.front() != '*')
            return false;  // a line of code above the declaration
        if (hasAnnotation(L, "ser", {"config", "derived"}))
            return true;
    }
    return false;
}

} // namespace

void
SerializationCompleteCheck::registerMatchers(MatchFinder *Finder)
{
    Finder->addMatcher(cxxRecordDecl(isDefinition(), unless(isImplicit()),
                                     unless(isExpansionInSystemHeader()))
                           .bind("record"),
                       this);
}

void
SerializationCompleteCheck::check(const MatchFinder::MatchResult &Result)
{
    const auto *Record = Result.Nodes.getNodeAs<CXXRecordDecl>("record");
    if (Record == nullptr || Record->isDependentType() ||
        Record->isUnion() || Record->getIdentifier() == nullptr)
        return;

    llvm::SmallVector<const CXXMethodDecl *, 4> Fields;
    bool Saves = false;
    bool Loads = false;
    bool HandWritten = false;
    for (const CXXMethodDecl *M : Record->methods()) {
        if (isHook(M, "Io"))
            Fields.push_back(M);
        const bool Save = isHook(M, "Writer");
        const bool Load = isHook(M, "Reader");
        Saves |= Save;
        Loads |= Load;
        const FunctionDecl *Def = nullptr;
        if ((Save || Load) && M->hasBody(Def) &&
            !isForward(Def, *Result.Context))
            HandWritten = true;
    }

    // Two hand-kept lists are what drifts apart.
    if (Saves && Loads && HandWritten)
        diag(Record->getLocation(),
             "%0 hand-writes a save()/load() pair; list the members "
             "once in fields(ser::Io &) and keep save()/load() as "
             "one-line forwards (ser::save / ser::load)")
            << Record;

    // Abstract bases are interfaces: concrete classes are checked.
    if (Record->isAbstract() ||
        (Fields.empty() && !baseDeclaresFields(Record)))
        return;

    // Only judge completeness in a TU that can see every hook body.
    // A subclass without hooks of its own lists nothing: the base's
    // fields() cannot name the members added here.
    llvm::DenseSet<const FieldDecl *> Listed;
    for (const CXXMethodDecl *M : Fields) {
        const FunctionDecl *Def = nullptr;
        if (!M->hasBody(Def))
            return;
        collectListedFields(Def->getBody(), *Result.Context, Listed);
    }

    for (const FieldDecl *FD : Record->fields()) {
        if (FD->getIdentifier() == nullptr ||
            Listed.contains(FD->getCanonicalDecl()) ||
            annotated(*Result.SourceManager, FD))
            continue;
        diag(FD->getLocation(),
             "member %0 of %1 is not listed in %select{its fields()|an "
             "inherited fields(); add an extraFields(ser::Io &) "
             "override}2; serialize it or annotate the declaration "
             "with '// ser: config' or '// ser: derived' (checkpoint "
             "restore drifts silently otherwise)")
            << FD << Record << (Fields.empty() ? 1 : 0);
    }
}

} // namespace clang::tidy::pktbuf
