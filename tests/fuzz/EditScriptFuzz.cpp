//===- EditScriptFuzz.cpp - Transaction fuzzing ------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "fuzz/EditScriptFuzz.h"

#include "memlook/core/DifferentialCheck.h"
#include "memlook/service/LookupService.h"
#include "memlook/service/WriteAheadLog.h"
#include "memlook/support/Crc32.h"
#include "memlook/support/Rng.h"
#include "memlook/workload/Generators.h"

#include "TestUtil.h"

#include <algorithm>
#include <map>

using namespace memlook;
using namespace memlook::service;

namespace {

/// Member-name pool shared with the random-hierarchy generator's
/// defaults ("m0".."m5") plus a few never-declared names so removals and
/// queries also exercise the not-found paths.
std::string poolMember(Rng &R) { return "m" + std::to_string(R.nextBelow(8)); }

/// A random class name: usually one that exists, sometimes garbage.
std::string pickClassName(Rng &R, const Hierarchy &H) {
  if (H.numClasses() != 0 && R.nextChance(7, 8)) {
    ClassId Id(static_cast<uint32_t>(R.nextBelow(H.numClasses())));
    return std::string(H.className(Id));
  }
  return "Ghost" + std::to_string(R.nextBelow(4));
}

/// Records 1-3 ops that are valid by construction: fresh class names,
/// fresh member names on existing classes, and forward edges from an
/// existing class to the new one. Keeps the committed half of the
/// campaign growing instead of stalling on rejections.
void recordValidOps(Rng &R, const Hierarchy &H, uint64_t CaseTag,
                    uint64_t TxnIdx, Transaction &Txn) {
  std::string Fresh = "Fuzz" + std::to_string(CaseTag) + "_" +
                      std::to_string(TxnIdx);
  Txn.addClass(Fresh);
  if (H.numClasses() != 0) {
    ClassId BaseId(static_cast<uint32_t>(R.nextBelow(H.numClasses())));
    Txn.addBase(Fresh, std::string(H.className(BaseId)),
                R.nextChance(1, 3) ? InheritanceKind::Virtual
                                   : InheritanceKind::NonVirtual);
  }
  Txn.addMember(Fresh, poolMember(R), /*IsStatic=*/R.nextChance(1, 6),
                /*IsVirtual=*/R.nextChance(1, 4));
}

/// Records 1-6 random ops - valid and invalid alike - into \p Txn.
void recordRandomOps(Rng &R, const Hierarchy &H, uint64_t CaseTag,
                     Transaction &Txn) {
  uint64_t NumOps = R.nextInRange(1, 6);
  for (uint64_t Idx = 0; Idx != NumOps; ++Idx) {
    switch (R.nextBelow(8)) {
    case 0:
      // Fresh name most of the time; occasionally a duplicate.
      Txn.addClass(R.nextChance(1, 6)
                       ? pickClassName(R, H)
                       : "Fuzz" + std::to_string(CaseTag) + "_" +
                             std::to_string(R.nextBelow(64)));
      break;
    case 1:
      Txn.removeClass(pickClassName(R, H));
      break;
    case 2: {
      // Random direction, so some of these propose back-edges that can
      // only be caught by the cycle validation at commit.
      InheritanceKind Kind = R.nextChance(1, 3) ? InheritanceKind::Virtual
                                                : InheritanceKind::NonVirtual;
      Txn.addBase(pickClassName(R, H), pickClassName(R, H), Kind);
      break;
    }
    case 3:
      Txn.removeBase(pickClassName(R, H), pickClassName(R, H));
      break;
    case 4:
      Txn.addMember(pickClassName(R, H), poolMember(R),
                    /*IsStatic=*/R.nextChance(1, 6),
                    /*IsVirtual=*/R.nextChance(1, 4));
      break;
    case 5:
      Txn.removeMember(pickClassName(R, H), poolMember(R));
      break;
    case 6:
      Txn.addUsing(pickClassName(R, H), pickClassName(R, H), poolMember(R));
      break;
    default:
      // A second member edit, biased valid: grows hierarchies over the
      // case instead of stalling on rejections.
      Txn.addMember(pickClassName(R, H),
                    "f" + std::to_string(R.nextBelow(16)));
      break;
    }
  }
}

/// Every (class, member-pool) answer of \p Snap, rendered with the
/// differential comparison key - the "bit-identical answers" the
/// rollback oracle compares.
std::map<std::string, std::string> renderAllAnswers(const LookupService &Svc,
                                                    const Snapshot &Snap) {
  std::map<std::string, std::string> Out;
  const Hierarchy &H = *Snap.H;
  for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx) {
    ClassId C(Idx);
    for (Symbol Member : H.allMemberNames()) {
      QueryAnswer A = Svc.queryOn(Snap, H.className(C), H.spelling(Member));
      Out[std::string(H.className(C)) + "::" +
          std::string(H.spelling(Member))] =
          renderLookupForComparison(H, A.Result);
    }
  }
  return Out;
}

/// Compares every (class, member) entry of \p Snap's table with a
/// serial from-scratch LookupTable::build over its hierarchy, appending
/// a line tagged \p Tag per disagreement (up to 16 in all). Returns the
/// pairs compared; a cold snapshot has no table and compares none.
uint64_t compareTableWithScratch(const Snapshot &Snap, const std::string &Tag,
                                 std::vector<std::string> &Mismatches) {
  if (!Snap.Table)
    return 0;
  const Hierarchy &H = *Snap.H;
  auto Scratch = LookupTable::build(H, Deadline::never(), /*Threads=*/1);
  uint64_t Pairs = 0;
  for (uint32_t Idx = 0; Idx != H.numClasses() && Mismatches.size() < 16;
       ++Idx) {
    for (Symbol M : H.allMemberNames()) {
      std::string Rewarmed =
          renderLookupForComparison(H, Snap.Table->find(H, ClassId(Idx), M));
      std::string FromScratch =
          renderLookupForComparison(H, Scratch->find(H, ClassId(Idx), M));
      ++Pairs;
      if (Rewarmed != FromScratch)
        Mismatches.push_back(Tag + " rewarm: " +
                             std::string(H.className(ClassId(Idx))) + "::" +
                             std::string(H.spelling(M)) +
                             ": rewarmed table says '" + Rewarmed +
                             "' but a from-scratch build says '" +
                             FromScratch + "'");
    }
  }
  return Pairs;
}

} // namespace

EditScriptCaseResult
memlook::service::runEditScriptCase(uint64_t Seed,
                                    const ResourceBudget &Budget) {
  EditScriptCaseResult Result;
  Result.Seed = Seed;

  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0xed17);

  RandomHierarchyParams Params;
  Params.NumClasses = static_cast<uint32_t>(R.nextInRange(4, 20));
  Params.MemberPool = 6;
  Params.UsingChance = 0.1;
  Workload W = makeRandomHierarchy(Params, R.next());

  ServiceOptions Opts;
  Opts.Budget = Budget;
  Opts.AuditSampleLimit = 64;
  // Commits go down the incremental-rewarm path (the default), and the
  // pool size rotates with the seed so the campaign covers serial,
  // small-parallel, and auto-sized builds alike.
  Opts.WarmThreads = static_cast<uint32_t>(Seed % 5); // 0 = auto
  LookupService Svc(std::move(W.H), Opts);

  auto NoteOutcome = [&](const Status &S) {
    const uint32_t Word[2] = {
        S.isOk() ? 0u : 1u,
        S.isOk() ? hierarchyFingerprint(*Svc.snapshot()->H)
                 : static_cast<uint32_t>(S.code())};
    Result.OutcomeDigest = crc32c(Word, sizeof(Word), Result.OutcomeDigest);
  };

  uint64_t NumTxns = R.nextInRange(3, 8);
  for (uint64_t TxnIdx = 0; TxnIdx != NumTxns; ++TxnIdx) {
    ++Result.TxnsAttempted;

    std::shared_ptr<const Snapshot> Before = Svc.snapshot();
    std::map<std::string, std::string> AnswersBefore =
        renderAllAnswers(Svc, *Before);

    Transaction Txn = Svc.beginTxn();
    if (TxnIdx % 2 == 0)
      recordValidOps(R, *Before->H, Seed & 0xffff, TxnIdx, Txn);
    else
      recordRandomOps(R, *Before->H, Seed & 0xffff, Txn);

    Status S = Svc.commit(Txn);
    NoteOutcome(S);
    if (S.isOk()) {
      ++Result.TxnsCommitted;
      // Oracle 1: the new epoch must pass the full self-audit (engines
      // against each other, cached table against a fresh engine).
      AuditReport Audit = Svc.auditNow();
      Result.PairsChecked += Audit.PairsSampled + Audit.EnginePairsChecked;
      Result.PairsSkipped += Audit.PairsSkipped;
      for (const std::string &M : Audit.Mismatches)
        Result.Mismatches.push_back("txn " + std::to_string(TxnIdx) +
                                    " post-commit " + M);
      // A committed transaction must move the epoch by exactly one.
      if (Svc.snapshot()->Epoch != Before->Epoch + 1)
        Result.Mismatches.push_back(
            "txn " + std::to_string(TxnIdx) +
            ": commit succeeded but epoch did not advance by one");
      // Oracle 3: the published table - usually an incremental rewarm
      // sharing columns with the predecessor epoch, built in parallel -
      // must be entry-for-entry identical to a serial from-scratch
      // build over the same hierarchy.
      Result.PairsChecked += compareTableWithScratch(
          *Svc.snapshot(), "txn " + std::to_string(TxnIdx), Result.Mismatches);
    } else {
      ++Result.TxnsRejected;
      // Oracle 2: rollback restores answers. The snapshot pointer must
      // be untouched (nothing was published) and every answer
      // bit-identical.
      std::shared_ptr<const Snapshot> After = Svc.snapshot();
      if (After.get() != Before.get())
        Result.Mismatches.push_back(
            "txn " + std::to_string(TxnIdx) + " (" + S.toString() +
            "): rejected commit published a new snapshot");
      std::map<std::string, std::string> AnswersAfter =
          renderAllAnswers(Svc, *After);
      if (AnswersAfter != AnswersBefore)
        Result.Mismatches.push_back(
            "txn " + std::to_string(TxnIdx) + " (" + S.toString() +
            "): rejected commit changed lookup answers");
      Result.PairsChecked += AnswersBefore.size();
    }
  }

  // Epoch-conflict path: a transaction begun one commit ago must be
  // refused with TransactionConflict and change nothing - unless no
  // transaction ever committed, in which case it commits fine.
  Transaction Stale = Svc.beginTxn();
  Transaction Winner = Svc.beginTxn();
  Winner.addMember(pickClassName(R, *Svc.snapshot()->H), poolMember(R));
  Status WinnerS = Svc.commit(Winner);
  NoteOutcome(WinnerS);
  bool WinnerCommitted = WinnerS.isOk();
  std::shared_ptr<const Snapshot> BeforeStale = Svc.snapshot();
  Stale.addClass("StaleClass");
  Status StaleS = Svc.commit(Stale);
  NoteOutcome(StaleS);
  ++Result.TxnsAttempted;
  if (WinnerCommitted) {
    if (StaleS.code() != ErrorCode::TransactionConflict)
      Result.Mismatches.push_back(
          "stale transaction was not refused with transaction-conflict "
          "(got " +
          StaleS.toString() + ")");
    if (Svc.snapshot().get() != BeforeStale.get())
      Result.Mismatches.push_back(
          "conflicted commit published a new snapshot");
    ++Result.TxnsRejected;
  } else if (StaleS.isOk()) {
    ++Result.TxnsCommitted;
  } else {
    ++Result.TxnsRejected;
  }

  return Result;
}

EditScriptCampaignReport
memlook::service::runEditScriptCampaign(uint64_t FirstSeed, uint64_t NumCases,
                                        const ResourceBudget &Budget) {
  EditScriptCampaignReport Report;
  for (uint64_t Idx = 0; Idx != NumCases; ++Idx) {
    EditScriptCaseResult Case = runEditScriptCase(FirstSeed + Idx, Budget);
    ++Report.CasesRun;
    Report.TxnsCommitted += Case.TxnsCommitted;
    Report.TxnsRejected += Case.TxnsRejected;
    Report.PairsChecked += Case.PairsChecked;
    Report.PairsSkipped += Case.PairsSkipped;
    if (!Case.passed())
      Report.Failures.push_back(std::move(Case));
  }
  return Report;
}

namespace {

/// The removal campaign's model of a hierarchy: its description by name,
/// which is all a from-scratch HierarchyBuilder build is given.
struct ModelBase {
  std::string Name;
  InheritanceKind Kind;
  AccessSpec Access;
};

struct ModelMember {
  std::string Name;
  bool IsStatic;
  bool IsVirtual;
  AccessSpec Access;
  std::string UsingFrom; ///< empty unless a using-declaration
};

struct ModelClass {
  std::string Name;
  std::vector<ModelBase> Bases;
  std::vector<ModelMember> Members;
};

using Model = std::vector<ModelClass>;

Model modelOf(const Hierarchy &H) {
  Model M;
  for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx) {
    const Hierarchy::ClassInfo &Info = H.info(ClassId(Idx));
    ModelClass &C = M.emplace_back();
    C.Name = std::string(H.className(ClassId(Idx)));
    for (const BaseSpecifier &Spec : Info.DirectBases)
      C.Bases.push_back(
          {std::string(H.className(Spec.Base)), Spec.Kind, Spec.Access});
    for (const MemberDecl &Decl : Info.Members)
      C.Members.push_back(
          {std::string(H.spelling(Decl.Name)), Decl.IsStatic, Decl.IsVirtual,
           Decl.Access,
           Decl.isUsingDeclaration() ? std::string(H.className(Decl.UsingFrom))
                                     : std::string()});
  }
  return M;
}

Expected<Hierarchy> buildModel(const Model &M) {
  HierarchyBuilder B;
  for (const ModelClass &C : M)
    B.addClass(C.Name);
  for (const ModelClass &C : M) {
    HierarchyBuilder::ClassHandle Handle = B.getClass(C.Name);
    for (const ModelBase &Base : C.Bases) {
      if (Base.Kind == InheritanceKind::Virtual)
        Handle.withVirtualBase(Base.Name, Base.Access);
      else
        Handle.withBase(Base.Name, Base.Access);
    }
    for (const ModelMember &Member : C.Members) {
      if (!Member.UsingFrom.empty())
        Handle.withUsing(Member.UsingFrom, Member.Name, Member.Access);
      else
        B.hierarchy().addMember(Handle.id(), Member.Name, Member.IsStatic,
                                Member.IsVirtual, Member.Access);
    }
  }
  return std::move(B).tryBuild();
}

size_t modelIndex(const Model &M, const std::string &Name) {
  for (size_t Idx = 0; Idx != M.size(); ++Idx)
    if (M[Idx].Name == Name)
      return Idx;
  return M.size();
}

const ModelMember *findModelMember(const ModelClass &C,
                                   const std::string &Name) {
  for (const ModelMember &Member : C.Members)
    if (Member.Name == Name)
      return &Member;
  return nullptr;
}

/// The model indices of \p C's transitive bases.
std::vector<size_t> transitiveBases(const Model &M, size_t C) {
  std::vector<bool> Seen(M.size(), false);
  std::vector<size_t> Out, Stack{C};
  while (!Stack.empty()) {
    size_t Cur = Stack.back();
    Stack.pop_back();
    for (const ModelBase &Base : M[Cur].Bases) {
      size_t B = modelIndex(M, Base.Name);
      if (!Seen[B]) {
        Seen[B] = true;
        Out.push_back(B);
        Stack.push_back(B);
      }
    }
  }
  return Out;
}

AccessSpec randomAccess(Rng &R) {
  return static_cast<AccessSpec>(R.nextBelow(3));
}

/// Records one op whose operands exist in \p M, and applies it to \p M.
/// Removals and using-sources are drawn from what is there; a kind with
/// nothing to draw from falls through to a member edit.
void recordExistingOperandOp(Rng &R, Model &M, Transaction &Txn) {
  switch (R.nextBelow(8)) {
  case 0:
  case 1: { // RemoveBase: an existing edge.
    std::vector<std::pair<size_t, size_t>> Edges;
    for (size_t D = 0; D != M.size(); ++D)
      for (size_t I = 0; I != M[D].Bases.size(); ++I)
        Edges.emplace_back(D, I);
    if (Edges.empty())
      break;
    auto [D, I] = Edges[R.nextBelow(Edges.size())];
    Txn.removeBase(M[D].Name, M[D].Bases[I].Name);
    M[D].Bases.erase(M[D].Bases.begin() + I);
    return;
  }
  case 2:
  case 3: { // RemoveMember: an existing declaration.
    std::vector<std::pair<size_t, size_t>> Decls;
    for (size_t C = 0; C != M.size(); ++C)
      for (size_t I = 0; I != M[C].Members.size(); ++I)
        Decls.emplace_back(C, I);
    if (Decls.empty())
      break;
    auto [C, I] = Decls[R.nextBelow(Decls.size())];
    Txn.removeMember(M[C].Name, M[C].Members[I].Name);
    M[C].Members.erase(M[C].Members.begin() + I);
    return;
  }
  case 4:
  case 5: { // AddUsing: a transitive base, preferably one of its names.
    std::vector<size_t> Derived;
    for (size_t C = 0; C != M.size(); ++C)
      if (!M[C].Bases.empty())
        Derived.push_back(C);
    if (Derived.empty())
      break;
    size_t C = Derived[R.nextBelow(Derived.size())];
    std::vector<size_t> Bases = transitiveBases(M, C);
    size_t From = Bases[R.nextBelow(Bases.size())];
    std::vector<std::string> Names;
    for (const ModelMember &Member : M[From].Members)
      if (!findModelMember(M[C], Member.Name))
        Names.push_back(Member.Name);
    std::string Name =
        Names.empty() ? poolMember(R) : Names[R.nextBelow(Names.size())];
    if (findModelMember(M[C], Name))
      break;
    AccessSpec Access = randomAccess(R);
    Txn.addUsing(M[C].Name, M[From].Name, Name, Access);
    M[C].Members.push_back({Name, false, false, Access, M[From].Name});
    return;
  }
  case 6: { // AddBase: a forward edge, so the graph stays acyclic.
    if (M.size() < 2)
      break;
    size_t D = 1 + R.nextBelow(M.size() - 1);
    size_t B = R.nextBelow(D);
    if (std::any_of(M[D].Bases.begin(), M[D].Bases.end(),
                    [&](const ModelBase &E) { return E.Name == M[B].Name; }))
      break;
    InheritanceKind Kind = R.nextChance(1, 3) ? InheritanceKind::Virtual
                                              : InheritanceKind::NonVirtual;
    AccessSpec Access = randomAccess(R);
    Txn.addBase(M[D].Name, M[B].Name, Kind, Access);
    M[D].Bases.push_back({M[B].Name, Kind, Access});
    return;
  }
  default:
    break;
  }
  // AddMember of a pool name - or, if the class already declares it,
  // its removal.
  size_t C = R.nextBelow(M.size());
  std::string Name = poolMember(R);
  auto Existing = std::find_if(
      M[C].Members.begin(), M[C].Members.end(),
      [&](const ModelMember &Member) { return Member.Name == Name; });
  if (Existing != M[C].Members.end()) {
    Txn.removeMember(M[C].Name, Name);
    M[C].Members.erase(Existing);
    return;
  }
  bool IsStatic = R.nextChance(1, 6), IsVirtual = R.nextChance(1, 4);
  AccessSpec Access = randomAccess(R);
  Txn.addMember(M[C].Name, Name, IsStatic, IsVirtual, Access);
  M[C].Members.push_back({Name, IsStatic, IsVirtual, Access, std::string()});
}

} // namespace

RemovalCaseResult memlook::service::runRemovalCase(uint64_t Seed) {
  RemovalCaseResult Result;
  Result.Seed = Seed;
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0x7e30);

  RandomHierarchyParams Params;
  Params.NumClasses = static_cast<uint32_t>(R.nextInRange(4, 16));
  Params.MemberPool = 6;
  Params.UsingChance = 0.15;
  Workload W = makeRandomHierarchy(Params, R.next());
  Model Committed = modelOf(W.H);

  ServiceOptions Opts;
  Opts.WarmThreads = static_cast<uint32_t>(Seed % 5); // 0 = auto
  LookupService Svc(std::move(W.H), Opts);

  uint64_t NumTxns = R.nextInRange(6, 10);
  for (uint64_t TxnIdx = 0; TxnIdx != NumTxns; ++TxnIdx) {
    const std::string Tag = "txn " + std::to_string(TxnIdx);
    Model Work = Committed;
    Transaction Txn = Svc.beginTxn();
    for (uint64_t Ops = R.nextInRange(1, 3); Ops != 0; --Ops)
      recordExistingOperandOp(R, Work, Txn);

    Status S = Svc.commit(Txn);
    Expected<Hierarchy> Fresh = buildModel(Work);
    if (!S.isOk()) {
      ++Result.TxnsRejected;
      if (Fresh.hasValue())
        Result.Mismatches.push_back(Tag + ": service refused (" +
                                    S.toString() +
                                    ") what a fresh build accepts");
      else if (Fresh.status().code() != S.code())
        Result.Mismatches.push_back(Tag + ": service refused with " +
                                    S.toString() + ", a fresh build with " +
                                    Fresh.status().toString());
      continue;
    }
    ++Result.TxnsCommitted;
    for (const Transaction::Op &Op : Txn.ops())
      ++Result.CommittedOps[static_cast<size_t>(Op.Kind)];
    if (!Fresh.hasValue()) {
      Result.Mismatches.push_back(Tag + ": service committed what a fresh "
                                        "build refuses (" +
                                  Fresh.status().toString() + ")");
      continue;
    }

    std::shared_ptr<const Snapshot> Now = Svc.snapshot();
    std::vector<std::string> Published = testutil::describeHierarchy(*Now->H);
    std::vector<std::string> Built = testutil::describeHierarchy(*Fresh);
    if (Published != Built) {
      auto Diff = std::mismatch(Published.begin(), Published.end(),
                                Built.begin(), Built.end());
      Result.Mismatches.push_back(
          Tag + ": published '" +
          (Diff.first != Published.end() ? *Diff.first : "<end>") +
          "' but a fresh build has '" +
          (Diff.second != Built.end() ? *Diff.second : "<end>") + "'");
    }
    compareTableWithScratch(*Now, Tag, Result.Mismatches);
    Committed = std::move(Work);
  }
  return Result;
}
