//===- Transaction.cpp - Batch edits -----------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/service/Transaction.h"

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/support/BitVector.h"
#include "memlook/support/Diagnostics.h"

#include <algorithm>
#include <unordered_set>

using namespace memlook;
using namespace memlook::service;

namespace {

Status opError(ErrorCode Code, const std::string &What,
               const Transaction::Op &Op) {
  std::string Msg = What;
  Msg += " (class '" + Op.Class + "'";
  if (!Op.Target.empty())
    Msg += ", target '" + Op.Target + "'";
  if (!Op.Member.empty())
    Msg += ", member '" + Op.Member + "'";
  Msg += ")";
  return Status::error(Code, std::move(Msg));
}

/// Applies one op to the draft \p H, or explains why it cannot apply.
///
/// Hierarchy::addBase refuses a self-edge outright, but a script may add
/// one and remove it again (or remove its class) before it ends, and the
/// script is only ill-formed if the edge survives to the end. So a
/// self-edge is kept aside in \p SelfEdges, by class name, and counted
/// against the edge budget until it goes.
Status applyOp(Hierarchy &H, std::vector<std::string> &SelfEdges,
               const Transaction::Op &Op) {
  using OpKind = Transaction::OpKind;
  auto SelfEdge = std::find(SelfEdges.begin(), SelfEdges.end(), Op.Class);
  switch (Op.Kind) {
  case OpKind::AddClass:
    if (Op.Class.empty())
      return opError(ErrorCode::InvalidArgument, "empty class name", Op);
    if (H.findClass(Op.Class).isValid())
      return opError(ErrorCode::DuplicateClass, "class already exists", Op);
    H.createClass(Op.Class);
    return Status::ok();

  case OpKind::RemoveClass: {
    ClassId C = H.findClass(Op.Class);
    if (!C.isValid())
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    if (!H.removeClass(C))
      return opError(ErrorCode::InvalidArgument,
                     "class is still a base or a using-source of another "
                     "class",
                     Op);
    if (SelfEdge != SelfEdges.end())
      SelfEdges.erase(SelfEdge);
    return Status::ok();
  }

  case OpKind::AddBase: {
    ClassId Derived = H.findClass(Op.Class);
    if (!Derived.isValid())
      return opError(ErrorCode::UnknownClass, "no such derived class", Op);
    ClassId Base = H.findClass(Op.Target);
    if (!Base.isValid())
      return opError(ErrorCode::UnknownClass, "no such base class", Op);
    if (H.edgeKind(Base, Derived) ||
        (Base == Derived && SelfEdge != SelfEdges.end()))
      return opError(ErrorCode::DuplicateBase, "base already listed", Op);
    if (Base == Derived)
      SelfEdges.push_back(Op.Class);
    else
      H.addBase(Derived, Base, Op.EdgeKind, Op.Access);
    return Status::ok();
  }

  case OpKind::RemoveBase: {
    ClassId Derived = H.findClass(Op.Class);
    if (!Derived.isValid())
      return opError(ErrorCode::UnknownClass, "no such derived class", Op);
    ClassId Base = H.findClass(Op.Target);
    if (Base == Derived && SelfEdge != SelfEdges.end()) {
      SelfEdges.erase(SelfEdge);
      return Status::ok();
    }
    if (!Base.isValid() || !H.removeBase(Derived, Base))
      return opError(ErrorCode::InvalidArgument, "no such base edge", Op);
    return Status::ok();
  }

  case OpKind::AddMember:
  case OpKind::AddUsing: {
    ClassId C = H.findClass(Op.Class);
    if (!C.isValid())
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    if (Op.Member.empty())
      return opError(ErrorCode::InvalidArgument, "empty member name", Op);
    if (H.declaresMember(C, H.findName(Op.Member)))
      return opError(ErrorCode::InvalidArgument,
                     "member name already declared in class", Op);
    if (Op.Kind == OpKind::AddMember) {
      H.addMember(C, Op.Member, Op.IsStatic, Op.IsVirtual, Op.Access);
      return Status::ok();
    }
    ClassId From = H.findClass(Op.Target);
    if (!From.isValid())
      return opError(ErrorCode::UnknownClass, "no such using-source class",
                     Op);
    H.addUsingDeclaration(C, From, Op.Member, Op.Access);
    return Status::ok();
  }

  case OpKind::RemoveMember: {
    ClassId C = H.findClass(Op.Class);
    if (!C.isValid())
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    if (!H.removeMember(C, Op.Member))
      return opError(ErrorCode::InvalidArgument,
                     "member not declared in class", Op);
    return Status::ok();
  }
  }
  return Status::error(ErrorCode::InvalidArgument, "unknown op kind");
}

} // namespace

Expected<Hierarchy>
memlook::service::applyEditScript(const Hierarchy &Base,
                                  const std::vector<Transaction::Op> &Ops,
                                  const ResourceBudget &Budget) {
  assert(Base.isFinalized() && "edit scripts replay against an epoch");

  Hierarchy H = Base.draft();
  std::vector<std::string> SelfEdges;
  for (const Transaction::Op &Op : Ops) {
    Status S = applyOp(H, SelfEdges, Op);
    if (!S.isOk())
      return S;
    if (H.numClasses() > Budget.MaxClasses)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the class budget");
    if (H.numEdges() + SelfEdges.size() > Budget.MaxEdges)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the edge budget");
    if (H.numMemberDecls() > Budget.MaxMemberDecls)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the member budget");
  }
  if (!SelfEdges.empty())
    return Status::error(ErrorCode::InheritanceCycle,
                         "class '" + SelfEdges.front() +
                             "' cannot inherit from itself");

  DiagnosticEngine Diags;
  if (!H.finalize(Diags))
    return statusFromDiagnostics(Diags);
  return H;
}

ImpactSet
memlook::service::computeImpactSet(const Hierarchy &Old, const Hierarchy &New,
                                   const std::vector<Transaction::Op> &Ops) {
  assert(Old.isFinalized() && New.isFinalized() &&
         "impact sets relate two epochs");

  ImpactSet Impact;
  std::unordered_set<std::string> Names;
  std::unordered_set<std::string> EditedClasses;

  for (const Transaction::Op &Op : Ops) {
    // RemoveClass erases a slot out of the dense id space: every later
    // class shifts down one index, so a shared column (indexed by class
    // id) would answer for the wrong classes. Sharing is off the table.
    if (Op.Kind == Transaction::OpKind::RemoveClass)
      Impact.FullRebuild = true;
    // Op.Class is the class whose declaration changes in every op kind
    // (the base of an AddBase edge gains a *derived* class, which does
    // not change any lookup at or above the base).
    EditedClasses.insert(Op.Class);
    if (!Op.Member.empty())
      Names.insert(Op.Member);
  }
  if (Impact.FullRebuild)
    return Impact;

  // Down-closure of the edited classes, per epoch. Class ids are stable
  // across the two epochs here (no RemoveClass), but closures differ -
  // an AddBase edge extends the new epoch's closure only, a RemoveBase
  // edge only the old one's - so both sides are collected.
  auto MarkImpacted = [&EditedClasses](const Hierarchy &H, BitVector &Bits) {
    for (const std::string &Name : EditedClasses) {
      ClassId A = H.findClass(Name);
      if (!A.isValid())
        continue; // exists only in the other epoch (AddClass, say)
      Bits.set(A.index());
      for (uint32_t C = 0; C != H.numClasses(); ++C)
        if (H.isBaseOf(A, ClassId(C)))
          Bits.set(C);
    }
  };

  // The names whose answers can change at an impacted class C are the
  // names declared in C's up-closure - visible-before or visible-after,
  // hence again both epochs.
  auto CollectVisibleNames = [&Names](const Hierarchy &H,
                                      const BitVector &Impacted) {
    BitVector Sources(H.numClasses());
    Impacted.forEachSetBit([&](size_t C) {
      Sources.set(C);
      H.basesOf(ClassId(static_cast<uint32_t>(C)))
          .forEachSetBit([&](size_t B) { Sources.set(B); });
    });
    Sources.forEachSetBit([&](size_t C) {
      for (const MemberDecl &M :
           H.info(ClassId(static_cast<uint32_t>(C))).Members)
        Names.insert(std::string(H.spelling(M.Name)));
    });
  };

  BitVector OldImpacted(Old.numClasses()), NewImpacted(New.numClasses());
  MarkImpacted(Old, OldImpacted);
  MarkImpacted(New, NewImpacted);
  CollectVisibleNames(Old, OldImpacted);
  CollectVisibleNames(New, NewImpacted);

  Impact.ImpactedClasses = NewImpacted.count();
  Impact.MemberNames.assign(Names.begin(), Names.end());
  return Impact;
}
