//===- Hierarchy.cpp - C++ class hierarchy graph ---------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/chg/Hierarchy.h"

#include "memlook/support/TopologicalSort.h"

#include <algorithm>
#include <string>

using namespace memlook;

const char *memlook::accessSpelling(AccessSpec Access) {
  switch (Access) {
  case AccessSpec::Public:
    return "public";
  case AccessSpec::Protected:
    return "protected";
  case AccessSpec::Private:
    return "private";
  }
  return "unknown";
}

ClassId Hierarchy::createClass(std::string_view Name, SourceLoc Loc,
                               DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add classes after finalize()");
  Symbol Sym = Names.intern(Name);
  auto It = ClassByName.find(Sym);
  if (It != ClassByName.end()) {
    if (Diags)
      Diags->error(Loc, "redefinition of class '" + std::string(Name) + "'",
                   DiagCode::DuplicateClass);
    return ClassId();
  }

  ClassId Id(static_cast<uint32_t>(Classes.size()));
  Classes.push_back(ClassInfo{Sym, Loc, {}, {}, {}});
  ClassByName.emplace(Sym, Id);
  Graph.reset();
  return Id;
}

bool Hierarchy::addBase(ClassId Derived, ClassId Base, InheritanceKind Kind,
                        AccessSpec Access, SourceLoc Loc,
                        DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add edges after finalize()");
  assert(Derived.isValid() && Derived.index() < Classes.size() &&
         "bad derived class id");
  assert(Base.isValid() && Base.index() < Classes.size() && "bad base id");

  if (Base == Derived) {
    if (Diags)
      Diags->error(Loc,
                   "class '" + std::string(className(Derived)) +
                       "' cannot inherit from itself",
                   DiagCode::SelfInheritance);
    return false;
  }

  // C++ forbids naming the same class twice in one base-specifier list
  // ([class.mi]); this also keeps the CHG a plain graph rather than a
  // multigraph, which Definition 15's abstraction operator relies on.
  // A repeat with the *other* inheritance kind gets its own code: it is
  // the classic adversarial probe for engines that key edges by
  // (base, derived) and would silently merge the two kinds.
  ClassInfo &DerivedInfo = Classes[Derived.index()];
  for (const BaseSpecifier &Spec : DerivedInfo.DirectBases)
    if (Spec.Base == Base) {
      bool Conflicting = Spec.Kind != Kind;
      if (Diags)
        Diags->error(Loc,
                     std::string(Conflicting ? "conflicting" : "duplicate") +
                         " direct base class '" +
                         std::string(className(Base)) + "' of '" +
                         std::string(className(Derived)) +
                         (Conflicting ? "' (virtual and non-virtual)" : "'"),
                     Conflicting ? DiagCode::ConflictingBase
                                 : DiagCode::DuplicateBase);
      return false;
    }

  DerivedInfo.DirectBases.push_back(BaseSpecifier{Base, Kind, Access, Loc});
  // Sorted insert: an edge added to an older class by an edit lands
  // where a from-scratch build in creation order would have put it.
  std::vector<ClassId> &Derivers = Classes[Base.index()].DirectDerived;
  Derivers.insert(std::upper_bound(Derivers.begin(), Derivers.end(), Derived),
                  Derived);
  ++NumEdges;
  Graph.reset();
  return true;
}

void Hierarchy::addMember(ClassId Class, std::string_view Name, bool IsStatic,
                          bool IsVirtual, AccessSpec Access, SourceLoc Loc,
                          DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add members after finalize()");
  assert(Class.isValid() && Class.index() < Classes.size() && "bad class id");

  Symbol Sym = Names.intern(Name);
  ClassInfo &Info = Classes[Class.index()];
  for (const MemberDecl &Existing : Info.Members)
    if (Existing.Name == Sym) {
      // We model member *names*, not overload sets; fold redeclarations.
      if (Diags)
        Diags->warning(Loc,
                       "member '" + std::string(Name) +
                           "' already declared in class '" +
                           std::string(className(Class)) +
                           "'; ignoring redeclaration",
                       DiagCode::RedeclaredMember);
      return;
    }

  Info.Members.push_back(
      MemberDecl{Sym, IsStatic, IsVirtual, Access, Loc, ClassId()});
  ++NumMemberDecls;
}

void Hierarchy::addUsingDeclaration(ClassId Class, ClassId From,
                                    std::string_view Name, AccessSpec Access,
                                    SourceLoc Loc, DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add members after finalize()");
  assert(Class.isValid() && Class.index() < Classes.size() && "bad class id");
  assert(From.isValid() && From.index() < Classes.size() && "bad base id");

  Symbol Sym = Names.intern(Name);
  ClassInfo &Info = Classes[Class.index()];
  for (const MemberDecl &Existing : Info.Members)
    if (Existing.Name == Sym) {
      if (Diags)
        Diags->warning(Loc,
                       "member '" + std::string(Name) +
                           "' already declared in class '" +
                           std::string(className(Class)) +
                           "'; ignoring using-declaration",
                       DiagCode::RedeclaredMember);
      return;
    }

  Info.Members.push_back(MemberDecl{Sym, /*IsStatic=*/false,
                                    /*IsVirtual=*/false, Access, Loc, From});
  ++NumMemberDecls;
}

bool Hierarchy::removeMember(ClassId Class, std::string_view Name) {
  assert(!Finalized && "cannot remove members after finalize()");
  std::vector<MemberDecl> &Members = Classes[Class.index()].Members;
  Symbol Sym = Names.find(Name);
  auto It = std::find_if(Members.begin(), Members.end(),
                         [Sym](const MemberDecl &M) { return M.Name == Sym; });
  if (It == Members.end())
    return false;
  Members.erase(It);
  --NumMemberDecls;
  return true;
}

bool Hierarchy::removeBase(ClassId Derived, ClassId Base) {
  assert(!Finalized && "cannot remove edges after finalize()");
  std::vector<BaseSpecifier> &Bases = Classes[Derived.index()].DirectBases;
  auto It =
      std::find_if(Bases.begin(), Bases.end(),
                   [Base](const BaseSpecifier &S) { return S.Base == Base; });
  if (It == Bases.end())
    return false;
  Bases.erase(It);
  std::vector<ClassId> &Derivers = Classes[Base.index()].DirectDerived;
  Derivers.erase(std::find(Derivers.begin(), Derivers.end(), Derived));
  --NumEdges;
  Graph.reset();
  return true;
}

bool Hierarchy::removeClass(ClassId Class) {
  assert(!Finalized && "cannot remove classes after finalize()");
  const uint32_t Gone = Class.index();
  // Nothing may be left pointing at the class: C++ has no way to
  // un-inherit, and a dangling using-source would be meaningless.
  if (!Classes[Gone].DirectDerived.empty())
    return false;
  for (uint32_t D = 0; D != numClasses(); ++D)
    if (D != Gone)
      for (const MemberDecl &M : Classes[D].Members)
        if (M.UsingFrom == Class)
          return false;

  for (const BaseSpecifier &Spec : Classes[Gone].DirectBases) {
    std::vector<ClassId> &Derivers = Classes[Spec.Base.index()].DirectDerived;
    Derivers.erase(std::find(Derivers.begin(), Derivers.end(), Class));
  }
  NumEdges -= static_cast<uint32_t>(Classes[Gone].DirectBases.size());
  NumMemberDecls -= static_cast<uint32_t>(Classes[Gone].Members.size());
  ClassByName.erase(Classes[Gone].Name);
  Classes.erase(Classes.begin() + Gone);

  // Every later class moved down one slot.
  auto Shift = [Gone](ClassId &Id) {
    if (Id.isValid() && Id.index() > Gone)
      Id = ClassId(Id.index() - 1);
  };
  for (ClassInfo &Info : Classes) {
    for (BaseSpecifier &Spec : Info.DirectBases)
      Shift(Spec.Base);
    for (ClassId &Derived : Info.DirectDerived)
      Shift(Derived);
    for (MemberDecl &M : Info.Members)
      Shift(M.UsingFrom);
  }
  for (auto &Entry : ClassByName)
    Shift(Entry.second);
  Graph.reset();
  return true;
}

Hierarchy Hierarchy::draft() const {
  Hierarchy Copy;
  Copy.Classes = Classes;
  Copy.Graph = Graph;
  Copy.NumEdges = NumEdges;
  Copy.NumMemberDecls = NumMemberDecls;
  Copy.ClassByName.reserve(Classes.size());

  std::vector<Symbol> Remap(Names.size());
  auto Reintern = [&](Symbol &Sym) {
    Symbol &Mapped = Remap[Sym.index()];
    if (!Mapped.isValid())
      Mapped = Copy.Names.intern(Names.spelling(Sym));
    Sym = Mapped;
  };
  for (uint32_t C = 0; C != numClasses(); ++C) {
    Reintern(Copy.Classes[C].Name);
    Copy.ClassByName.emplace(Copy.Classes[C].Name, ClassId(C));
  }
  for (ClassInfo &Info : Copy.Classes)
    for (MemberDecl &M : Info.Members)
      Reintern(M.Name);
  return Copy;
}

bool Hierarchy::checkUsingTargets(DiagnosticEngine &Diags) const {
  // A using-declaration must name a (transitive) base of its class
  // ([namespace.udecl]). The check walks the base graph from each
  // declaring class instead of reading the closures, so it also runs on
  // a cyclic graph and one finalize() reports every problem; stamping
  // visits with the walk's origin keeps each walk cycle-safe and linear
  // in the class's up-closure.
  uint32_t N = numClasses();
  bool Ok = true;
  std::vector<uint32_t> VisitedFrom;
  std::vector<uint32_t> Stack;
  for (uint32_t D = 0; D != N; ++D) {
    bool Walked = false;
    for (const MemberDecl &Member : Classes[D].Members) {
      if (!Member.isUsingDeclaration())
        continue;
      if (!Walked) {
        if (VisitedFrom.empty())
          VisitedFrom.assign(N, UINT32_MAX);
        Stack.assign(1, D);
        while (!Stack.empty()) {
          uint32_t Cur = Stack.back();
          Stack.pop_back();
          for (const BaseSpecifier &Spec : Classes[Cur].DirectBases)
            if (VisitedFrom[Spec.Base.index()] != D) {
              VisitedFrom[Spec.Base.index()] = D;
              Stack.push_back(Spec.Base.index());
            }
        }
        Walked = true;
      }
      if (VisitedFrom[Member.UsingFrom.index()] != D) {
        Diags.error(Member.Loc,
                    "'" + std::string(className(Member.UsingFrom)) +
                        "' in using-declaration is not a base class of '" +
                        std::string(className(ClassId(D))) + "'",
                    DiagCode::InvalidUsingTarget);
        Ok = false;
      }
    }
  }
  return Ok;
}

std::shared_ptr<const Hierarchy::Structure>
Hierarchy::deriveStructure(DiagnosticEngine &Diags) const {
  uint32_t N = numClasses();
  std::vector<std::vector<uint32_t>> Successors(N);
  for (uint32_t D = 0; D != N; ++D)
    for (const BaseSpecifier &Spec : Classes[D].DirectBases)
      Successors[Spec.Base.index()].push_back(D);

  TopologicalSortResult Topo = topologicalSort(N, Successors);
  if (!Topo.IsAcyclic) {
    std::string Witness =
        Topo.CycleWitness
            ? std::string(className(ClassId(*Topo.CycleWitness)))
            : std::string("<unknown>");
    Diags.error("inheritance graph is cyclic (class '" + Witness +
                    "' participates in a cycle)",
                DiagCode::InheritanceCycle);
    return nullptr;
  }

  auto Built = std::make_shared<Structure>();
  Built->TopoOrder.reserve(N);
  for (uint32_t Idx : Topo.Order)
    Built->TopoOrder.push_back(ClassId(Idx));

  // Transitive closures, bases before derived:
  //   Bases[D]   = union over direct bases B of D of Bases[B] + {B}
  //   Virtual[D] = union over direct bases B of
  //                  Virtual[B] + ({B} if the edge B->D is virtual)
  // The second line is the paper's Section 2 definition: X is a virtual
  // base of Y iff some path X -> ... -> Y *starts* with a virtual edge.
  BitMatrix &Bases = Built->BasesClosure = BitMatrix(N, N);
  BitMatrix &Virtual = Built->VirtualClosure = BitMatrix(N, N);
  for (ClassId C : Built->TopoOrder) {
    for (const BaseSpecifier &Spec : Classes[C.index()].DirectBases) {
      Bases.unionRows(C.index(), Spec.Base.index());
      Bases.set(C.index(), Spec.Base.index());
      Virtual.unionRows(C.index(), Spec.Base.index());
      if (Spec.Kind == InheritanceKind::Virtual)
        Virtual.set(C.index(), Spec.Base.index());
    }
  }

  for (uint32_t D = 0; D != N; ++D)
    for (const BaseSpecifier &Spec : Classes[D].DirectBases)
      Built->EdgeIndex.emplace(edgeKey(Spec.Base, ClassId(D)),
                               std::make_pair(Spec.Kind, Spec.Access));
  return Built;
}

bool Hierarchy::finalize(DiagnosticEngine &Diags) {
  assert(!Finalized && "finalize() called twice");

  // A draft whose classes and edges are its base's still holds the
  // base's block, and that graph was acyclic; the members may have
  // changed, so the using-targets are always checked.
  std::shared_ptr<const Structure> Built =
      Graph ? Graph : deriveStructure(Diags);
  bool UsingTargetsOk = checkUsingTargets(Diags);
  if (!Built || !UsingTargetsOk)
    return false;

  Graph = std::move(Built);
  BasesWords = Graph->BasesClosure.data();
  VirtualWords = Graph->VirtualClosure.data();
  RowWords = Graph->BasesClosure.rowStride();
  ClosureDim = numClasses();

  // Collect the program's distinct member names |M| in first-declaration
  // order (deterministic: class creation order, then declaration order).
  std::vector<bool> Seen(Names.size(), false);
  for (const ClassInfo &Info : Classes)
    for (const MemberDecl &Member : Info.Members) {
      if (Member.Name.index() < Seen.size() && Seen[Member.Name.index()])
        continue;
      if (Member.Name.index() >= Seen.size())
        Seen.resize(Member.Name.index() + 1, false);
      Seen[Member.Name.index()] = true;
      MemberNames.push_back(Member.Name);
    }

  Finalized = true;
  return true;
}

ClassId Hierarchy::findClass(std::string_view Name) const {
  Symbol Sym = Names.find(Name);
  if (!Sym.isValid())
    return ClassId();
  auto It = ClassByName.find(Sym);
  return It == ClassByName.end() ? ClassId() : It->second;
}

const MemberDecl *Hierarchy::declaredMember(ClassId Class, Symbol Name) const {
  for (const MemberDecl &Member : info(Class).Members)
    if (Member.Name == Name)
      return &Member;
  return nullptr;
}

std::optional<InheritanceKind> Hierarchy::edgeKind(ClassId Base,
                                                   ClassId Derived) const {
  if (Finalized) {
    auto It = Graph->EdgeIndex.find(edgeKey(Base, Derived));
    if (It == Graph->EdgeIndex.end())
      return std::nullopt;
    return It->second.first;
  }
  for (const BaseSpecifier &Spec : info(Derived).DirectBases)
    if (Spec.Base == Base)
      return Spec.Kind;
  return std::nullopt;
}

std::optional<AccessSpec> Hierarchy::edgeAccess(ClassId Base,
                                                ClassId Derived) const {
  if (Finalized) {
    auto It = Graph->EdgeIndex.find(edgeKey(Base, Derived));
    if (It == Graph->EdgeIndex.end())
      return std::nullopt;
    return It->second.second;
  }
  for (const BaseSpecifier &Spec : info(Derived).DirectBases)
    if (Spec.Base == Base)
      return Spec.Access;
  return std::nullopt;
}
