//===- tests/TestUtil.h - Shared test fixtures ------------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's example hierarchies (Figures 1, 2, 3, and 9), shared by
/// the unit, property, and reproduction tests, plus small comparison
/// helpers and brute-force closure oracles.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_TESTS_TESTUTIL_H
#define MEMLOOK_TESTS_TESTUTIL_H

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/chg/Path.h"
#include "memlook/core/LookupResult.h"

#include <string>
#include <vector>

namespace memlook {
namespace testutil {

/// Figure 1: the non-virtual inheritance example.
///   class A { void m(); };  class B : A {};  class C : B {};
///   class D : B { void m(); };  class E : C, D {};
/// lookup(E, m) is ambiguous (two A subobjects).
inline Hierarchy makeFigure1() {
  HierarchyBuilder B;
  B.addClass("A").withMember("m");
  B.addClass("B").withBase("A");
  B.addClass("C").withBase("B");
  B.addClass("D").withBase("B").withMember("m");
  B.addClass("E").withBase("C").withBase("D");
  return std::move(B).build();
}

/// Figure 2: the virtual inheritance twin of Figure 1.
///   class A { void m(); };  class B : A {};  class C : virtual B {};
///   class D : virtual B { void m(); };  class E : C, D {};
/// lookup(E, m) resolves to D::m (one shared A subobject).
inline Hierarchy makeFigure2() {
  HierarchyBuilder B;
  B.addClass("A").withMember("m");
  B.addClass("B").withBase("A");
  B.addClass("C").withVirtualBase("B");
  B.addClass("D").withVirtualBase("B").withMember("m");
  B.addClass("E").withBase("C").withBase("D");
  return std::move(B).build();
}

/// Figure 3 (as completed by Figures 4-7): A -> B, A -> C, B -> D,
/// C -> D non-virtual; D -> F, D -> G virtual; E -> F, F -> H, G -> H
/// non-virtual. Members: A::foo, G::foo, E::bar, D::bar, G::bar.
inline Hierarchy makeFigure3() {
  HierarchyBuilder B;
  B.addClass("A").withMember("foo");
  B.addClass("B").withBase("A");
  B.addClass("C").withBase("A");
  B.addClass("D").withBase("B").withBase("C").withMember("bar");
  B.addClass("E").withMember("bar");
  B.addClass("F").withVirtualBase("D").withBase("E");
  B.addClass("G").withVirtualBase("D").withMember("foo").withMember("bar");
  B.addClass("H").withBase("F").withBase("G");
  return std::move(B).build();
}

/// Figure 9: the g++ counterexample.
///   struct S { int m; };
///   struct A : virtual S { int m; };
///   struct B : virtual S { int m; };
///   struct C : virtual A, virtual B { int m; };
///   struct D : C {};
///   struct E : virtual A, virtual B, D {};
/// lookup(E, m) is unambiguous (C::m), but a breadth-first scan meets
/// A::m and B::m first and g++ 2.7.2 reported ambiguity.
inline Hierarchy makeFigure9() {
  HierarchyBuilder B;
  B.addClass("S").withMember("m");
  B.addClass("A").withVirtualBase("S").withMember("m");
  B.addClass("B").withVirtualBase("S").withMember("m");
  B.addClass("C").withVirtualBase("A").withVirtualBase("B").withMember("m");
  B.addClass("D").withBase("C");
  B.addClass("E").withVirtualBase("A").withVirtualBase("B").withBase("D");
  return std::move(B).build();
}

/// Builds the Path for a sequence of class names, asserting each exists.
inline Path pathOf(const Hierarchy &H, const std::vector<std::string> &Names) {
  Path P;
  for (const std::string &Name : Names) {
    ClassId Id = H.findClass(Name);
    assert(Id.isValid() && "unknown class in pathOf");
    P.Nodes.push_back(Id);
  }
  return P;
}

/// Canonical comparison key of a LookupResult for differential tests:
/// status label, defining-class name, and subobject key rendering (or
/// just status+class for shared-static results, where engines may pick
/// different representatives).
inline std::string comparisonKey(const Hierarchy &H, const LookupResult &R) {
  std::string Out = lookupStatusLabel(R.Status);
  if (R.Status != LookupStatus::Unambiguous)
    return Out;
  Out += ':';
  Out += H.className(R.DefiningClass);
  if (!R.SharedStatic && R.Subobject) {
    Out += ':';
    Out += formatSubobjectKey(H, *R.Subobject);
  }
  return Out;
}

/// Literal reachability: is \p From a proper base of \p To? A DFS over
/// the direct-derived lists that never reads the closures.
inline bool isBaseOfBruteForce(const Hierarchy &H, ClassId From, ClassId To) {
  if (From == To)
    return false; // base-of is proper
  std::vector<ClassId> Stack{From};
  std::vector<bool> Seen(H.numClasses(), false);
  Seen[From.index()] = true;
  while (!Stack.empty()) {
    ClassId Cur = Stack.back();
    Stack.pop_back();
    for (ClassId Derived : H.info(Cur).DirectDerived) {
      if (Derived == To)
        return true;
      if (!Seen[Derived.index()]) {
        Seen[Derived.index()] = true;
        Stack.push_back(Derived);
      }
    }
  }
  return false;
}

/// Literal Section 2 virtual-base test: enumerate the paths
/// \p From -> ... -> \p To and look for one whose first edge is virtual.
inline bool isVirtualBaseOfBruteForce(const Hierarchy &H, ClassId From,
                                      ClassId To) {
  bool Found = false;
  enumeratePaths(H, From, To, [&](const Path &P) {
    if (Found || P.length() < 2)
      return;
    auto Kind = H.edgeKind(P.Nodes[0], P.Nodes[1]);
    if (Kind && *Kind == InheritanceKind::Virtual)
      Found = true;
  });
  return Found;
}

/// Every id-level fact of the finalized \p H, rendered by name: per
/// class its bases (kind, access), derived classes, members (flags,
/// using-source), base and virtual-base closure rows; then the
/// topological order, allMemberNames() and the counters. Two hierarchies
/// with equal renderings answer every query the same way.
inline std::vector<std::string> describeHierarchy(const Hierarchy &H) {
  std::vector<std::string> Out;
  for (uint32_t I = 0; I != H.numClasses(); ++I) {
    const Hierarchy::ClassInfo &Info = H.info(ClassId(I));
    std::string Line =
        std::to_string(I) + " " + std::string(H.className(ClassId(I))) + " :";
    for (const BaseSpecifier &B : Info.DirectBases)
      Line += " " + std::to_string(B.Base.index()) +
              (B.Kind == InheritanceKind::Virtual ? "v" : "") +
              accessSpelling(B.Access);
    Line += " <-";
    for (ClassId D : Info.DirectDerived)
      Line += " " + std::to_string(D.index());
    Line += " {";
    for (const MemberDecl &M : Info.Members)
      Line += " " + std::string(H.spelling(M.Name)) +
              (M.IsStatic ? "/s" : "") + (M.IsVirtual ? "/v" : "") + "/" +
              accessSpelling(M.Access) +
              (M.isUsingDeclaration()
                   ? "/using" + std::to_string(M.UsingFrom.index())
                   : "");
    Line += " } bases";
    H.basesOf(ClassId(I)).forEachSetBit(
        [&](size_t B) { Line += " " + std::to_string(B); });
    Line += " virtual";
    H.virtualBasesOf(ClassId(I)).forEachSetBit(
        [&](size_t B) { Line += " " + std::to_string(B); });
    Out.push_back(Line);
  }
  std::string Topo = "topo:";
  for (ClassId C : H.topologicalOrder())
    Topo += " " + std::to_string(C.index());
  Out.push_back(Topo);
  std::string Names = "names:";
  for (Symbol S : H.allMemberNames())
    Names += " " + std::string(H.spelling(S));
  Out.push_back(Names);
  Out.push_back("edges " + std::to_string(H.numEdges()) + " decls " +
                std::to_string(H.numMemberDecls()));
  return Out;
}

} // namespace testutil
} // namespace memlook

#endif // MEMLOOK_TESTS_TESTUTIL_H
