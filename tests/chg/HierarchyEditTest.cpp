//===- HierarchyEditTest.cpp -----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hierarchy::draft() and the removal edits. The contract under test: a
/// draft edited by id finalizes to exactly the hierarchy a from-scratch
/// build of the edited description gives - same ids, names, base and
/// derived order, member order, closures, allMemberNames() order - and a
/// draft carries only the names still in use.
///
/// A draft shares its base's finalized structure (topological order,
/// closures, edge index) until a structural edit drops it: a member-only
/// draft finalizes onto the very same closure words, and every
/// structural edit kind yields a fresh block that brute force agrees
/// with.
///
//===----------------------------------------------------------------------===//

#include "memlook/workload/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

using namespace memlook;
using namespace memlook::testutil;

namespace {

Hierarchy finalized(Hierarchy H) {
  DiagnosticEngine Diags;
  EXPECT_TRUE(H.finalize(Diags));
  return H;
}

/// Rebuilds \p H through HierarchyBuilder from its description alone -
/// classes in id order, then bases and members - so nothing \p H
/// finalized (closures, order, edge index) is shared with the result.
inline Hierarchy rebuildFromScratch(const Hierarchy &H) {
  HierarchyBuilder B;
  for (uint32_t I = 0; I != H.numClasses(); ++I)
    B.addClass(H.className(ClassId(I)));
  Hierarchy &Fresh = B.hierarchy();
  for (uint32_t I = 0; I != H.numClasses(); ++I) {
    const Hierarchy::ClassInfo &Info = H.info(ClassId(I));
    for (const BaseSpecifier &Spec : Info.DirectBases)
      Fresh.addBase(ClassId(I), Spec.Base, Spec.Kind, Spec.Access);
    for (const MemberDecl &M : Info.Members) {
      if (M.isUsingDeclaration())
        Fresh.addUsingDeclaration(ClassId(I), M.UsingFrom, H.spelling(M.Name),
                                  M.Access);
      else
        Fresh.addMember(ClassId(I), H.spelling(M.Name), M.IsStatic,
                        M.IsVirtual, M.Access);
    }
  }
  return std::move(B).build();
}

/// A, B : virtual A, C : A, D : B, C with members and a using-decl.
Hierarchy sample() {
  HierarchyBuilder B;
  B.addClass("A").withMember("m").withStaticMember("s");
  B.addClass("B").withVirtualBase("A").withMember("b");
  B.addClass("C").withBase("A", AccessSpec::Protected).withMember("c");
  B.addClass("D").withBase("B").withBase("C").withUsing("B", "b");
  return std::move(B).build();
}

} // namespace

TEST(HierarchyEditTest, DraftFinalizesToTheSameHierarchy) {
  Hierarchy H = sample();
  Hierarchy Draft = H.draft();
  EXPECT_FALSE(Draft.isFinalized());
  EXPECT_EQ(describeHierarchy(finalized(std::move(Draft))),
            describeHierarchy(H));
}

TEST(HierarchyEditTest, DraftCarriesOnlyLiveNames) {
  Hierarchy H = sample();
  H.internName("query_only");
  Hierarchy Draft = H.draft();
  EXPECT_TRUE(Draft.removeMember(Draft.findClass("C"), "c"));
  EXPECT_FALSE(Draft.findName("query_only").isValid());
  Hierarchy Next = finalized(Draft.draft());
  // 4 class names + m, s, b: "c" went with its last declaration.
  EXPECT_EQ(Next.numInternedNames(), 7u);
  EXPECT_FALSE(Next.findName("c").isValid());
}

TEST(HierarchyEditTest, RemoveMemberMatchesAFreshBuild) {
  Hierarchy Draft = sample().draft();
  EXPECT_FALSE(Draft.removeMember(Draft.findClass("A"), "b"));
  EXPECT_FALSE(Draft.removeMember(Draft.findClass("A"), "never_seen"));
  EXPECT_TRUE(Draft.removeMember(Draft.findClass("A"), "m"));

  HierarchyBuilder B;
  B.addClass("A").withStaticMember("s");
  B.addClass("B").withVirtualBase("A").withMember("b");
  B.addClass("C").withBase("A", AccessSpec::Protected).withMember("c");
  B.addClass("D").withBase("B").withBase("C").withUsing("B", "b");
  EXPECT_EQ(describeHierarchy(finalized(std::move(Draft))),
            describeHierarchy(std::move(B).build()));
}

TEST(HierarchyEditTest, RemoveBaseUpdatesBothEndpoints) {
  Hierarchy Draft = sample().draft();
  EXPECT_FALSE(Draft.removeBase(Draft.findClass("C"), Draft.findClass("B")));
  EXPECT_TRUE(Draft.removeBase(Draft.findClass("D"), Draft.findClass("B")));
  EXPECT_EQ(Draft.numEdges(), 3u);
  EXPECT_TRUE(Draft.info(Draft.findClass("B")).DirectDerived.empty());

  // D's using-declaration now names a non-base: the draft refuses to
  // finalize, and validate() reports it without touching the draft.
  DiagnosticEngine Diags;
  EXPECT_FALSE(Draft.validate(Diags));
  EXPECT_TRUE(Diags.hasCode(DiagCode::InvalidUsingTarget));
  EXPECT_TRUE(Draft.removeMember(Draft.findClass("D"), "b"));

  HierarchyBuilder B;
  B.addClass("A").withMember("m").withStaticMember("s");
  B.addClass("B").withVirtualBase("A").withMember("b");
  B.addClass("C").withBase("A", AccessSpec::Protected).withMember("c");
  B.addClass("D").withBase("C");
  EXPECT_EQ(describeHierarchy(finalized(std::move(Draft))),
            describeHierarchy(std::move(B).build()));
}

TEST(HierarchyEditTest, AddedEdgeKeepsDerivedListsInIdOrder) {
  // D -> E exists; adding the edge D -> B (B older than E) must list B
  // before E among D's derived classes, as a fresh build would.
  HierarchyBuilder Seed;
  Seed.addClass("A");
  Seed.addClass("B");
  Seed.addClass("D");
  Seed.addClass("E").withBase("D");
  Hierarchy Draft = std::move(Seed).build().draft();
  ASSERT_TRUE(Draft.addBase(Draft.findClass("B"), Draft.findClass("D")));

  HierarchyBuilder B;
  B.addClass("A");
  B.addClass("B");
  B.addClass("D");
  B.getClass("B").withBase("D");
  B.addClass("E").withBase("D");
  Hierarchy Fresh = std::move(B).build();
  EXPECT_EQ(describeHierarchy(finalized(std::move(Draft))),
            describeHierarchy(Fresh));
  const std::vector<ClassId> &Derived =
      Fresh.info(Fresh.findClass("D")).DirectDerived;
  ASSERT_EQ(Derived.size(), 2u);
  EXPECT_EQ(Derived[0], Fresh.findClass("B"));
}

TEST(HierarchyEditTest, RemoveClassRefusesReferencedClasses) {
  Hierarchy Draft = sample().draft();
  EXPECT_FALSE(Draft.removeClass(Draft.findClass("A"))); // base of B and C
  EXPECT_TRUE(Draft.removeBase(Draft.findClass("D"), Draft.findClass("B")));
  EXPECT_FALSE(Draft.removeClass(Draft.findClass("B"))); // D uses B::b
  EXPECT_EQ(Draft.numClasses(), 4u);
}

TEST(HierarchyEditTest, RemoveClassCompactsIdsInCreationOrder) {
  Hierarchy Draft = sample().draft();
  ClassId C = Draft.findClass("C");
  ASSERT_TRUE(Draft.removeBase(Draft.findClass("D"), C));
  ASSERT_TRUE(Draft.removeClass(C));
  EXPECT_FALSE(Draft.findClass("C").isValid());
  EXPECT_EQ(Draft.findClass("D"), ClassId(2));
  ClassId E = Draft.createClass("E");
  EXPECT_EQ(E, ClassId(3));
  ASSERT_TRUE(Draft.addBase(E, Draft.findClass("D")));

  HierarchyBuilder B;
  B.addClass("A").withMember("m").withStaticMember("s");
  B.addClass("B").withVirtualBase("A").withMember("b");
  B.addClass("D").withBase("B").withUsing("B", "b");
  B.addClass("E").withBase("D");
  EXPECT_EQ(describeHierarchy(finalized(std::move(Draft))),
            describeHierarchy(std::move(B).build()));
}

TEST(HierarchyEditTest, MemberOnlyDraftSharesTheBaseClosures) {
  Hierarchy H = sample();
  Hierarchy Draft = H.draft();
  ClassId A = Draft.findClass("A"), D = Draft.findClass("D");
  EXPECT_TRUE(Draft.removeMember(A, "m"));
  Draft.addMember(D, "fresh", /*IsStatic=*/true);
  Draft.addUsingDeclaration(D, A, "s");
  Hierarchy Next = finalized(std::move(Draft));

  for (uint32_t I = 0; I != H.numClasses(); ++I) {
    EXPECT_EQ(Next.basesOf(ClassId(I)).words(), H.basesOf(ClassId(I)).words());
    EXPECT_EQ(Next.virtualBasesOf(ClassId(I)).words(),
              H.virtualBasesOf(ClassId(I)).words());
  }
  EXPECT_EQ(&Next.topologicalOrder(), &H.topologicalOrder());

  HierarchyBuilder B;
  B.addClass("A").withStaticMember("s");
  B.addClass("B").withVirtualBase("A").withMember("b");
  B.addClass("C").withBase("A", AccessSpec::Protected).withMember("c");
  B.addClass("D").withBase("B").withBase("C").withUsing("B", "b");
  B.getClass("D").withStaticMember("fresh").withUsing("A", "s");
  EXPECT_EQ(describeHierarchy(Next), describeHierarchy(std::move(B).build()));
}

TEST(HierarchyEditTest, MemberOnlyDraftStillChecksUsingTargets) {
  // C does not derive from B. The draft reuses the base's structure, so
  // finalize() skips the cycle check, but never the using-target check.
  Hierarchy Draft = sample().draft();
  Draft.addUsingDeclaration(Draft.findClass("C"), Draft.findClass("B"), "b");
  DiagnosticEngine Diags;
  EXPECT_FALSE(Draft.finalize(Diags));
  EXPECT_TRUE(Diags.hasCode(DiagCode::InvalidUsingTarget));
}

namespace {

enum class StructuralEdit { AddClass, AddBase, RemoveBase, RemoveClass };

/// Applies one \p Kind edit to \p Draft, drawn from \p Seed; false if
/// the hierarchy offers no operand for it.
bool applyStructuralEdit(Hierarchy &Draft, StructuralEdit Kind,
                         uint64_t Seed) {
  const uint32_t N = Draft.numClasses();
  switch (Kind) {
  case StructuralEdit::AddClass: {
    // A new last class, deriving virtually from an existing one.
    ClassId Fresh = Draft.createClass("Fresh");
    return Draft.addBase(Fresh, ClassId(static_cast<uint32_t>(Seed % N)),
                         InheritanceKind::Virtual);
  }
  case StructuralEdit::AddBase:
    // The first missing forward edge from Seed's slot on: forward edges
    // keep the graph acyclic.
    for (uint32_t Step = 0; Step != N * N; ++Step) {
      uint32_t From = static_cast<uint32_t>((Seed + Step) % N);
      uint32_t To = static_cast<uint32_t>((Seed + Step / N + 1) % N);
      if (From < To && !Draft.edgeKind(ClassId(From), ClassId(To)))
        return Draft.addBase(ClassId(To), ClassId(From),
                             InheritanceKind::Virtual);
    }
    return false;
  case StructuralEdit::RemoveBase:
    for (uint32_t Step = 0; Step != N; ++Step) {
      ClassId Derived(static_cast<uint32_t>((Seed + Step) % N));
      const std::vector<BaseSpecifier> &Bases = Draft.info(Derived).DirectBases;
      if (!Bases.empty())
        return Draft.removeBase(Derived, Bases[Seed % Bases.size()].Base);
    }
    return false;
  case StructuralEdit::RemoveClass:
    // A class no one derives from, below the last slot, so every later
    // id shifts.
    for (uint32_t Step = 0; Step != N; ++Step) {
      ClassId Gone(static_cast<uint32_t>((Seed + Step) % (N - 1)));
      if (Draft.info(Gone).DirectDerived.empty())
        return Draft.removeClass(Gone);
    }
    return false;
  }
  return false;
}

class StructuralEditTest
    : public ::testing::TestWithParam<std::tuple<StructuralEdit, uint64_t>> {};

std::string structuralEditCaseName(
    const ::testing::TestParamInfo<StructuralEditTest::ParamType> &Info) {
  static const char *const Names[] = {"AddClass", "AddBase", "RemoveBase",
                                      "RemoveClass"};
  return std::string(Names[static_cast<int>(std::get<0>(Info.param))]) +
         "_seed" + std::to_string(std::get<1>(Info.param));
}

} // namespace

TEST_P(StructuralEditTest, FreshClosuresMatchBruteForce) {
  auto [Kind, Seed] = GetParam();
  RandomHierarchyParams Params;
  Params.NumClasses = 14; // enumeration-bounded, as in ClosureBruteForceTest
  Params.AvgBases = 1.9;
  Params.VirtualEdgeChance = 0.45;
  Workload W = makeRandomHierarchy(Params, Seed * 331 + 7);

  Hierarchy Draft = W.H.draft();
  ASSERT_TRUE(applyStructuralEdit(Draft, Kind, Seed));
  Hierarchy Next = finalized(std::move(Draft));
  ASSERT_TRUE(Next.isFinalized());
  EXPECT_NE(&Next.topologicalOrder(), &W.H.topologicalOrder());

  for (uint32_t A = 0; A != Next.numClasses(); ++A)
    for (uint32_t B = 0; B != Next.numClasses(); ++B) {
      EXPECT_EQ(Next.isBaseOf(ClassId(A), ClassId(B)),
                isBaseOfBruteForce(Next, ClassId(A), ClassId(B)))
          << Next.className(ClassId(A)) << " vs "
          << Next.className(ClassId(B));
      EXPECT_EQ(Next.isVirtualBaseOf(ClassId(A), ClassId(B)),
                isVirtualBaseOfBruteForce(Next, ClassId(A), ClassId(B)))
          << Next.className(ClassId(A)) << " vs "
          << Next.className(ClassId(B));
    }
  // And the edited hierarchy is exactly its own from-scratch rebuild.
  EXPECT_EQ(describeHierarchy(Next),
            describeHierarchy(rebuildFromScratch(Next)));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, StructuralEditTest,
    ::testing::Combine(::testing::Values(StructuralEdit::AddClass,
                                         StructuralEdit::AddBase,
                                         StructuralEdit::RemoveBase,
                                         StructuralEdit::RemoveClass),
                       ::testing::Range<uint64_t>(1, 6)),
    structuralEditCaseName);
