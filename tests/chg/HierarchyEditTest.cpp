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
/// derived order, member order, allMemberNames() order - and a draft
/// carries only the names still in use.
///
//===----------------------------------------------------------------------===//

#include "memlook/chg/Hierarchy.h"
#include "memlook/chg/HierarchyBuilder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace memlook;

namespace {

/// Every id-level fact of \p H, rendered by name.
std::vector<std::string> describe(const Hierarchy &H) {
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
              (M.IsStatic ? "/s" : "") + (M.IsVirtual ? "/v" : "") +
              (M.isUsingDeclaration()
                   ? "/using" + std::to_string(M.UsingFrom.index())
                   : "");
    Out.push_back(Line + " }");
  }
  std::string Names = "names:";
  for (Symbol S : H.allMemberNames())
    Names += " " + std::string(H.spelling(S));
  Out.push_back(Names);
  Out.push_back("edges " + std::to_string(H.numEdges()) + " decls " +
                std::to_string(H.numMemberDecls()));
  return Out;
}

Hierarchy finalized(Hierarchy H) {
  DiagnosticEngine Diags;
  EXPECT_TRUE(H.finalize(Diags));
  return H;
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
  EXPECT_EQ(describe(finalized(std::move(Draft))), describe(H));
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
  EXPECT_EQ(describe(finalized(std::move(Draft))),
            describe(std::move(B).build()));
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
  EXPECT_EQ(describe(finalized(std::move(Draft))),
            describe(std::move(B).build()));
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
  EXPECT_EQ(describe(finalized(std::move(Draft))), describe(Fresh));
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
  EXPECT_EQ(describe(finalized(std::move(Draft))),
            describe(std::move(B).build()));
}
