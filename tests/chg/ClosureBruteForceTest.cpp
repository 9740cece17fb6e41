//===- ClosureBruteForceTest.cpp --------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// The base-class and virtual-base closures that finalize() computes
/// with bit-row unions, validated against literal brute force:
///
///  * isBaseOf(B, D) iff a nonempty CHG path B -> ... -> D exists;
///  * isVirtualBaseOf(B, D) iff some such path starts with a virtual
///    edge (Section 2's definition, checked by path enumeration).
///
//===----------------------------------------------------------------------===//

#include "memlook/workload/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace memlook;
using namespace memlook::testutil;

namespace {

class ClosureBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ClosureBruteForceTest, BaseClosureMatchesReachability) {
  RandomHierarchyParams Params;
  Params.NumClasses = 18;
  Params.AvgBases = 2.1;
  Params.VirtualEdgeChance = 0.4;
  Workload W = makeRandomHierarchy(Params, GetParam() * 677 + 13);
  for (uint32_t A = 0; A != W.H.numClasses(); ++A)
    for (uint32_t B = 0; B != W.H.numClasses(); ++B)
      EXPECT_EQ(W.H.isBaseOf(ClassId(A), ClassId(B)),
                isBaseOfBruteForce(W.H, ClassId(A), ClassId(B)))
          << W.H.className(ClassId(A)) << " vs "
          << W.H.className(ClassId(B)) << " seed " << GetParam();
}

TEST_P(ClosureBruteForceTest, VirtualClosureMatchesPathEnumeration) {
  RandomHierarchyParams Params;
  Params.NumClasses = 14; // enumeration-bounded
  Params.AvgBases = 1.9;
  Params.VirtualEdgeChance = 0.45;
  Workload W = makeRandomHierarchy(Params, GetParam() * 331 + 7);
  for (uint32_t A = 0; A != W.H.numClasses(); ++A)
    for (uint32_t B = 0; B != W.H.numClasses(); ++B)
      EXPECT_EQ(W.H.isVirtualBaseOf(ClassId(A), ClassId(B)),
                isVirtualBaseOfBruteForce(W.H, ClassId(A), ClassId(B)))
          << W.H.className(ClassId(A)) << " vs "
          << W.H.className(ClassId(B)) << " seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureBruteForceTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(ClosureBruteForceTest, VirtualBaseOfSelfIsAlwaysFalse) {
  Hierarchy H = makeFigure9();
  for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx) {
    EXPECT_FALSE(H.isBaseOf(ClassId(Idx), ClassId(Idx)));
    EXPECT_FALSE(H.isVirtualBaseOf(ClassId(Idx), ClassId(Idx)));
  }
}

TEST(ClosureBruteForceTest, VirtualBaseImpliesBase) {
  RandomHierarchyParams Params;
  Params.NumClasses = 30;
  Params.VirtualEdgeChance = 0.5;
  Workload W = makeRandomHierarchy(Params, 31415);
  for (uint32_t A = 0; A != W.H.numClasses(); ++A)
    for (uint32_t B = 0; B != W.H.numClasses(); ++B)
      if (W.H.isVirtualBaseOf(ClassId(A), ClassId(B))) {
        EXPECT_TRUE(W.H.isBaseOf(ClassId(A), ClassId(B)));
      }
}
