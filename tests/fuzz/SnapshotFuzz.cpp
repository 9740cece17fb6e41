//===- SnapshotFuzz.cpp - Snapshot-file fuzzing ------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "fuzz/SnapshotFuzz.h"

#include "memlook/core/DifferentialCheck.h"
#include "memlook/service/SnapshotFile.h"
#include "memlook/support/Rng.h"
#include "memlook/workload/Generators.h"

#include <algorithm>
#include <cstring>

using namespace memlook;
using namespace memlook::service;

namespace {

bool isRecoverableLoadFailure(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::SnapshotVersionMismatch:
  case ErrorCode::SnapshotChecksumMismatch:
  case ErrorCode::SnapshotMalformed:
  case ErrorCode::BudgetExceeded:
    return true;
  default:
    return false;
  }
}

/// Byte-level mutations. Every op changes at least one byte of a
/// non-empty buffer (flipping a bit cannot be a no-op; the others are
/// retried by construction or fall back to a flip).
enum class MutationOp : uint64_t {
  FlipBit = 0,
  Truncate,
  SwapSections,
  CorruptLengthField,
  ZeroRange,
  DuplicateRange,
  NumOps,
};

const char *mutationName(MutationOp Op) {
  switch (Op) {
  case MutationOp::FlipBit:
    return "flip-bit";
  case MutationOp::Truncate:
    return "truncate";
  case MutationOp::SwapSections:
    return "swap-sections";
  case MutationOp::CorruptLengthField:
    return "corrupt-length";
  case MutationOp::ZeroRange:
    return "zero-range";
  case MutationOp::DuplicateRange:
    return "duplicate-range";
  case MutationOp::NumOps:
    break;
  }
  return "?";
}

void flipBit(Rng &R, std::string &B) {
  size_t At = R.nextBelow(B.size());
  B[At] = static_cast<char>(B[At] ^ (1u << R.nextBelow(8)));
}

/// Applies \p Op to \p B. Returns false when the op cannot apply (e.g.
/// a single-section swap), in which case the caller falls back.
bool applyMutation(Rng &R, MutationOp Op, std::string &B) {
  switch (Op) {
  case MutationOp::FlipBit:
    flipBit(R, B);
    return true;

  case MutationOp::Truncate:
    B.resize(R.nextBelow(B.size())); // always strictly shorter
    return true;

  case MutationOp::SwapSections: {
    // Swap two section payloads while leaving the section table alone:
    // offsets, sizes, and CRCs then describe bytes that are no longer
    // there.
    Expected<std::vector<SnapshotSectionInfo>> Sections =
        inspectSnapshotSections(B);
    if (!Sections || Sections->size() < 2)
      return false;
    size_t I = R.nextBelow(Sections->size());
    size_t J = R.nextBelow(Sections->size());
    if (I == J)
      J = (J + 1) % Sections->size();
    const SnapshotSectionInfo &A = (*Sections)[std::min(I, J)];
    const SnapshotSectionInfo &C = (*Sections)[std::max(I, J)];
    std::string Between = B.substr(A.Offset + A.Size,
                                   C.Offset - (A.Offset + A.Size));
    std::string Rebuilt = B.substr(0, A.Offset);
    Rebuilt += B.substr(C.Offset, C.Size);
    Rebuilt += Between;
    Rebuilt += B.substr(A.Offset, A.Size);
    Rebuilt += B.substr(C.Offset + C.Size);
    if (Rebuilt == B)
      return false; // identical payloads: swapping changed nothing
    B = std::move(Rebuilt);
    return true;
  }

  case MutationOp::CorruptLengthField: {
    // Overwrite an aligned u32 in the header/section-table region,
    // where every length, offset, and count field lives.
    Expected<std::vector<SnapshotSectionInfo>> Sections =
        inspectSnapshotSections(B);
    size_t HeaderEnd = Sections && !Sections->empty()
                           ? static_cast<size_t>((*Sections)[0].Offset)
                           : std::min<size_t>(B.size(), 64);
    if (HeaderEnd < sizeof(uint32_t))
      return false;
    size_t At = R.nextBelow(HeaderEnd / sizeof(uint32_t)) * sizeof(uint32_t);
    uint32_t Lie = R.nextChance(1, 2)
                       ? static_cast<uint32_t>(R.next())
                       : static_cast<uint32_t>(R.nextBelow(1u << 20));
    if (std::memcmp(B.data() + At, &Lie, sizeof(Lie)) == 0)
      return false;
    std::memcpy(B.data() + At, &Lie, sizeof(Lie));
    return true;
  }

  case MutationOp::ZeroRange: {
    size_t At = R.nextBelow(B.size());
    size_t Len = 1 + R.nextBelow(std::min<size_t>(B.size() - At, 64));
    bool AllZero = true;
    for (size_t I = At; I != At + Len; ++I)
      AllZero &= B[I] == 0;
    if (AllZero)
      return false;
    std::memset(B.data() + At, 0, Len);
    return true;
  }

  case MutationOp::DuplicateRange: {
    if (B.size() < 2)
      return false;
    size_t Len = 1 + R.nextBelow(std::min<size_t>(B.size() / 2, 64));
    size_t From = R.nextBelow(B.size() - Len + 1);
    size_t To = R.nextBelow(B.size() - Len + 1);
    if (From == To ||
        std::memcmp(B.data() + From, B.data() + To, Len) == 0)
      return false;
    std::memmove(B.data() + To, B.data() + From, Len);
    return true;
  }

  case MutationOp::NumOps:
    break;
  }
  return false;
}

/// Appends to \p Out any (class, member) answer where \p Table (over
/// \p H) disagrees with \p Oracle (over \p OracleH - possibly a
/// different Hierarchy object describing the same classes, as after a
/// round trip). The join key is the member *spelling*: Symbol ids are
/// per-interner and intentionally not part of the persisted format.
/// Returns pairs compared.
uint64_t diffTables(const Hierarchy &H, const LookupTable &Table,
                    const Hierarchy &OracleH, const LookupTable &Oracle,
                    const char *What, std::vector<std::string> &Out) {
  uint64_t Pairs = 0;
  for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx) {
    for (Symbol M : H.allMemberNames()) {
      ++Pairs;
      Symbol OracleM = OracleH.findName(H.spelling(M));
      std::string Got =
          renderLookupForComparison(H, Table.find(H, ClassId(Idx), M));
      std::string Want = renderLookupForComparison(
          OracleH, Oracle.find(OracleH, ClassId(Idx), OracleM));
      if (Got != Want && Out.size() < 8)
        Out.push_back(std::string(What) + ": " +
                      std::string(H.className(ClassId(Idx))) + "::" +
                      std::string(H.spelling(M)) + ": loaded table says '" +
                      Got + "' but the oracle says '" + Want + "'");
    }
  }
  return Pairs;
}

} // namespace

SnapshotFuzzCaseResult
memlook::service::runSnapshotFuzzCase(uint64_t Seed,
                                      const ResourceBudget &Budget) {
  SnapshotFuzzCaseResult Result;
  Result.Seed = Seed;

  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0x5eed);

  RandomHierarchyParams Params;
  Params.NumClasses = static_cast<uint32_t>(R.nextInRange(4, 40));
  Params.MemberPool = static_cast<uint32_t>(R.nextInRange(3, 10));
  Params.StaticChance = 0.2;
  Params.UsingChance = 0.15;
  Workload W = makeRandomHierarchy(Params, R.next());
  const Hierarchy &H = W.H;

  // One case in eight serializes a cold snapshot (hierarchy only), so
  // the two-section geometry is fuzzed too.
  std::shared_ptr<const LookupTable> Table;
  if (!R.nextChance(1, 8))
    Table = LookupTable::build(H, Deadline::never(), /*Threads=*/1);
  std::string Pristine = serializeSnapshot(/*Epoch=*/1 + (Seed & 0xff), H,
                                           Table.get());
  Result.BytesSerialized = Pristine.size();

  // Round 0: the unmutated buffer must round-trip exactly.
  ++Result.RoundsRun;
  {
    Expected<SnapshotPayload> Loaded = deserializeSnapshot(Pristine, Budget);
    if (!Loaded) {
      Result.Mismatches.push_back("pristine buffer rejected: " +
                                  Loaded.status().toString());
    } else {
      ++Result.RoundsLoaded;
      if (Loaded->Epoch != 1 + (Seed & 0xff))
        Result.Mismatches.push_back("round trip changed the epoch");
      if (Loaded->H->numClasses() != H.numClasses())
        Result.Mismatches.push_back("round trip changed the class count");
      if ((Loaded->Table != nullptr) != (Table != nullptr))
        Result.Mismatches.push_back("round trip changed table presence");
      if (Loaded->Table && Table)
        Result.PairsChecked += diffTables(*Loaded->H, *Loaded->Table, H,
                                          *Table, "round-trip",
                                          Result.Mismatches);
    }
  }

  uint64_t NumRounds = R.nextInRange(6, 12);
  for (uint64_t Round = 0; Round != NumRounds; ++Round) {
    ++Result.RoundsRun;
    std::string B = Pristine;
    auto Op = static_cast<MutationOp>(
        R.nextBelow(static_cast<uint64_t>(MutationOp::NumOps)));
    if (!applyMutation(R, Op, B))
      flipBit(R, B); // fallback keeps every round a real mutation

    // Half the payload-content rounds reseal, pushing the corruption
    // past the checksum gate into the structural validators. Geometry
    // mutations stay unsealed (resealing a lying section table would
    // checksum the lie, which is exactly what an attacker would do -
    // CorruptLengthField covers that by NOT being eligible here).
    bool Resealed = false;
    if ((Op == MutationOp::FlipBit || Op == MutationOp::ZeroRange ||
         Op == MutationOp::DuplicateRange || Op == MutationOp::SwapSections) &&
        R.nextChance(1, 2))
      Resealed = resealSnapshotChecksums(B).isOk();

    Expected<SnapshotPayload> Loaded = deserializeSnapshot(B, Budget);
    if (!Loaded) {
      if (!isRecoverableLoadFailure(Loaded.status().code())) {
        Result.Mismatches.push_back(
            std::string(mutationName(Op)) +
            ": rejected with a non-snapshot error: " +
            Loaded.status().toString());
      }
      ++Result.RoundsRejected;
      continue;
    }
    ++Result.RoundsLoaded;

    if (!Resealed && B != Pristine) {
      // Every byte sits under a CRC and the geometry is cross-checked,
      // so an unsealed change that still loads means a validation hole.
      Result.Mismatches.push_back(std::string(mutationName(Op)) +
                                  ": unsealed mutation was accepted");
      continue;
    }

    // A resealed file may describe a different but valid snapshot; what
    // it must never do is decode into a table that answers differently
    // from a fresh tabulation over its own hierarchy.
    if (Loaded->Table) {
      std::shared_ptr<const LookupTable> Oracle =
          LookupTable::build(*Loaded->H, Deadline::never(), /*Threads=*/1);
      Result.PairsChecked +=
          diffTables(*Loaded->H, *Loaded->Table, *Loaded->H, *Oracle,
                     mutationName(Op), Result.Mismatches);
    }
  }
  return Result;
}

SnapshotFuzzCampaignReport
memlook::service::runSnapshotFuzzCampaign(uint64_t FirstSeed,
                                          uint64_t NumCases,
                                          const ResourceBudget &Budget) {
  SnapshotFuzzCampaignReport Report;
  for (uint64_t Idx = 0; Idx != NumCases; ++Idx) {
    SnapshotFuzzCaseResult Case = runSnapshotFuzzCase(FirstSeed + Idx, Budget);
    ++Report.CasesRun;
    Report.RoundsRun += Case.RoundsRun;
    Report.RoundsRejected += Case.RoundsRejected;
    Report.RoundsLoaded += Case.RoundsLoaded;
    Report.PairsChecked += Case.PairsChecked;
    if (!Case.passed())
      Report.Failures.push_back(std::move(Case));
  }
  return Report;
}
