//===- WalFuzz.cpp - Write-ahead-log fuzzing ---------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "fuzz/WalFuzz.h"

#include "memlook/core/DifferentialCheck.h"
#include "memlook/service/Snapshot.h"
#include "memlook/service/WriteAheadLog.h"
#include "memlook/support/Deadline.h"
#include "memlook/support/Rng.h"
#include "memlook/workload/Generators.h"

#include <algorithm>
#include <cstring>

using namespace memlook;
using namespace memlook::service;

namespace {

/// Record-header geometry, mirrored from the format comment in
/// WriteAheadLog.h so the structure-aware mutations can aim at fields.
constexpr size_t WalHeaderSize = 28;
constexpr size_t WalOffEpoch = 8;

bool isRecoverableSalvageStop(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::WalCorrupt:
  case ErrorCode::WalEpochSkew:
    return true;
  default:
    return false;
  }
}

std::string poolMember(Rng &R) { return "m" + std::to_string(R.nextBelow(8)); }

/// Ops that are valid by construction against \p H: a fresh class, an
/// edge from it to an existing class, and a member on it. Same shape as
/// the edit-script fuzzer's committed half, but built as a raw op
/// vector because this fuzzer encodes records directly rather than
/// driving a service.
std::vector<Transaction::Op> makeValidOps(Rng &R, const Hierarchy &H,
                                          uint64_t CaseTag, uint64_t TxnIdx) {
  std::vector<Transaction::Op> Ops;
  std::string Fresh =
      "Wal" + std::to_string(CaseTag) + "_" + std::to_string(TxnIdx);
  Ops.push_back(Transaction::Op{Transaction::OpKind::AddClass, Fresh, {}, {},
                                InheritanceKind::NonVirtual, AccessSpec::Public,
                                false, false});
  if (H.numClasses() != 0) {
    ClassId BaseId(static_cast<uint32_t>(R.nextBelow(H.numClasses())));
    Ops.push_back(Transaction::Op{
        Transaction::OpKind::AddBase, Fresh, std::string(H.className(BaseId)),
        {},
        R.nextChance(1, 3) ? InheritanceKind::Virtual
                           : InheritanceKind::NonVirtual,
        AccessSpec::Public, false, false});
  }
  Ops.push_back(Transaction::Op{Transaction::OpKind::AddMember, Fresh, {},
                                poolMember(R), InheritanceKind::NonVirtual,
                                AccessSpec::Public,
                                /*IsStatic=*/R.nextChance(1, 6),
                                /*IsVirtual=*/R.nextChance(1, 4)});
  return Ops;
}

/// Mutations over log bytes. The structure-aware ones use the record
/// boundaries of the pristine encoding; every op changes the buffer or
/// reports false so the caller can fall back to a bit flip.
enum class MutationOp : uint64_t {
  FlipBit = 0,
  TruncateTail,
  TornAppend,
  ZeroRange,
  DuplicateRecord,
  DropRecord,
  SwapRecords,
  RewriteEpoch,
  AppendJunk,
  NumOps,
};

const char *mutationName(MutationOp Op) {
  switch (Op) {
  case MutationOp::FlipBit:
    return "flip-bit";
  case MutationOp::TruncateTail:
    return "truncate-tail";
  case MutationOp::TornAppend:
    return "torn-append";
  case MutationOp::ZeroRange:
    return "zero-range";
  case MutationOp::DuplicateRecord:
    return "duplicate-record";
  case MutationOp::DropRecord:
    return "drop-record";
  case MutationOp::SwapRecords:
    return "swap-records";
  case MutationOp::RewriteEpoch:
    return "rewrite-epoch";
  case MutationOp::AppendJunk:
    return "append-junk";
  case MutationOp::NumOps:
    break;
  }
  return "?";
}

void flipBit(Rng &R, std::string &B) {
  size_t At = R.nextBelow(B.size());
  B[At] = static_cast<char>(B[At] ^ (1u << R.nextBelow(8)));
}

/// Context the structure-aware mutations need: the pristine per-record
/// encodings (index 0 is the base record) and a spare record beyond the
/// log's end for the torn-append simulation.
struct MutationPlan {
  const std::vector<std::string> &Encoded;
  const std::string &NextRecord;
};

size_t recordOffset(const MutationPlan &Plan, size_t Index) {
  size_t Off = 0;
  for (size_t I = 0; I != Index; ++I)
    Off += Plan.Encoded[I].size();
  return Off;
}

bool applyMutation(Rng &R, MutationOp Op, const MutationPlan &Plan,
                   std::string &B) {
  size_t NumRecords = Plan.Encoded.size();
  switch (Op) {
  case MutationOp::FlipBit:
    flipBit(R, B);
    return true;

  case MutationOp::TruncateTail:
    B.resize(R.nextBelow(B.size())); // always strictly shorter
    return true;

  case MutationOp::TornAppend: {
    // The exact artifact of a crash mid-append: a strict prefix of a
    // valid next record after a clean log. Salvage must drop precisely
    // these bytes and keep everything before them.
    if (Plan.NextRecord.size() < 2)
      return false;
    size_t Len = 1 + R.nextBelow(Plan.NextRecord.size() - 1);
    B.append(Plan.NextRecord, 0, Len);
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

  case MutationOp::DuplicateRecord: {
    // Splice a byte-identical copy of one record in at a record
    // boundary: every CRC still passes, so only the base-first rule and
    // the epoch chain can catch it.
    size_t From = R.nextBelow(NumRecords);
    size_t AtBoundary = R.nextBelow(NumRecords + 1);
    B.insert(recordOffset(Plan, AtBoundary), Plan.Encoded[From]);
    return true;
  }

  case MutationOp::DropRecord: {
    size_t At = R.nextBelow(NumRecords);
    B.erase(recordOffset(Plan, At), Plan.Encoded[At].size());
    return true;
  }

  case MutationOp::SwapRecords: {
    if (NumRecords < 3)
      return false; // needs two distinct transaction records
    size_t I = 1 + R.nextBelow(NumRecords - 1);
    size_t J = 1 + R.nextBelow(NumRecords - 1);
    if (I == J)
      J = 1 + (J % (NumRecords - 1));
    size_t Lo = std::min(I, J), Hi = std::max(I, J);
    std::string Rebuilt = B.substr(0, recordOffset(Plan, Lo));
    Rebuilt += Plan.Encoded[Hi];
    for (size_t K = Lo + 1; K != Hi; ++K)
      Rebuilt += Plan.Encoded[K];
    Rebuilt += Plan.Encoded[Lo];
    Rebuilt += B.substr(recordOffset(Plan, Hi) + Plan.Encoded[Hi].size());
    if (Rebuilt == B)
      return false; // identical records: swapping changed nothing
    B = std::move(Rebuilt);
    return true;
  }

  case MutationOp::RewriteEpoch: {
    size_t At = R.nextBelow(NumRecords);
    size_t Off = recordOffset(Plan, At) + WalOffEpoch;
    uint64_t Old;
    std::memcpy(&Old, B.data() + Off, 8);
    uint64_t Lie;
    switch (R.nextBelow(4)) {
    case 0:
      Lie = R.next();
      break;
    case 1:
      Lie = Old + 1;
      break;
    case 2:
      Lie = Old - 1;
      break;
    default:
      Lie = Old == 0 ? 1 : Old - Old % 2; // collide with a neighbour
      break;
    }
    if (Lie == Old)
      Lie = Old + 1;
    std::memcpy(B.data() + Off, &Lie, 8);
    return true;
  }

  case MutationOp::AppendJunk: {
    size_t Len = 1 + R.nextBelow(64);
    for (size_t I = 0; I != Len; ++I)
      B.push_back(static_cast<char>(R.nextBelow(256)));
    return true;
  }

  case MutationOp::NumOps:
    break;
  }
  return false;
}

/// Appends to \p Out any (class, member) answer where \p Table (over
/// \p H) disagrees with \p Oracle (over \p OracleH - a different
/// Hierarchy object describing the same classes, as after a replay).
/// The join key is the member spelling: Symbol ids are per-interner.
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
                      std::string(H.spelling(M)) + ": replayed table says '" +
                      Got + "' but the direct chain says '" + Want + "'");
    }
  }
  return Pairs;
}

} // namespace

WalFuzzCaseResult
memlook::service::runWalFuzzCase(uint64_t Seed, const ResourceBudget &Budget) {
  WalFuzzCaseResult Result;
  Result.Seed = Seed;

  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0x3a17);

  RandomHierarchyParams Params;
  Params.NumClasses = static_cast<uint32_t>(R.nextInRange(4, 16));
  Params.MemberPool = 6;
  Params.UsingChance = 0.1;
  Workload W = makeRandomHierarchy(Params, R.next());

  // The committed chain the log describes: States[K] is the hierarchy
  // after K transactions; Encoded[0] is the base record, Encoded[K] the
  // record of the commit producing States[K].
  uint64_t BaseEpoch = 1 + (Seed & 0x7);
  uint64_t CaseTag = Seed & 0xffff;
  std::vector<Hierarchy> States;
  States.push_back(std::move(W.H));

  std::vector<std::string> Encoded;
  Encoded.push_back(
      encodeWalBaseRecord(BaseEpoch, hierarchyFingerprint(States[0])));

  uint64_t NumTxns = R.nextInRange(2, 5);
  for (uint64_t K = 0; K != NumTxns; ++K) {
    std::vector<Transaction::Op> Ops = makeValidOps(R, States.back(), CaseTag, K);
    Expected<Hierarchy> Next = applyEditScript(States.back(), Ops, Budget);
    if (!Next) {
      // makeValidOps is valid by construction; failure is a fuzzer bug.
      Result.Mismatches.push_back("generator script rejected: " +
                                  Next.status().toString());
      return Result;
    }
    Encoded.push_back(encodeWalTxnRecord(BaseEpoch + K + 1, Ops));
    States.push_back(std::move(*Next));
  }

  std::string Pristine;
  for (const std::string &Rec : Encoded)
    Pristine += Rec;
  Result.BytesEncoded = Pristine.size();

  const uint32_t BaseFingerprint = hierarchyFingerprint(States[0]);
  const std::string NextRecord = encodeWalTxnRecord(
      BaseEpoch + NumTxns + 1, makeValidOps(R, States.back(), CaseTag, NumTxns));
  MutationPlan Plan{Encoded, NextRecord};

  // Checks one salvage against the known chain. Pristine expectations
  // (full clean salvage) are asserted only for Round 0; every round
  // gets the structural, prefix, and replay oracles.
  auto checkSalvage = [&](const std::string &B, const WalSalvage &S,
                          const char *What, bool Resealed, bool IsPristine) {
    auto fail = [&](std::string Msg) {
      if (Result.Mismatches.size() < 8)
        Result.Mismatches.push_back(std::string(What) + ": " + std::move(Msg));
    };

    // Status discipline: salvage only ever stops with a recoverable
    // WAL status.
    if (!S.Error.isOk() && !isRecoverableSalvageStop(S.Error.code()))
      fail("salvage stopped with a non-WAL error: " + S.Error.toString());

    // Accounting: the clean prefix fits the buffer, and a clean scan
    // explains every byte as either salvaged or torn.
    if (S.CleanBytes > B.size())
      fail("clean prefix longer than the buffer");
    if (S.Error.isOk() && S.CleanBytes + S.TornBytesDropped != B.size())
      fail("clean scan did not account for every byte");
    if (!S.HasBase && !S.Records.empty())
      fail("salvaged transaction records without a base record");
    for (size_t I = 0; I != S.Records.size(); ++I)
      if (S.Records[I].Epoch != S.BaseEpoch + I + 1)
        fail("salvaged epochs are not contiguous");

    // Unsealed mutations never forge history: whatever salvages must be
    // byte-identical to the record originally at its position.
    if (!Resealed) {
      if (S.HasBase &&
          (S.BaseEpoch != BaseEpoch || S.BaseFingerprint != BaseFingerprint))
        fail("unsealed mutation changed the salvaged base record");
      if (S.Records.size() > NumTxns)
        fail("salvaged more records than were ever appended");
      for (size_t I = 0;
           I != S.Records.size() && Result.Mismatches.size() < 8; ++I) {
        std::string Reencoded =
            encodeWalTxnRecord(S.Records[I].Epoch, S.Records[I].Ops);
        if (I + 1 >= Encoded.size() || Reencoded != Encoded[I + 1])
          fail("salvaged record " + std::to_string(I) +
               " is not the record originally at that position");
      }
    }
    if (IsPristine) {
      if (!S.Error.isOk())
        fail("pristine log rejected: " + S.Error.toString());
      if (S.TornBytesDropped != 0)
        fail("pristine log reported a torn tail");
      if (!S.HasBase || S.Records.size() != NumTxns)
        fail("pristine log did not salvage completely");
    }

    // Whatever salvages, replays safely. Only a log claiming this
    // lineage (same base epoch and fingerprint) is eligible; recovery
    // refuses to replay any other onto this state.
    if (!S.HasBase || S.BaseEpoch != BaseEpoch ||
        S.BaseFingerprint != BaseFingerprint)
      return;
    const Hierarchy *Cur = &States[0];
    Hierarchy Replayed;
    bool AllApplied = true;
    bool MatchesChain = !Resealed; // byte-equal prefix, checked above
    for (const WalRecord &Rec : S.Records) {
      Expected<Hierarchy> Next = applyEditScript(*Cur, Rec.Ops, Budget);
      if (!Next) {
        // A mutated-but-resealed record may decode to an invalid
        // script; the engine refusing it is the safe outcome.
        AllApplied = false;
        break;
      }
      Replayed = std::move(*Next);
      Cur = &Replayed;
    }
    if (!AllApplied || S.Records.empty())
      return;
    if (MatchesChain) {
      // Byte-equal records must replay to the very hierarchy the direct
      // chain produced: encode -> salvage -> decode -> apply is lossless.
      const Hierarchy &Direct = States[S.Records.size()];
      if (hierarchyFingerprint(Replayed) != hierarchyFingerprint(Direct)) {
        fail("replayed chain fingerprint diverged from the direct chain");
        return;
      }
      auto ReplayTable =
          LookupTable::build(Replayed, Deadline::never(), /*Threads=*/1);
      auto DirectTable =
          LookupTable::build(Direct, Deadline::never(), /*Threads=*/1);
      Result.PairsChecked += diffTables(Replayed, *ReplayTable, Direct,
                                        *DirectTable, What, Result.Mismatches);
    } else {
      // A resealed log may describe a different but valid chain; its
      // replay must still be a hierarchy every engine agrees on.
      DifferentialReport Report = runDifferentialCheck(Replayed, Budget);
      Result.PairsChecked += Report.PairsChecked;
      for (const std::string &M : Report.Mismatches)
        if (Result.Mismatches.size() < 8)
          Result.Mismatches.push_back(std::string(What) +
                                      ": replayed hierarchy: " + M);
    }
  };

  // Round 0: the unmutated log must salvage completely and round-trip.
  ++Result.RoundsRun;
  {
    WalSalvage S = salvageWalBytes(Pristine);
    if (S.Error.isOk())
      ++Result.RoundsClean;
    else
      ++Result.RoundsRejected;
    Result.RecordsSalvaged += S.Records.size();
    checkSalvage(Pristine, S, "round-trip", /*Resealed=*/false,
                 /*IsPristine=*/true);
  }

  uint64_t NumRounds = R.nextInRange(8, 14);
  for (uint64_t Round = 0; Round != NumRounds; ++Round) {
    ++Result.RoundsRun;
    std::string B = Pristine;
    auto Op = static_cast<MutationOp>(
        R.nextBelow(static_cast<uint64_t>(MutationOp::NumOps)));
    if (!applyMutation(R, Op, Plan, B))
      flipBit(R, B); // fallback keeps every round a real mutation

    // Half the content rounds reseal, pushing the corruption past the
    // CRC rung into the base-first / epoch-chain / op-decoding
    // validators. The two crash-shaped mutations stay unsealed - they
    // model the artifacts a real interrupted writer leaves, which are
    // never resealed.
    bool Resealed = false;
    if (Op != MutationOp::TruncateTail && Op != MutationOp::TornAppend &&
        R.nextChance(1, 2)) {
      resealWalChecksums(B);
      Resealed = true;
    }

    WalSalvage S = salvageWalBytes(B);
    if (S.Error.isOk())
      ++Result.RoundsClean;
    else
      ++Result.RoundsRejected;
    Result.RecordsSalvaged += S.Records.size();
    checkSalvage(B, S, mutationName(Op), Resealed, /*IsPristine=*/false);
  }
  return Result;
}

WalFuzzCampaignReport
memlook::service::runWalFuzzCampaign(uint64_t FirstSeed, uint64_t NumCases,
                                     const ResourceBudget &Budget) {
  WalFuzzCampaignReport Report;
  for (uint64_t Idx = 0; Idx != NumCases; ++Idx) {
    WalFuzzCaseResult Case = runWalFuzzCase(FirstSeed + Idx, Budget);
    ++Report.CasesRun;
    Report.RoundsRun += Case.RoundsRun;
    Report.RoundsRejected += Case.RoundsRejected;
    Report.RoundsClean += Case.RoundsClean;
    Report.RecordsSalvaged += Case.RecordsSalvaged;
    Report.PairsChecked += Case.PairsChecked;
    if (!Case.passed())
      Report.Failures.push_back(std::move(Case));
  }
  return Report;
}
