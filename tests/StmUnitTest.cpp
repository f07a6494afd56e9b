//===- tests/StmUnitTest.cpp - STM substrate unit tests --------------------===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Unit tests for the shared STM substrate: the lock-table mapping of
// Figure 1, global clocks, pointer-stable logs, the lazy-write-set map,
// transactional memory management and the word/field helpers.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include "stm/RetiredPool.h"
#include "stm/StableLog.h"
#include "stm/TxMemory.h"
#include "stm/Word.h"
#include "stm/WriteMap.h"
#include "stm/core/Clock.h"
#include "stm/core/LockTable.h"
#include "stm/core/VersionedLock.h"
#include "stm/rstm/Rstm.h"
#include "stm/swisstm/SwissTm.h"
#include "stm/tinystm/TinyStm.h"
#include "stm/tl2/Tl2.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace stm;

namespace {

//===----------------------------------------------------------------------===//
// Word helpers
//===----------------------------------------------------------------------===//

TEST(WordTest, AlignmentHelpers) {
  alignas(8) unsigned char Buf[16] = {};
  EXPECT_TRUE(isWordAligned(Buf));
  EXPECT_FALSE(isWordAligned(Buf + 1));
  EXPECT_EQ(alignToWord(Buf + 3), reinterpret_cast<Word *>(Buf));
  EXPECT_EQ(alignToWord(Buf + 8), reinterpret_cast<Word *>(Buf + 8));
}

TEST(WordTest, ToFromWordRoundTrip) {
  EXPECT_EQ(fromWord<double>(toWord(2.5)), 2.5);
  EXPECT_EQ(fromWord<int32_t>(toWord(int32_t{-7})), -7);
  EXPECT_EQ(fromWord<uint8_t>(toWord(uint8_t{255})), 255);
  float F = 1.25f;
  EXPECT_EQ(fromWord<float>(toWord(F)), F);
}

//===----------------------------------------------------------------------===//
// Lock table (Figure 1)
//===----------------------------------------------------------------------===//

struct DummyEntry {
  std::uint64_t Tag = 0;
};

class LockTableGranularity : public ::testing::TestWithParam<unsigned> {};

TEST_P(LockTableGranularity, StripeNeighborsShareEntry) {
  unsigned Gran = GetParam();
  LockTable<DummyEntry> Table;
  Table.init(/*SizeLog2=*/10, Gran);
  alignas(4096) static unsigned char Arena[8192];
  uint64_t Stripe = uint64_t(1) << Gran;
  // All bytes inside one stripe map to the same entry...
  for (uint64_t Base = 0; Base + Stripe <= sizeof(Arena); Base += Stripe) {
    uint64_t First = Table.indexFor(Arena + Base);
    for (uint64_t Off = 1; Off < Stripe; ++Off)
      ASSERT_EQ(Table.indexFor(Arena + Base + Off), First);
  }
  // ...and adjacent stripes map to different entries (no collision for
  // adjacent addresses while the table is big enough).
  for (uint64_t Base = 0; Base + 2 * Stripe <= sizeof(Arena); Base += Stripe)
    ASSERT_NE(Table.indexFor(Arena + Base),
              Table.indexFor(Arena + Base + Stripe));
  Table.destroy();
}

INSTANTIATE_TEST_SUITE_P(AllGranularities, LockTableGranularity,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(LockTableTest, IndexStaysInRange) {
  LockTable<DummyEntry> Table;
  Table.init(6, 4);
  repro::Xorshift Rng(repro::testSeed(3));
  for (int I = 0; I < 10000; ++I) {
    auto Addr = reinterpret_cast<const void *>(Rng.next());
    EXPECT_LT(Table.indexFor(Addr), Table.size());
  }
  Table.destroy();
}

TEST(LockTableTest, SizeAndStripeBytes) {
  LockTable<DummyEntry> Table;
  Table.init(8, 5);
  EXPECT_EQ(Table.size(), 256u);
  EXPECT_EQ(Table.stripeBytes(), 32u);
  EXPECT_TRUE(Table.isInitialized());
  Table.destroy();
  EXPECT_FALSE(Table.isInitialized());
}

//===----------------------------------------------------------------------===//
// Clocks
//===----------------------------------------------------------------------===//

TEST(ClockTest, IncrementAndGetIsSequential) {
  GlobalClock Clock;
  EXPECT_EQ(Clock.load(), 0u);
  EXPECT_EQ(Clock.incrementAndGet(), 1u);
  EXPECT_EQ(Clock.incrementAndGet(), 2u);
  EXPECT_EQ(Clock.load(), 2u);
  Clock.reset();
  EXPECT_EQ(Clock.load(), 0u);
}

TEST(ClockTest, ClockKindNamesAndParseRoundTrip) {
  EXPECT_STREQ(clockKindName(ClockKind::Gv1), "gv1");
  EXPECT_STREQ(clockKindName(ClockKind::Gv4), "gv4");
  EXPECT_STREQ(clockKindName(ClockKind::Gv5), "gv5");
  for (ClockKind Kind : {ClockKind::Gv1, ClockKind::Gv4, ClockKind::Gv5}) {
    ClockKind Out = ClockKind::Gv1;
    EXPECT_TRUE(parseClockKind(clockKindName(Kind), Out));
    EXPECT_EQ(Out, Kind);
  }
  ClockKind Out = ClockKind::Gv1;
  EXPECT_FALSE(parseClockKind("gv2", Out));
  EXPECT_FALSE(parseClockKind("", Out));
}

TEST(ClockTest, Gv1StampsAreUniqueFreshAndOwned) {
  GlobalClock Clock;
  Clock.reset(ClockKind::Gv1);
  CommitStamp S1 = Clock.commitStamp();
  CommitStamp S2 = Clock.commitStamp();
  EXPECT_EQ(S1.Ts, 1u);
  EXPECT_TRUE(S1.Owned);
  EXPECT_EQ(S2.Ts, 2u);
  EXPECT_TRUE(S2.Owned);
  EXPECT_EQ(Clock.load(), 2u);
}

TEST(ClockTest, Gv4UncontendedStampsMatchGv1) {
  GlobalClock Clock;
  Clock.reset(ClockKind::Gv4);
  // Without a concurrent winner the CAS succeeds: same unique, owned
  // sequence as gv1 (which is why gv4 cannot regress at one thread).
  for (uint64_t I = 1; I <= 4; ++I) {
    CommitStamp S = Clock.commitStamp();
    EXPECT_EQ(S.Ts, I);
    EXPECT_TRUE(S.Owned);
  }
  EXPECT_EQ(Clock.load(), 4u);
}

TEST(ClockTest, Gv4ContendedLosersAdoptAWinnersStamp) {
  GlobalClock Clock;
  Clock.reset(ClockKind::Gv4);
  constexpr unsigned Threads = 8, PerThread = 2000;
  std::vector<std::vector<CommitStamp>> Seen(Threads);
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([&, I] {
      for (unsigned K = 0; K < PerThread; ++K)
        Seen[I].push_back(Clock.commitStamp());
    });
  for (auto &W : Workers)
    W.join();

  // Owned stamps are exactly the clock's value sequence: unique, and
  // their count is the final clock value. Every adopted stamp names a
  // timestamp some winner owned (pass-on-failure), never a fresh one.
  std::set<uint64_t> OwnedTs;
  std::vector<uint64_t> Adopted;
  for (auto &V : Seen)
    for (const CommitStamp &S : V) {
      EXPECT_GE(S.Ts, 1u);
      if (S.Owned)
        EXPECT_TRUE(OwnedTs.insert(S.Ts).second)
            << "two owned stamps shared timestamp " << S.Ts;
      else
        Adopted.push_back(S.Ts);
    }
  EXPECT_EQ(OwnedTs.size(), Clock.load());
  for (uint64_t Ts : Adopted)
    EXPECT_TRUE(OwnedTs.count(Ts)) << "adopted orphan timestamp " << Ts;
}

TEST(ClockTest, Gv5CommitDefersReadersAdvance) {
  GlobalClock Clock;
  Clock.reset(ClockKind::Gv5);
  // Commits publish ts+1 without touching the counter...
  CommitStamp S1 = Clock.commitStamp();
  EXPECT_EQ(S1.Ts, 1u);
  EXPECT_FALSE(S1.Owned);
  EXPECT_EQ(Clock.load(), 0u);
  CommitStamp S2 = Clock.commitStamp();
  EXPECT_EQ(S2.Ts, 1u) << "deferred stamps may repeat";
  // ...readers drag it forward on a validation miss...
  EXPECT_EQ(Clock.observe(/*Seen=*/1), 1u);
  EXPECT_EQ(Clock.load(), 1u);
  EXPECT_EQ(Clock.commitStamp().Ts, 2u);
  // ...and a stamp must dominate the versions it re-releases, so
  // per-stripe versions stay strictly monotone despite the lag.
  EXPECT_EQ(Clock.commitStamp(/*MaxOverwritten=*/9).Ts, 10u);
  // The abort-path hook advances too (TL2 has no extension).
  Clock.noteStaleRead(12);
  EXPECT_EQ(Clock.load(), 12u);
}

TEST(ClockTest, AdvanceToIsMonotoneMax) {
  GlobalClock Clock;
  Clock.reset(ClockKind::Gv5);
  EXPECT_EQ(Clock.advanceTo(5), 5u);
  EXPECT_EQ(Clock.advanceTo(3), 5u) << "advanceTo must never move back";
  EXPECT_EQ(Clock.load(), 5u);
  // gv1/gv4 observe is a plain sample (their clock never lags a
  // released version); only gv5 folds Seen in.
  GlobalClock G1;
  G1.reset(ClockKind::Gv1);
  EXPECT_EQ(G1.observe(100), 0u);
  G1.reset(ClockKind::Gv4);
  EXPECT_EQ(G1.observe(100), 0u);
}

/// RSTM validates by equality and never calls observe(), so under gv5
/// its commits must publish their stamps to the counter themselves —
/// otherwise every transaction publishes start-ts 0 forever and the
/// timestamp-quiescence reclaimers (TxMemory/RetiredPool) can never
/// free a retired block while the thread lives.
TEST(ClockTest, RstmGv5CommitsPublishStampsForReclamation) {
  StmConfig Config;
  Config.LockTableSizeLog2 = 16;
  Config.Clock = ClockKind::Gv5;
  Rstm::globalInit(Config);
  {
    ThreadScope<Rstm> Scope;
    auto &Tx = Scope.tx();
    alignas(64) static Word X;
    X = 0;
    constexpr unsigned Commits = 10;
    for (unsigned I = 0; I < Commits; ++I)
      atomically(Tx, [](auto &T) { T.store(&X, T.load(&X) + 1); });
    EXPECT_GE(Rstm::globals().CommitCounter.load(), uint64_t(Commits))
        << "gv5 update commits left the counter behind — the "
        << "reclamation horizon would never advance";
  }
  Rstm::globalShutdown();
}

/// Aborts the process if the guarded scope is still running after
/// \p Seconds, so a livelock regression fails fast instead of hanging
/// the suite until the ctest timeout.
class Watchdog {
public:
  Watchdog(unsigned Seconds, const char *What)
      : Thread([this, Seconds, What] {
          std::unique_lock<std::mutex> Lock(Mu);
          if (!Cv.wait_for(Lock, std::chrono::seconds(Seconds),
                           [this] { return Done; })) {
            std::fprintf(stderr, "watchdog: %s still running after %u s\n",
                         What, Seconds);
            std::abort();
          }
        }) {}
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Done = true;
    }
    Cv.notify_all();
    Thread.join();
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  std::thread Thread; // last: starts once the members above exist
};

/// An RSTM transaction that stores one word of a stripe and then loads
/// another word of the same stripe reads a stripe it owns (eager
/// acquire) or is about to own (lazy). Alone, it must commit on its
/// first attempt under every clock policy and variant. Under gv4, gv5
/// and gvshard RSTM always validates at commit, after raising its own
/// committing tag; a read entry logged as "owned by me" would then fail
/// every attempt and livelock the thread — hence the watchdog.
TEST(RstmOwnStripeTest, StoreThenLoadSameStripeCommitsFirstTime) {
  Watchdog Guard(30, "RstmOwnStripeTest");
  alignas(16) static Word Cells[2];
  for (ClockKind Kind : allClockKinds()) {
    for (bool Eager : {true, false}) {
      for (bool Visible : {false, true}) {
        SCOPED_TRACE(std::string(clockKindName(Kind)) +
                     (Eager ? " eager" : " lazy") +
                     (Visible ? " visible" : " invisible"));
        StmConfig Config;
        Config.LockTableSizeLog2 = 16;
        Config.GranularityLog2 = 4; // 16-byte stripes: both cells share one
        Config.Clock = Kind;
        Config.RstmEagerAcquire = Eager;
        Config.RstmVisibleReads = Visible;
        Rstm::globalInit(Config);
        ASSERT_EQ(Rstm::globals().Table.indexFor(&Cells[0]),
                  Rstm::globals().Table.indexFor(&Cells[1]));
        {
          ThreadScope<Rstm> Scope;
          auto &Tx = Scope.tx();
          Cells[0] = 0;
          Cells[1] = 7;
          Word Seen = 0;
          atomically(Tx, [&](auto &T) {
            T.store(&Cells[0], 1);
            Seen = T.load(&Cells[1]);
          });
          EXPECT_EQ(7u, Seen);
          EXPECT_EQ(1u, Cells[0]);
          EXPECT_EQ(1u, Tx.stats().Commits);
          EXPECT_EQ(0u, Tx.stats().Aborts);
        }
        Rstm::globalShutdown();
      }
    }
  }
}

TEST(ClockTest, ConcurrentIncrementsAreUnique) {
  GlobalClock Clock;
  constexpr unsigned Threads = 8, PerThread = 2000;
  std::vector<std::vector<uint64_t>> Seen(Threads);
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([&, I] {
      for (unsigned K = 0; K < PerThread; ++K)
        Seen[I].push_back(Clock.incrementAndGet());
    });
  for (auto &W : Workers)
    W.join();
  std::set<uint64_t> All;
  for (auto &V : Seen)
    All.insert(V.begin(), V.end());
  EXPECT_EQ(All.size(), Threads * PerThread);
  EXPECT_EQ(*All.rbegin(), Threads * PerThread);
}

//===----------------------------------------------------------------------===//
// StableLog
//===----------------------------------------------------------------------===//

TEST(StableLogTest, AddressesStableAcrossGrowth) {
  StableLog<int, 4> Log; // tiny chunks force many allocations
  std::vector<int *> Ptrs;
  for (int I = 0; I < 100; ++I)
    Ptrs.push_back(Log.push(I));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(*Ptrs[I], I) << "entry moved during growth";
  EXPECT_EQ(Log.size(), 100u);
}

TEST(StableLogTest, ClearKeepsCapacityAndResets) {
  StableLog<int, 8> Log;
  for (int I = 0; I < 20; ++I)
    Log.push(I);
  Log.clear();
  EXPECT_TRUE(Log.empty());
  int *P = Log.push(42);
  EXPECT_EQ(*P, 42);
  EXPECT_EQ(Log.size(), 1u);
}

TEST(StableLogTest, PopBackWithdrawsLastEntry) {
  StableLog<int, 8> Log;
  Log.push(1);
  Log.push(2);
  Log.popBack();
  EXPECT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0], 1);
}

TEST(StableLogTest, ForEachVisitsInsertionOrder) {
  StableLog<int, 4> Log;
  for (int I = 0; I < 10; ++I)
    Log.push(I);
  int Expect = 0;
  Log.forEach([&](int V) { EXPECT_EQ(V, Expect++); });
  EXPECT_EQ(Expect, 10);
  Log.forEachReverse([&](int V) { EXPECT_EQ(V, --Expect); });
}

//===----------------------------------------------------------------------===//
// WriteMap
//===----------------------------------------------------------------------===//

TEST(WriteMapTest, InsertLookupOverwrite) {
  WriteMap Map;
  alignas(8) Word Cells[8] = {};
  EXPECT_EQ(Map.lookup(&Cells[0]), ~0u);
  Map.insert(&Cells[0], 7);
  EXPECT_EQ(Map.lookup(&Cells[0]), 7u);
  Map.insert(&Cells[0], 9);
  EXPECT_EQ(Map.lookup(&Cells[0]), 9u);
  EXPECT_EQ(Map.size(), 1u);
}

TEST(WriteMapTest, ClearThenReuse) {
  // Regression test: clear() must reset slots to the empty (null-key)
  // state; a bad fill pattern once made every post-clear lookup spin.
  WriteMap Map;
  alignas(8) Word Cells[4] = {};
  Map.insert(&Cells[0], 1);
  Map.clear();
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(Map.lookup(&Cells[0]), ~0u);
  Map.insert(&Cells[1], 2); // must terminate and work after clear
  EXPECT_EQ(Map.lookup(&Cells[1]), 2u);
  EXPECT_EQ(Map.lookup(&Cells[0]), ~0u);
}

TEST(WriteMapTest, GrowsPastInitialCapacity) {
  WriteMap Map;
  std::vector<Word> Cells(4096, 0);
  for (uint32_t I = 0; I < 4096; ++I)
    Map.insert(&Cells[I], I);
  EXPECT_EQ(Map.size(), 4096u);
  for (uint32_t I = 0; I < 4096; ++I)
    ASSERT_EQ(Map.lookup(&Cells[I]), I);
}

TEST(WriteMapTest, OverwritesNeverTriggerRehash) {
  // Regression test: the load-factor check used to run before probing,
  // so overwriting an existing key counted as a new insertion and a map
  // sitting exactly at the growth threshold rehashed spuriously on
  // every overwrite. Capacity must be a function of distinct keys only.
  WriteMap Map;
  const std::size_t InitialCapacity = Map.capacity();
  // Fill to one genuine insertion below the 3/4 growth threshold.
  const std::size_t AtThreshold = (InitialCapacity * 3) / 4 - 1;
  std::vector<Word> Cells(AtThreshold + 1, 0);
  for (uint32_t I = 0; I < AtThreshold; ++I)
    Map.insert(&Cells[I], I);
  ASSERT_EQ(Map.capacity(), InitialCapacity)
      << "grew before the load factor was reached";
  // Overwrite every present key repeatedly: size and capacity stable.
  for (int Round = 0; Round < 10; ++Round)
    for (uint32_t I = 0; I < AtThreshold; ++I)
      Map.insert(&Cells[I], I + 1000 * Round);
  EXPECT_EQ(Map.capacity(), InitialCapacity)
      << "overwrites were counted as insertions";
  EXPECT_EQ(Map.size(), AtThreshold);
  // The next genuine insertion crosses the threshold and grows once,
  // preserving every entry.
  Map.insert(&Cells[AtThreshold], 7);
  EXPECT_GT(Map.capacity(), InitialCapacity);
  EXPECT_EQ(Map.size(), AtThreshold + 1);
  EXPECT_EQ(Map.lookup(&Cells[AtThreshold]), 7u);
  for (uint32_t I = 0; I < AtThreshold; ++I)
    ASSERT_EQ(Map.lookup(&Cells[I]), I + 9000);
}

TEST(WriteMapTest, BloomNegativeFastPath) {
  WriteMap Map;
  alignas(8) Word A = 0;
  EXPECT_FALSE(Map.mayContain(&A));
  Map.insert(&A, 1);
  EXPECT_TRUE(Map.mayContain(&A));
}

//===----------------------------------------------------------------------===//
// TxMemory + RetiredPool (quiescence-based reclamation)
//===----------------------------------------------------------------------===//

TEST(TxMemoryTest, AbortFreesAllocations) {
  TxMemory Mem;
  void *P = Mem.txMalloc(64);
  EXPECT_NE(P, nullptr);
  Mem.onAbort(); // must free P (checked under ASan); no crash here
}

TEST(TxMemoryTest, CommitRetiresFreesAndHonorsHorizon) {
  unsigned Slot = repro::ThreadRegistry::acquireSlot();
  TxMemory Mem;
  void *P = std::malloc(32);
  Mem.txFree(P);
  // A transaction "older" than the retirement blocks reclamation.
  repro::ThreadRegistry::publishStart(Slot, 5);
  Mem.onCommit(/*CommitTs=*/10);
  EXPECT_EQ(Mem.retiredCount(), 1u);
  EXPECT_EQ(Mem.collect(), 0u) << "active tx at ts 5 blocks block@10";
  // Once the old transaction finishes and a newer one starts, the
  // horizon passes the retirement timestamp.
  repro::ThreadRegistry::publishStart(Slot, 11);
  EXPECT_EQ(Mem.collect(), 1u);
  EXPECT_EQ(Mem.retiredCount(), 0u);
  repro::ThreadRegistry::publishIdle(Slot);
  repro::ThreadRegistry::releaseSlot(Slot);
}

TEST(TxMemoryTest, AbortForgetsDeferredFrees) {
  TxMemory Mem;
  void *P = std::malloc(16);
  Mem.txFree(P);
  Mem.onAbort();
  EXPECT_EQ(Mem.retiredCount(), 0u) << "aborted tx must not free";
  std::free(P); // still ours
}

TEST(RetiredPoolTest, CollectRespectsHorizon) {
  unsigned Slot = repro::ThreadRegistry::acquireSlot();
  RetiredPool &Pool = RetiredPool::instance();
  Pool.releaseAll();
  Pool.add(std::malloc(8), /*RetireTs=*/100);
  repro::ThreadRegistry::publishStart(Slot, 50);
  EXPECT_EQ(Pool.collect(), 0u);
  EXPECT_EQ(Pool.size(), 1u);
  repro::ThreadRegistry::publishStart(Slot, 200);
  EXPECT_EQ(Pool.collect(), 1u);
  EXPECT_EQ(Pool.size(), 0u);
  repro::ThreadRegistry::publishIdle(Slot);
  repro::ThreadRegistry::releaseSlot(Slot);
}

//===----------------------------------------------------------------------===//
// Lock-word encodings
//===----------------------------------------------------------------------===//

TEST(SwissLockTest, RLockEncoding) {
  using namespace stm::swiss;
  EXPECT_FALSE(rlockIsLocked(rlockMake(0)));
  EXPECT_FALSE(rlockIsLocked(rlockMake(123456)));
  EXPECT_TRUE(rlockIsLocked(RLockLocked));
  EXPECT_EQ(rlockVersion(rlockMake(987)), 987u);
}

TEST(Tl2LockTest, VersionedLockEncoding) {
  using namespace stm::tl2;
  EXPECT_FALSE(vlockIsLocked(vlockMake(0)));
  EXPECT_FALSE(vlockIsLocked(vlockMake(42)));
  EXPECT_EQ(vlockVersion(vlockMake(42)), 42u);
  alignas(8) int Dummy;
  Word Locked = reinterpret_cast<Word>(&Dummy) | 1;
  EXPECT_TRUE(vlockIsLocked(Locked));
}

TEST(TinyLockTest, EntryPointerRoundTrip) {
  using namespace stm::tiny;
  alignas(8) StripeWrite Entry;
  Word Locked = reinterpret_cast<Word>(&Entry) | 1;
  EXPECT_TRUE(vlockIsLocked(Locked));
  EXPECT_EQ(vlockEntry(Locked), &Entry);
}

/// Version-field wrap boundary: the largest representable version must
/// round-trip exactly through every encoding in use (1 tag bit for
/// SwissTM/TL2/TinySTM, 2 for RSTM) — one bit of silent truncation
/// would alias a fresh commit timestamp onto an ancient version and let
/// stale reads pass validation.
TEST(VersionedLockBoundaryTest, MaxVersionRoundTripsPerTagWidth) {
  using Ops1 = core::VersionedLockOps<1>;
  using Ops2 = core::VersionedLockOps<2>;
  static_assert(Ops1::MaxVersion == (~Word(0) >> 1));
  static_assert(Ops2::MaxVersion == (~Word(0) >> 2));
  for (uint64_t V : {uint64_t(0), Ops1::MaxVersion - 1, Ops1::MaxVersion}) {
    Word W = Ops1::make(V);
    EXPECT_FALSE(Ops1::isLocked(W));
    EXPECT_EQ(Ops1::version(W), V);
  }
  for (uint64_t V : {uint64_t(0), Ops2::MaxVersion - 1, Ops2::MaxVersion}) {
    Word W = Ops2::make(V);
    EXPECT_FALSE(Ops2::isLocked(W));
    EXPECT_EQ(Ops2::version(W), V);
  }
  // One past the boundary differs from the aliased encoding it would
  // silently collapse onto — the case the guard below aborts on.
  EXPECT_NE(Ops1::MaxVersion + 1, Ops1::version(Ops1::make(0)) + 1);
}

/// A clock value exceeding the representable version range must abort
/// loudly in every build mode, never alias.
TEST(VersionedLockDeathTest, OverflowingVersionAbortsLoudly) {
  using Ops1 = core::VersionedLockOps<1>;
  using Ops2 = core::VersionedLockOps<2>;
  EXPECT_DEATH((void)Ops1::make(Ops1::MaxVersion + 1),
               "exceeds the 63-bit version field");
  EXPECT_DEATH((void)Ops2::make(Ops2::MaxVersion + 1),
               "exceeds the 62-bit version field");
  EXPECT_DEATH((void)Ops1::make(~uint64_t(0)), "version field");
}

TEST(ConfigTest, CmKindNamesStable) {
  EXPECT_STREQ(cmKindName(CmKind::TwoPhase), "two-phase");
  EXPECT_STREQ(cmKindName(CmKind::Timid), "timid");
  EXPECT_STREQ(cmKindName(CmKind::Greedy), "greedy");
  EXPECT_STREQ(cmKindName(CmKind::Serializer), "serializer");
  EXPECT_STREQ(cmKindName(CmKind::Polka), "polka");
}

} // namespace
