//===- tests/ScheduleReplayTest.cpp - diag record/replay/enumerate -------===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Coverage for the stm/diag schedule-control engine:
//
//   * trace format and step derivation (any build);
//   * the enumerate driver walking every serialized schedule of a
//     synthetic two-thread history (any build — the engine API is
//     always compiled, only the backend hook *sites* are gated);
//   * record -> replay determinism on a contended mixed read/write
//     workload: the same step list replayed three times produces the
//     identical event log, commit/abort sequence, per-thread stats and
//     final memory image (STM_DIAG builds);
//   * regression schedules for previously fixed races, resurrected
//     through the diag::Inject knobs:
//       - enumeration catches an injected validation skip as a lost
//         update (and proves the honest path loses nothing);
//       - PR 1: the TinySTM/TL2 self-locked-stripe validation bug;
//       - PR 5: the RSTM retire-tag reclamation window, driven by a
//         hand-written schedule that parks the writer between its
//         commit stamp and write-back (the exact window the fix
//         closed), with a trace oracle over the replay log;
//       - RSTM commit order: a reader revalidating between a writer's
//         commit stamp and its committing flag commits over a stale
//         read (lost update), resurrected by Inject::RstmStampBeforeFlag;
//       - RSTM owner-word ABA: a writer's next transaction re-owning a
//         stripe restores the owned word an invisible reader logged,
//         and the reader's revalidation passes over the changed value.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include "stm/diag/Hooks.h"
#include "stm/diag/Schedule.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

using stm::diag::Event;
using stm::diag::HookKind;
using stm::diag::Schedule;
using stm::diag::Step;

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

/// Spawns \p N workers, each bound to logical diag tid I *before* it
/// attaches a runtime ThreadScope, and joins them. The harness's
/// runThreads cannot be used here: the diag binding must exist before
/// the first hook the scope's transactions fire.
template <typename Fn> void runBoundThreads(unsigned N, Fn &&Work) {
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&Work, I] {
      Schedule::ScopedThread Bind(I);
      stm::ThreadScope<repro_test::Rt> Scope;
      Work(I, Scope.tx());
    });
  for (std::thread &T : Threads)
    T.join();
}

/// RAII fault-injection toggle so a failing assertion cannot leak a
/// resurrected bug into later tests.
class InjectGuard {
public:
  explicit InjectGuard(stm::diag::Inject Knob) : Knob(Knob) {
    stm::diag::setInjected(Knob, true);
  }
  ~InjectGuard() { stm::diag::setInjected(Knob, false); }

private:
  stm::diag::Inject Knob;
};

std::string tempTracePath(const char *Tag) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "/tmp/stm-diag-%s-%d.trace", Tag,
                static_cast<int>(::getpid()));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Trace format (any build)
//===----------------------------------------------------------------------===//

TEST(DiagTraceTest, DumpLoadRoundTrip) {
  std::vector<Event> Trace;
  uint64_t Seq = 0;
  for (unsigned K = 0; K < stm::diag::NumHookKinds; ++K) {
    Event E;
    E.Seq = Seq++;
    E.Tid = K % 3;
    E.Slot = K;
    E.Kind = static_cast<HookKind>(K);
    E.Stripe = (K % 2 == 0) ? stm::diag::NoStripe : uint64_t(K) * 977;
    E.Aux = uint64_t(K) * 31 + 7;
    Trace.push_back(E);
  }

  std::string Path = tempTracePath("roundtrip");
  ASSERT_TRUE(Schedule::dumpTrace(Trace, Path.c_str()));
  std::vector<Event> Loaded;
  ASSERT_TRUE(Schedule::loadTrace(Path.c_str(), Loaded));
  std::remove(Path.c_str());

  ASSERT_EQ(Trace.size(), Loaded.size());
  for (std::size_t I = 0; I < Trace.size(); ++I) {
    EXPECT_EQ(Trace[I].Seq, Loaded[I].Seq) << "event " << I;
    EXPECT_EQ(Trace[I].Tid, Loaded[I].Tid) << "event " << I;
    EXPECT_EQ(Trace[I].Slot, Loaded[I].Slot) << "event " << I;
    EXPECT_EQ(Trace[I].Kind, Loaded[I].Kind) << "event " << I;
    EXPECT_EQ(Trace[I].Stripe, Loaded[I].Stripe) << "event " << I;
    EXPECT_EQ(Trace[I].Aux, Loaded[I].Aux) << "event " << I;
  }
}

TEST(DiagTraceTest, HookKindNamesRoundTrip) {
  for (unsigned K = 0; K < stm::diag::NumHookKinds; ++K) {
    HookKind Kind = static_cast<HookKind>(K);
    HookKind Parsed;
    ASSERT_TRUE(stm::diag::parseHookKind(stm::diag::hookKindName(Kind),
                                         Parsed));
    EXPECT_EQ(Kind, Parsed);
  }
  HookKind Unused;
  EXPECT_FALSE(stm::diag::parseHookKind("not-a-hook", Unused));
}

TEST(DiagTraceTest, StepsFromEventsMatchExactly) {
  std::vector<Event> Trace;
  Trace.push_back({0, 1, 9, HookKind::Read, 42, 5});
  Trace.push_back({1, 0, 3, HookKind::Commit, stm::diag::NoStripe, 17});

  std::vector<Step> Steps = Schedule::stepsFromEvents(Trace);
  ASSERT_EQ(2u, Steps.size());
  EXPECT_EQ(1u, Steps[0].Tid);
  EXPECT_EQ(HookKind::Read, Steps[0].Kind);
  EXPECT_FALSE(Steps[0].AnyKind);
  EXPECT_EQ(42u, Steps[0].Stripe);
  EXPECT_EQ(0u, Steps[1].Tid);
  EXPECT_EQ(HookKind::Commit, Steps[1].Kind);
  EXPECT_EQ(stm::diag::NoStripe, Steps[1].Stripe);
}

//===----------------------------------------------------------------------===//
// Enumerate driver over a synthetic history (any build)
//===----------------------------------------------------------------------===//

// Two synthetic threads emitting three events each: the serialized
// schedules are exactly the interleavings of two length-3 sequences,
// C(6,3) == 20. The driver must walk all of them, each exactly once.
TEST(DiagEnumerateTest, WalksEverySyntheticScheduleOnce) {
  std::set<std::vector<uint32_t>> Orders;
  std::vector<uint32_t> Current;
  std::mutex Mu;

  stm::diag::EnumStats Stats = stm::diag::enumerateSchedules(
      2, /*MaxRuns=*/64,
      [&] {
        Current.clear();
        std::vector<std::thread> Threads;
        for (uint32_t Tid = 0; Tid < 2; ++Tid)
          Threads.emplace_back([&, Tid] {
            Schedule::ScopedThread Bind(Tid);
            for (unsigned K = 0; K < 3; ++K) {
              Schedule::instance().onEvent(Tid, HookKind::Read, K, 0);
              // The grant token is held until this thread parks again,
              // so the append below is serialized by the engine.
              std::lock_guard<std::mutex> Lock(Mu);
              Current.push_back(Tid);
            }
          });
        for (std::thread &T : Threads)
          T.join();
        Orders.insert(Current);
      },
      /*MaxChoicePoints=*/32);

  EXPECT_TRUE(Stats.Exhausted);
  EXPECT_FALSE(Stats.Truncated);
  EXPECT_EQ(20u, Stats.Runs);
  // Every run took a distinct interleaving (and none repeated).
  EXPECT_EQ(Orders.size(), Stats.Runs);
}

// The same synthetic history under a budget smaller than the space:
// the truncation must be loud (Truncated set, Exhausted not), and the
// runs that did fit must include a schedule diverging at the *first*
// choice point — the work-list driver explores earliest-divergence
// alternatives first, where the old deepest-first DFS burned the whole
// budget permuting the tail and reached the front-divergent schedules
// last.
TEST(DiagEnumerateTest, TruncationIsLoudAndFrontBiased) {
  std::set<std::vector<uint32_t>> Orders;
  std::vector<uint32_t> Current;
  std::mutex Mu;

  constexpr uint64_t MaxRuns = 5; // < the 20 distinct schedules
  stm::diag::EnumStats Stats = stm::diag::enumerateSchedules(
      2, MaxRuns,
      [&] {
        Current.clear();
        std::vector<std::thread> Threads;
        for (uint32_t Tid = 0; Tid < 2; ++Tid)
          Threads.emplace_back([&, Tid] {
            Schedule::ScopedThread Bind(Tid);
            for (unsigned K = 0; K < 3; ++K) {
              Schedule::instance().onEvent(Tid, HookKind::Read, K, 0);
              std::lock_guard<std::mutex> Lock(Mu);
              Current.push_back(Tid);
            }
          });
        for (std::thread &T : Threads)
          T.join();
        Orders.insert(Current);
      },
      /*MaxChoicePoints=*/32);

  EXPECT_TRUE(Stats.Truncated);
  EXPECT_FALSE(Stats.Exhausted);
  EXPECT_EQ(MaxRuns, Stats.Runs);
  EXPECT_EQ(Orders.size(), Stats.Runs); // still no schedule repeated
  bool FrontDivergent = false;
  for (const std::vector<uint32_t> &O : Orders)
    if (!O.empty() && O.front() == 1)
      FrontDivergent = true;
  EXPECT_TRUE(FrontDivergent)
      << "truncated budget never took the alternative at the first "
      << "choice point";
}

#ifdef STM_DIAG

//===----------------------------------------------------------------------===//
// Hand-written step helpers (STM_DIAG builds)
//===----------------------------------------------------------------------===//

/// A Step::Until barrier: run \p Tid until it parks at a \p Kind hook
/// (on \p Stripe, when given).
Step untilAt(uint32_t Tid, HookKind Kind,
             uint64_t Stripe = stm::diag::NoStripe) {
  Step St;
  St.Tid = Tid;
  St.Kind = Kind;
  St.Stripe = Stripe;
  St.Until = true;
  return St;
}

/// An Until barrier on a hook the thread never fires (Retire needs
/// pending frees) degenerates to "run this thread to completion".
Step untilDone(uint32_t Tid) { return untilAt(Tid, HookKind::Retire); }

/// An exact step: grant \p Tid's pending \p Kind hook (on \p Stripe,
/// when given) and run it to its next hook.
Step exactAt(uint32_t Tid, HookKind Kind,
             uint64_t Stripe = stm::diag::NoStripe) {
  Step St = untilAt(Tid, Kind, Stripe);
  St.Until = false;
  return St;
}

//===----------------------------------------------------------------------===//
// Record -> replay determinism (STM_DIAG builds)
//===----------------------------------------------------------------------===//

struct ReplayRun {
  std::vector<Event> Log;
  std::array<stm::Word, 64> Memory;
  // Per-thread (Starts, Commits, Aborts, Reads, Writes, Validations,
  // Extensions, FailedExtensions, AbortsAttributed) deltas.
  std::vector<std::array<uint64_t, 9>> Stats;
  bool Stalled = false;
};

std::array<uint64_t, 9> statsKey(const repro::TxStats &After,
                                 const repro::TxStats &Before) {
  return {After.Starts - Before.Starts,
          After.Commits - Before.Commits,
          After.Aborts - Before.Aborts,
          After.Reads - Before.Reads,
          After.Writes - Before.Writes,
          After.Validations - Before.Validations,
          After.Extensions - Before.Extensions,
          After.FailedExtensions - Before.FailedExtensions,
          After.AbortsAttributed - Before.AbortsAttributed};
}

/// The commit/abort subsequence of an event log: the determinism
/// acceptance criterion compares these across replays.
std::vector<std::pair<uint32_t, HookKind>>
commitAbortSequence(const std::vector<Event> &Log) {
  std::vector<std::pair<uint32_t, HookKind>> Out;
  for (const Event &E : Log)
    if (E.Kind == HookKind::Commit || E.Kind == HookKind::Abort)
      Out.emplace_back(E.Tid, E.Kind);
  return Out;
}

class ScheduleReplayTest : public repro_test::RuntimeSuite {};

TEST_P(ScheduleReplayTest, RecordedScheduleReplaysDeterministically) {
  if (GetParam().Adaptive)
    GTEST_SKIP() << "adaptive switching is wall-clock driven; replay "
                    "determinism covers the fixed backends";

  constexpr unsigned Threads = 2;
  constexpr unsigned TxPerThread = 10;
  static std::array<stm::Word, 64> Cells;

  // Fixed per-thread operation streams: a bench_extra_clock-shaped
  // mixed read/write load over a small contended array. The stream
  // depends only on the thread index, so record and every replay offer
  // identical work.
  auto Worker = [](unsigned I, auto &Tx, std::array<uint64_t, 9> *StatsOut) {
    repro::Xorshift Rng(0x9E3779B97F4A7C15ull + I * 0x1000193u);
    repro::TxStats Before = Tx.stats();
    for (unsigned T = 0; T < TxPerThread; ++T) {
      stm::atomically(Tx, [&](auto &Txn) {
        for (unsigned K = 0; K < 3; ++K) {
          std::size_t Idx = Rng.next() % Cells.size();
          stm::Word V = Txn.load(&Cells[Idx]);
          Txn.store(&Cells[Idx], V + 1);
        }
      });
    }
    if (StatsOut != nullptr)
      *StatsOut = statsKey(Tx.stats(), Before);
  };

  Schedule &Sched = Schedule::instance();

  // Record a live run.
  Cells.fill(0);
  Sched.startRecord();
  runBoundThreads(Threads,
                  [&](unsigned I, auto &Tx) { Worker(I, Tx, nullptr); });
  std::vector<Event> Trace = Sched.stopRecord();
  ASSERT_FALSE(Trace.empty());
  EXPECT_NE(commitAbortSequence(Trace).size(), 0u);

  std::vector<Step> Steps = Schedule::stepsFromEvents(Trace);

  // Replay it three times; every run must be bit-identical.
  std::vector<ReplayRun> Runs;
  for (unsigned R = 0; R < 3; ++R) {
    ReplayRun Run;
    Run.Stats.resize(Threads);
    Cells.fill(0);
    Schedule::ReplayOptions Opts;
    Opts.TimeoutMs = 60000;
    Sched.startReplay(Steps, Opts);
    runBoundThreads(Threads, [&](unsigned I, auto &Tx) {
      Worker(I, Tx, &Run.Stats[I]);
    });
    Run.Log = Sched.stopReplay();
    Run.Stalled = Sched.stalled();
    Run.Memory = Cells;
    Runs.push_back(std::move(Run));
  }

  for (unsigned R = 0; R < 3; ++R)
    EXPECT_FALSE(Runs[R].Stalled) << "replay " << R << " wedged";

  // Each transaction commits exactly once, so the cell sum is exact.
  uint64_t Sum = 0;
  for (stm::Word W : Runs[0].Memory)
    Sum += W;
  EXPECT_EQ(uint64_t(Threads) * TxPerThread * 3, Sum);

  for (unsigned R = 1; R < 3; ++R) {
    // Identical commit/abort sequence (the acceptance criterion) and,
    // stronger, the identical full event log.
    EXPECT_EQ(commitAbortSequence(Runs[0].Log),
              commitAbortSequence(Runs[R].Log))
        << "replay " << R << " diverged in commit/abort order";
    ASSERT_EQ(Runs[0].Log.size(), Runs[R].Log.size())
        << "replay " << R << " event count";
    for (std::size_t I = 0; I < Runs[0].Log.size(); ++I) {
      EXPECT_EQ(Runs[0].Log[I].Tid, Runs[R].Log[I].Tid) << "event " << I;
      EXPECT_EQ(Runs[0].Log[I].Kind, Runs[R].Log[I].Kind) << "event " << I;
      EXPECT_EQ(Runs[0].Log[I].Stripe, Runs[R].Log[I].Stripe)
          << "event " << I;
    }
    // Bit-identical stats and final memory image.
    EXPECT_EQ(Runs[0].Stats, Runs[R].Stats) << "replay " << R << " stats";
    EXPECT_EQ(Runs[0].Memory, Runs[R].Memory) << "replay " << R << " memory";
  }
}

// Hand-written schedule: a strict alternation expressed as thread-only
// (AnyKind) steps. Two passes over the same step list must agree on
// everything — this is the "hand-written schedule" leg of the tentpole.
TEST_P(ScheduleReplayTest, HandWrittenScheduleIsDeterministic) {
  if (GetParam().Adaptive)
    GTEST_SKIP() << "adaptive switching is wall-clock driven";

  constexpr unsigned Increments = 8;
  static stm::Word Shared;

  std::vector<Step> Steps;
  for (unsigned I = 0; I < 160; ++I) {
    Step S;
    S.Tid = I % 2;
    S.AnyKind = true;
    Steps.push_back(S);
  }

  Schedule &Sched = Schedule::instance();
  std::vector<std::vector<Event>> Logs;
  for (unsigned R = 0; R < 2; ++R) {
    Shared = 0;
    Schedule::ReplayOptions Opts;
    Opts.TimeoutMs = 60000;
    Sched.startReplay(Steps, Opts);
    runBoundThreads(2, [&](unsigned, auto &Tx) {
      for (unsigned K = 0; K < Increments; ++K)
        stm::atomically(Tx, [&](auto &Txn) {
          Txn.store(&Shared, Txn.load(&Shared) + 1);
        });
    });
    Logs.push_back(Sched.stopReplay());
    EXPECT_FALSE(Sched.stalled()) << "run " << R;
    EXPECT_EQ(stm::Word(2) * Increments, Shared) << "run " << R;
  }

  ASSERT_EQ(Logs[0].size(), Logs[1].size());
  for (std::size_t I = 0; I < Logs[0].size(); ++I) {
    EXPECT_EQ(Logs[0][I].Tid, Logs[1][I].Tid) << "event " << I;
    EXPECT_EQ(Logs[0][I].Kind, Logs[1][I].Kind) << "event " << I;
    EXPECT_EQ(Logs[0][I].Stripe, Logs[1][I].Stripe) << "event " << I;
  }
}

STM_INSTANTIATE_RUNTIME_SUITE(ScheduleReplayTest);

// Nightly stress leg (ctest -L replay-stress runs this file with
// STM_STRESS=10): repeated record -> replay rounds, fresh schedule
// each round, every replay checked against its own second pass.
TEST(ScheduleReplayStressTest, RepeatedRecordReplayRounds) {
  unsigned Rounds = 2 * repro_test::stressScale();
  static std::array<stm::Word, 32> Cells;

  stm::StmConfig Config;
  Config.Backend = stm::rt::BackendKind::SwissTm;
  Config.Adaptive = false;
  Config.Clock = repro_test::envClockKind();
  Config.LockTableSizeLog2 = 12;
  stm::StmRuntime::globalInit(Config);
  Schedule &Sched = Schedule::instance();

  for (unsigned Round = 0; Round < Rounds; ++Round) {
    auto Worker = [Round](unsigned I, auto &Tx) {
      repro::Xorshift Rng(repro::testSeed(Round * 131 + I));
      for (unsigned T = 0; T < 6; ++T)
        stm::atomically(Tx, [&](auto &Txn) {
          std::size_t Idx = Rng.next() % Cells.size();
          Txn.store(&Cells[Idx], Txn.load(&Cells[Idx]) + 1);
        });
    };

    Cells.fill(0);
    Sched.startRecord();
    runBoundThreads(2, Worker);
    std::vector<Step> Steps = Schedule::stepsFromEvents(Sched.stopRecord());

    std::vector<std::vector<std::pair<uint32_t, HookKind>>> Sequences;
    for (unsigned R = 0; R < 2; ++R) {
      Cells.fill(0);
      Schedule::ReplayOptions Opts;
      Opts.TimeoutMs = 60000;
      Sched.startReplay(Steps, Opts);
      runBoundThreads(2, Worker);
      Sequences.push_back(commitAbortSequence(Sched.stopReplay()));
      ASSERT_FALSE(Sched.stalled()) << "round " << Round;
    }
    EXPECT_EQ(Sequences[0], Sequences[1]) << "round " << Round;
  }
  stm::StmRuntime::globalShutdown();
}

//===----------------------------------------------------------------------===//
// Regression schedules: injected historical bugs (STM_DIAG builds)
//===----------------------------------------------------------------------===//

/// Enumerates every serialized schedule of two concurrent read-modify-
/// write increments of one shared word under \p Kind, optionally with a
/// fault-injection knob armed, and reports whether any schedule lost an
/// update (final value != 2).
bool enumerationFindsLostUpdate(stm::rt::BackendKind Kind,
                                std::optional<stm::diag::Inject> Knob,
                                stm::diag::EnumStats *StatsOut = nullptr) {
  stm::StmConfig Config;
  Config.Backend = Kind;
  Config.Adaptive = false;
  Config.Clock = stm::ClockKind::Gv1;
  Config.LockTableSizeLog2 = 12;
  stm::StmRuntime::globalInit(Config);

  static stm::Word Shared;
  std::optional<InjectGuard> Guard;
  if (Knob)
    Guard.emplace(*Knob);

  // The interesting divergence (reader parks between its read and its
  // acquisition while the other thread commits) sits at the *earliest*
  // choice points, which the work-list driver explores first — a
  // truncated budget still reaches it. A modest recorded-choice cap
  // keeps abort-retry tails forced (round-robin) instead of exploding
  // the tree.
  bool Lost = false;
  stm::diag::EnumStats Stats = stm::diag::enumerateSchedules(
      2, /*MaxRuns=*/50000,
      [&] {
        Shared = 0;
        runBoundThreads(2, [&](unsigned, auto &Tx) {
          stm::atomically(Tx, [&](auto &Txn) {
            stm::Word V = Txn.load(&Shared);
            Txn.store(&Shared, V + 1);
          });
        });
        if (Shared != 2)
          Lost = true;
      },
      /*MaxChoicePoints=*/24);

  Guard.reset();
  stm::StmRuntime::globalShutdown();
  if (StatsOut != nullptr)
    *StatsOut = Stats;
  return Lost;
}

// The tentpole's enumeration acceptance check: a deliberately injected
// validation skip must surface as a lost update in *some* enumerated
// schedule, and the honest validation must survive every one.
TEST(DiagEnumerateTest, CatchesInjectedValidationSkip) {
  for (stm::rt::BackendKind Kind :
       {stm::rt::BackendKind::SwissTm, stm::rt::BackendKind::Tl2}) {
    stm::diag::EnumStats Honest;
    EXPECT_FALSE(enumerationFindsLostUpdate(Kind, std::nullopt, &Honest))
        << stm::rt::backendName(Kind) << ": honest validation lost an update";
    EXPECT_GE(Honest.Runs, 2u);

    EXPECT_TRUE(enumerationFindsLostUpdate(
        Kind, stm::diag::Inject::ValidationSkip))
        << stm::rt::backendName(Kind)
        << ": enumeration failed to catch the injected validation skip";
  }
}

// PR 1 regression: TinySTM and TL2 once skipped the pre-acquisition
// version check for stripes the validating transaction itself had
// locked, letting a stale read survive a commit interleaved between
// the read and the acquisition. The Inject::SelfLockedSkip knob
// resurrects that path; enumerating the two-increment history must
// rediscover the lost update, and the fixed path must never lose one.
TEST(DiagEnumerateTest, Pr1SelfLockedValidationRegression) {
  for (stm::rt::BackendKind Kind :
       {stm::rt::BackendKind::TinyStm, stm::rt::BackendKind::Tl2}) {
    EXPECT_FALSE(enumerationFindsLostUpdate(Kind, std::nullopt))
        << stm::rt::backendName(Kind) << ": fixed path lost an update";
    EXPECT_TRUE(enumerationFindsLostUpdate(
        Kind, stm::diag::Inject::SelfLockedSkip))
        << stm::rt::backendName(Kind)
        << ": schedule enumeration no longer catches the PR 1 "
           "self-locked validation bug";
  }
}

//===----------------------------------------------------------------------===//
// PR 5 regression: the RSTM retire-tag reclamation window
//===----------------------------------------------------------------------===//

/// Trace oracle for the retire-tag quiescence argument: a Retire event
/// tagged G is unsafe if any *other* transaction is still live at that
/// point with a published start timestamp S > G — the reclamation
/// horizon (min active start) could then pass G and free the block
/// while that transaction may still hold the old pointer. The honest
/// post-release counter sample can never trip this (the counter is
/// monotone and sampled after every such Begin); the stamp tag can.
bool retireOracleViolated(const std::vector<Event> &Log) {
  for (std::size_t I = 0; I < Log.size(); ++I) {
    if (Log[I].Kind != HookKind::Retire)
      continue;
    uint64_t Tag = Log[I].Aux;
    std::map<uint32_t, std::optional<uint64_t>> ActiveStart;
    for (std::size_t J = 0; J < I; ++J) {
      const Event &E = Log[J];
      if (E.Tid == Log[I].Tid)
        continue;
      if (E.Kind == HookKind::Begin)
        ActiveStart[E.Tid] = E.Aux;
      else if (E.Kind == HookKind::Commit || E.Kind == HookKind::Abort)
        ActiveStart[E.Tid].reset();
    }
    for (const auto &KV : ActiveStart)
      if (KV.second && *KV.second > Tag)
        return true;
  }
  return false;
}

/// Replays the PR 5 interleaving against RSTM under gv5 and runs the
/// oracle over the serialized log. The hand-written schedule parks the
/// writer W at its commit-stamp hook — stamp minted, P's orec still
/// owned-but-not-committing, which is the window in which an invisible
/// reader may still take the stripe's old value. RSTM flags its orecs
/// committing before it mints the stamp, which closes that window
/// (R would spin on P's flag instead of reading it), so both halves run
/// with Inject::RstmStampBeforeFlag to reopen it: the retire tag is the
/// last guard left, which is what this test is about. Meanwhile a second
/// committer drags the deferred counter past W's stamp and the reader
/// then begins (publishing a start past the stamp) and reads P's old
/// value:
///
///   W(0): Begin, Acquire(P)+txFree, mint stamp Ts  | parked at stamp
///   R(2): Begin, Read(Z)                           | dummy tx parked
///   C(1): two full increments of Q -> counter advances past Ts
///   R(2): finish dummy; Begin (start > Ts), Read(P old value)
///   W(0): Validate, WriteBack, release, Retire(tag), Commit
///   R(2): Commit
///
/// The steps are Until barriers ("run this thread until it parks at
/// that hook"), so the data-dependent filler hooks RSTM emits along
/// the way (periodic validation, clock extensions) cannot diverge the
/// schedule. With the fix, tag = post-release counter sample >= R's
/// start. With Inject::RstmStampRetireTag, tag = Ts < R's start: the
/// oracle trips, which is exactly the use-after-free window PR 5
/// closed.
struct RetireTagRun {
  bool Violated = false;
  bool Stalled = false;
  bool SawRetire = false;
  std::vector<Event> Log;
};

RetireTagRun runRetireTagSchedule(bool InjectOldBug) {
  stm::StmConfig Config;
  Config.Backend = stm::rt::BackendKind::Rstm;
  Config.Adaptive = false;
  Config.Clock = stm::ClockKind::Gv5;
  Config.LockTableSizeLog2 = 16;
  stm::StmRuntime::globalInit(Config);

  alignas(64) static stm::Word P;
  alignas(64) static stm::Word Q;
  alignas(64) static stm::Word Z;
  P = Q = Z = 0;
  void *Retired = std::malloc(32);

  InjectGuard StampBeforeFlag(stm::diag::Inject::RstmStampBeforeFlag);
  std::optional<InjectGuard> Guard;
  if (InjectOldBug)
    Guard.emplace(stm::diag::Inject::RstmStampRetireTag);

  std::vector<Step> Steps;
  // W mints its commit stamp and parks AT the commit-stamp hook: P's
  // orec is owned but not yet committing, so invisible readers still
  // take the old value.
  Steps.push_back(untilAt(0, HookKind::CommitStamp));
  // R's dummy transaction runs up to (not through) its commit, so R's
  // next begin is the serialized step that samples the clock.
  Steps.push_back(untilAt(2, HookKind::Commit));
  // C runs two complete increments of Q: under gv5 each commit
  // publishes its stamp via advanceTo, dragging the counter past Ts.
  // (C never calls txFree, so this runs it to completion.)
  Steps.push_back(untilDone(1));
  // R finishes the dummy tx and begins again — the new start samples
  // the advanced counter, so it is published PAST W's stamp.
  Steps.push_back(untilAt(2, HookKind::Begin));
  // R reads P's old value (W still owns the stripe, not committing)
  // and parks at its commit.
  Steps.push_back(untilAt(2, HookKind::Commit));
  // W finishes its commit — validate, write back, release — and parks
  // at the retire hook with the tag already computed.
  Steps.push_back(untilAt(0, HookKind::Retire));
  // Steps exhausted: the deterministic round-robin tail logs W's
  // retire, then R's commit — R is live across the retire, exactly
  // the ordering the oracle interrogates.

  Schedule &Sched = Schedule::instance();
  Schedule::ReplayOptions Opts;
  Opts.TimeoutMs = 60000;
  Opts.ExpectedThreads = 3;
  Sched.startReplay(Steps, Opts);

  std::vector<std::thread> Threads;
  Threads.emplace_back([&] { // W
    Schedule::ScopedThread Bind(0);
    stm::ThreadScope<repro_test::Rt> Scope;
    auto &Tx = Scope.tx();
    stm::atomically(Tx, [&](auto &T) {
      T.store(&P, 1);
      T.txFree(Retired);
    });
  });
  Threads.emplace_back([&] { // C
    Schedule::ScopedThread Bind(1);
    stm::ThreadScope<repro_test::Rt> Scope;
    auto &Tx = Scope.tx();
    for (unsigned T = 0; T < 2; ++T)
      stm::atomically(Tx, [&](auto &Txn) {
        Txn.store(&Q, Txn.load(&Q) + 1);
      });
  });
  Threads.emplace_back([&] { // R
    Schedule::ScopedThread Bind(2);
    stm::ThreadScope<repro_test::Rt> Scope;
    auto &Tx = Scope.tx();
    stm::atomically(Tx, [&](auto &T) { (void)T.load(&Z); });
    stm::atomically(Tx, [&](auto &T) { (void)T.load(&P); });
  });
  for (std::thread &T : Threads)
    T.join();

  RetireTagRun Run;
  Run.Log = Sched.stopReplay();
  Run.Stalled = Sched.stalled();
  for (const Event &E : Run.Log)
    Run.SawRetire |= E.Kind == HookKind::Retire;
  Run.Violated = retireOracleViolated(Run.Log);

  Guard.reset();
  stm::StmRuntime::globalShutdown();
  return Run;
}

TEST(DiagReplayTest, Pr5RstmRetireTagRegression) {
  // Honest retire tag: the post-release counter sample covers every
  // live reader's published start — the oracle must stay clean. This
  // is the replay-backed exoneration evidence for the ROADMAP's RSTM
  // reclamation hypothesis.
  RetireTagRun Fixed = runRetireTagSchedule(/*InjectOldBug=*/false);
  EXPECT_FALSE(Fixed.Stalled);
  EXPECT_TRUE(Fixed.SawRetire) << "schedule never reached the retire";
  EXPECT_FALSE(Fixed.Violated)
      << "post-release retire tag left a live reader past the horizon";

  // Resurrected PR 5 bug: tagging with the commit stamp re-opens the
  // window — the same schedule must now trip the oracle.
  RetireTagRun Buggy = runRetireTagSchedule(/*InjectOldBug=*/true);
  EXPECT_FALSE(Buggy.Stalled);
  EXPECT_TRUE(Buggy.SawRetire);
  EXPECT_TRUE(Buggy.Violated)
      << "schedule no longer catches the PR 5 stamp-as-retire-tag bug";

  // The failing schedule is a first-class replayable artifact: dump
  // the serialized log and make sure it reloads.
  std::string Path = tempTracePath("pr5");
  ASSERT_TRUE(Schedule::dumpTrace(Buggy.Log, Path.c_str()));
  std::vector<Event> Reloaded;
  ASSERT_TRUE(Schedule::loadTrace(Path.c_str(), Reloaded));
  EXPECT_EQ(Buggy.Log.size(), Reloaded.size());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// RSTM invisible-read regressions: commit order and owner-word ABA
//===----------------------------------------------------------------------===//

/// Initializes the runtime on RSTM's default variant (eager acquire,
/// invisible reads) under gv1, whose "counter unmoved" heuristic lets a
/// reader skip validation once it has adopted the current counter.
void rstmGv1Init() {
  stm::StmConfig Config;
  Config.Backend = stm::rt::BackendKind::Rstm;
  Config.Adaptive = false;
  Config.Clock = stm::ClockKind::Gv1;
  Config.LockTableSizeLog2 = 16;
  stm::StmRuntime::globalInit(Config);
}

/// Stripe index of \p Addr in RSTM's orec table (after rstmGv1Init).
uint64_t rstmStripe(const void *Addr) {
  return stm::Rstm::globals().Table.indexFor(Addr);
}

/// Commit-order regression. RSTM's writer W flags its orecs committing
/// before it mints its commit stamp. With the stamp first (the old
/// order, resurrected by Inject::RstmStampBeforeFlag) an invisible
/// reader R holding W's owned word could revalidate in between, pass,
/// adopt the bumped counter, and later skip validation under the gv1
/// heuristic. Both threads increment X:
///
///   W(0): Begin, read X = 0, store X (acquire)    | parked at Read(Y)
///   R(1): Begin (valid-ts 0), read X = 0 logging  | parked at Read(Z1)
///         W's owned word
///   W(0): read Y, commit up to the stamp          | parked at CommitStamp
///   R(1): read Z1; the counter moved, revalidate  | parked at Validate
///   R(1): fixed: X carries W's committing tag, so R aborts and restarts
///         (parked at its next Read). Old order: X still carries the
///         logged word, R passes, adopts valid-ts 1, reads on to Z2.
///   W(0): write back X = 1, release, commit
///   tail: fixed: R re-reads X = 1 and writes 2. Old order: the counter
///         still equals R's valid-ts, so R acquires X, skips commit
///         validation (stamp == valid-ts + 1) and writes 0 + 1.
struct StampOrderRun {
  bool Stalled = false;
  uint64_t ReaderAborts = 0;
  stm::Word FinalX = 0;
};

StampOrderRun runStampOrderSchedule(bool StampBeforeFlag) {
  rstmGv1Init();
  alignas(64) static stm::Word X;
  alignas(64) static stm::Word Y;
  alignas(64) static stm::Word Z1;
  alignas(64) static stm::Word Z2;
  X = Y = Z1 = Z2 = 0;
  std::optional<InjectGuard> Guard;
  if (StampBeforeFlag)
    Guard.emplace(stm::diag::Inject::RstmStampBeforeFlag);

  std::vector<Step> Steps = {
      untilAt(0, HookKind::Read, rstmStripe(&Y)),
      untilAt(1, HookKind::Read, rstmStripe(&Z1)),
      untilAt(0, HookKind::CommitStamp),
      untilAt(1, HookKind::Validate),
      untilAt(1, HookKind::Read),
      untilDone(0),
  };
  Schedule &Sched = Schedule::instance();
  Schedule::ReplayOptions Opts;
  Opts.TimeoutMs = 60000;
  Opts.ExpectedThreads = 2;
  Sched.startReplay(Steps, Opts);

  StampOrderRun Run;
  runBoundThreads(2, [&](unsigned I, auto &Tx) {
    if (I == 0) {
      stm::atomically(Tx, [&](auto &T) {
        T.store(&X, T.load(&X) + 1);
        (void)T.load(&Y);
      });
      return;
    }
    stm::atomically(Tx, [&](auto &T) {
      stm::Word V = T.load(&X);
      (void)T.load(&Z1);
      (void)T.load(&Z2);
      T.store(&X, V + 1);
    });
    Run.ReaderAborts = Tx.stats().Aborts;
  });
  Sched.stopReplay();
  Run.Stalled = Sched.stalled();
  Run.FinalX = X;

  Guard.reset();
  stm::StmRuntime::globalShutdown();
  return Run;
}

TEST(DiagReplayTest, RstmFlagBeforeStampRegression) {
  StampOrderRun Fixed = runStampOrderSchedule(/*StampBeforeFlag=*/false);
  EXPECT_FALSE(Fixed.Stalled);
  EXPECT_EQ(2u, Fixed.FinalX) << "an increment was lost";
  EXPECT_EQ(1u, Fixed.ReaderAborts)
      << "the reader's revalidation did not fail on the committing tag";

  // Stamp before flag: the same schedule must lose W's increment.
  StampOrderRun Buggy = runStampOrderSchedule(/*StampBeforeFlag=*/true);
  EXPECT_FALSE(Buggy.Stalled);
  EXPECT_EQ(1u, Buggy.FinalX)
      << "schedule no longer catches the stamp-before-flag commit order";
}

/// Owner-word ABA regression. An owned orec word used to be the owner's
/// descriptor pointer, the same for every transaction its thread runs;
/// it is now unique per writing attempt. W keeps X == Y in every
/// committed state, and R must never observe them differ:
///
///   W(0): txn 1 owns X, memory still X = 0        | parked at Read(Z)
///   R(1): Begin, read X = 0 logging W's word      | parked at Read(Y)
///   W(0): txn 1 commits X = Y = 1; txn 2 owns X   | parked at Read(Z)
///         again
///   R(1): read Y = 1; the counter moved, so R revalidates X. Fixed: X
///         carries txn 2's word, not the logged one; R aborts and
///         re-reads X = Y = 1. With the descriptor as the word, X
///         matched, and R went on holding X = 0, Y = 1.
///   tail: W's txn 2 writes X = Y = 2.
TEST(DiagReplayTest, RstmOwnerWordAbaRegression) {
  rstmGv1Init();
  alignas(64) static stm::Word X;
  alignas(64) static stm::Word Y;
  alignas(64) static stm::Word Z;
  X = Y = Z = 0;

  std::vector<Step> Steps = {
      untilAt(0, HookKind::Read, rstmStripe(&Z)),
      untilAt(1, HookKind::Read, rstmStripe(&Y)),
      exactAt(0, HookKind::Read, rstmStripe(&Z)),
      untilAt(0, HookKind::Read, rstmStripe(&Z)),
      untilAt(1, HookKind::Commit),
  };
  Schedule &Sched = Schedule::instance();
  Schedule::ReplayOptions Opts;
  Opts.TimeoutMs = 60000;
  Opts.ExpectedThreads = 2;
  Sched.startReplay(Steps, Opts);

  bool Broken = false;
  uint64_t ReaderAborts = 0;
  runBoundThreads(2, [&](unsigned I, auto &Tx) {
    if (I == 0) {
      for (stm::Word V : {stm::Word(1), stm::Word(2)})
        stm::atomically(Tx, [&](auto &T) {
          T.store(&X, V);
          (void)T.load(&Z);
          T.store(&Y, V);
        });
      return;
    }
    stm::atomically(Tx, [&](auto &T) {
      stm::Word A = T.load(&X);
      stm::Word B = T.load(&Y);
      if (A != B)
        Broken = true;
    });
    ReaderAborts = Tx.stats().Aborts;
  });
  Sched.stopReplay();
  EXPECT_FALSE(Sched.stalled());
  EXPECT_FALSE(Broken) << "R saw X != Y: a reused owner word hid a commit";
  EXPECT_EQ(1u, ReaderAborts)
      << "the reader's revalidation did not fail on the re-owned stripe";
  EXPECT_EQ(2u, X);
  EXPECT_EQ(2u, Y);
  stm::StmRuntime::globalShutdown();
}

//===----------------------------------------------------------------------===//
// Orec irrevocability: token drain vs. a committer parked mid-commit
//===----------------------------------------------------------------------===//

/// Regression schedule for the irrevocability token's quiescence drain:
/// a transaction turning irrevocable while another committer is parked
/// *mid-commit* (stamp minted, orecs held, epoch still pinned) must
/// wait for that committer to drain and then proceed — not deadlock,
/// and not run concurrently with it. The hand-written interleaving:
///
///   T0: Begin, Acquire(X), mint commit stamp   | parked at the stamp
///   T1: load X -> foreign orec -> abort; retry hits the abort
///       threshold (OrecIrrevocableAborts=1), takes the token, pins,
///       and parks in the drain loop (Switch hook, SerializeAux)
///   T0: finishes its commit -> releases X, unpins (quiescent)
///   T1: drain observes quiescence, runs irrevocably, commits
///
/// Before the drain-scan excluded committed-and-unpinned slots
/// correctly, this schedule wedged with T1 spinning forever; the
/// replay engine's stall detector turns that hang into a test failure.
TEST(DiagReplayTest, OrecIrrevocableDrainVsParkedCommitter) {
  stm::StmConfig Config;
  Config.Backend = stm::rt::BackendKind::Orec;
  Config.Adaptive = false;
  Config.OrecIrrevocableAborts = 1;
  Config.LockTableSizeLog2 = 16;
  stm::StmRuntime::globalInit(Config);

  alignas(64) static stm::Word X;
  alignas(64) static stm::Word Y;
  X = Y = 0;

  std::vector<Step> Steps;
  // T0 acquires X's orec at encounter time and parks at the
  // commit-stamp hook: locks held, epoch pinned, commit unfinished.
  Steps.push_back(untilAt(0, HookKind::CommitStamp));
  // T1 aborts on the foreign orec, retries over the threshold, takes
  // the token, and parks at the first drain-wait iteration.
  Steps.push_back(untilAt(1, HookKind::Switch));
  // T0 runs to completion (Retire never fires without pending frees:
  // this degenerates to "finish the thread") — releasing X and
  // unpinning its slot.
  Steps.push_back(untilAt(0, HookKind::Retire));
  // Steps exhausted: the round-robin tail drains T1 out of the wait
  // loop and through its irrevocable run.

  Schedule &Sched = Schedule::instance();
  Schedule::ReplayOptions Opts;
  Opts.TimeoutMs = 60000;
  Opts.ExpectedThreads = 2;
  Sched.startReplay(Steps, Opts);

  repro::TxStats T1Stats;
  std::vector<std::thread> Threads;
  Threads.emplace_back([&] { // T0: the parked committer
    Schedule::ScopedThread Bind(0);
    stm::ThreadScope<repro_test::Rt> Scope;
    auto &Tx = Scope.tx();
    stm::atomically(Tx, [&](auto &T) { T.store(&X, 1); });
  });
  Threads.emplace_back([&] { // T1: the escalating transaction
    Schedule::ScopedThread Bind(1);
    stm::ThreadScope<repro_test::Rt> Scope;
    auto &Tx = Scope.tx();
    stm::atomically(Tx, [&](auto &T) {
      stm::Word Seen = T.load(&X);
      T.store(&Y, Seen + 1);
    });
    T1Stats = Tx.stats();
  });
  for (std::thread &T : Threads)
    T.join();

  std::vector<Event> Log = Sched.stopReplay();
  EXPECT_FALSE(Sched.stalled())
      << "irrevocability drain deadlocked against the parked committer";
  EXPECT_EQ(1u, X);
  EXPECT_EQ(2u, Y) << "the irrevocable run did not serialize after T0";
  // The drain wait is observable in the log: Switch events carrying
  // the irrevocability sentinel (not a backend kind) from T1's slot.
  bool SawDrain = false;
  for (const Event &E : Log)
    SawDrain |= E.Kind == HookKind::Switch && E.Tid == 1 && E.Aux == ~0ull;
  EXPECT_TRUE(SawDrain)
      << "schedule never parked T1 in the irrevocability drain";
  EXPECT_GE(T1Stats.Serializations, 1u);
  EXPECT_GE(T1Stats.IrrevocableCommits, 1u);
  EXPECT_GE(T1Stats.Aborts, 1u);

  stm::StmRuntime::globalShutdown();
}

// Exonerating sweep for the heap-corruption hypothesis: enumerate every
// serialized schedule of the suspect RSTM pattern — an updater that
// frees the stripe's old payload each commit racing an invisible
// reader — under gv5, and require every schedule to stay coherent.
TEST(DiagEnumerateTest, RstmReclamationExonerationSweep) {
  stm::StmConfig Config;
  Config.Backend = stm::rt::BackendKind::Rstm;
  Config.Adaptive = false;
  Config.Clock = stm::ClockKind::Gv5;
  Config.LockTableSizeLog2 = 12;
  stm::StmRuntime::globalInit(Config);

  static stm::Word Shared;
  bool Anomalous = false;
  stm::diag::EnumStats Stats = stm::diag::enumerateSchedules(
      2, /*MaxRuns=*/512,
      [&] {
        Shared = 0;
        std::vector<void *> Blocks = {std::malloc(32), std::malloc(32)};
        runBoundThreads(2, [&](unsigned I, auto &Tx) {
          if (I == 0) {
            for (unsigned T = 0; T < 2; ++T)
              stm::atomically(Tx, [&](auto &Txn) {
                Txn.store(&Shared, Txn.load(&Shared) + 1);
                Txn.txFree(Blocks[T]);
              });
          } else {
            stm::Word Last = 0;
            for (unsigned T = 0; T < 2; ++T)
              stm::atomically(Tx, [&](auto &Txn) {
                stm::Word V = Txn.load(&Shared);
                if (V > 2 || V < Last)
                  Anomalous = true;
                Last = V;
              });
          }
        });
        if (Shared != 2)
          Anomalous = true;
      },
      /*MaxChoicePoints=*/40);

  stm::StmRuntime::globalShutdown();
  EXPECT_FALSE(Anomalous)
      << "an enumerated schedule of the free/read pattern went incoherent";
  EXPECT_GE(Stats.Runs, 4u);
}

#else // !STM_DIAG

TEST(ScheduleReplayTest, SkippedWithoutStmDiag) {
  GTEST_SKIP() << "hook-driven record/replay tests need -DSTM_DIAG=ON";
}

#endif // STM_DIAG

} // namespace
