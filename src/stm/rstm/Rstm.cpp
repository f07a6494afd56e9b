//===- stm/rstm/Rstm.cpp - RSTM-like baseline ------------------------------===//
//
// Part of the SwissTM reproduction (PLDI 2009). The contention managers
// live in stm/core/ContentionManager.h, instantiated in AsPolka mode.
//
//===----------------------------------------------------------------------===//

#include "stm/rstm/Rstm.h"

#include "support/Backoff.h"

using namespace stm;
using namespace stm::rstm;

static RstmGlobals GlobalState;

RstmGlobals &stm::rstm::rstmGlobals() { return GlobalState; }

void Rstm::globalInit(const StmConfig &Config) {
  GlobalState.Config = Config;
  GlobalState.Table.init(Config.LockTableSizeLog2, Config.GranularityLog2,
                         resolvedLockShards(Config));
  // The commit counter advances under the configured clock policy; the
  // greedy-ts always increments (the CM needs unique timestamps).
  GlobalState.CommitCounter.reset(Config.Clock, resolvedClockShards(Config));
  GlobalState.GreedyTs.reset();
}

void Rstm::globalShutdown() { globalTeardown(GlobalState.Table); }

RstmTx::RstmTx(unsigned Slot) : TxBase(Slot) {
  GlobalState.Descriptors[Slot].store(this, std::memory_order_release);
}

RstmTx::~RstmTx() {
  // Normally a no-op: ThreadScope runs threadShutdown() (which
  // unpublishes) before retiring, and the slot may meanwhile carry a
  // successor. The CAS keeps constructor/destructor symmetry for
  // descriptors constructed without a ThreadScope.
  RstmTx *Self = this;
  GlobalState.Descriptors[Slot].compare_exchange_strong(
      Self, nullptr, std::memory_order_acq_rel);
}

void RstmTx::onStart() {
  baseStart();
  ReadLog.clear();
  VisibleReads.clear();
  WriteLog.clear();
  Acquired.clear();
  WSetMap.clear();
  OwnedWord = 0;
  beginEpoch(GlobalState.CommitCounter);
  Cm.onStart(GlobalState.Config, GlobalState.GreedyTs, FreshStart);
}

void RstmTx::maybeValidate() {
  if (GlobalState.Config.RstmVisibleReads)
    return; // visible readers are protected by their reader bits
  uint64_t Counter = GlobalState.CommitCounter.load();
  // The commit-counter heuristic requires every committer to uniquely
  // advance the counter: only then does "counter unmoved" imply
  // "nothing committed since the last check". Under gv4 a committer can
  // adopt an already-published value and under gv5 commits never move
  // the counter at all, so both degrade to unconditional revalidation —
  // RSTM's pre-heuristic behaviour, correct but O(read set) per read.
  if (GlobalState.CommitCounter.kind() == ClockKind::Gv1 &&
      Counter == ValidTs)
    return; // commit-counter heuristic: nothing committed, still valid
  if (!revalidate())
    rollback();
  ValidTs = Counter;
  repro::ThreadRegistry::publishStart(Slot, ValidTs);
}

bool RstmTx::validateReadSet() {
  for (const ReadEntry &R : ReadLog) {
    Word Cur = R.Rec->Owner.load(std::memory_order_acquire);
    // Equality is sound because owned words are unique per attempt: an
    // unchanged foreign owned word means that owner has not begun
    // committing, so memory still holds the value we read.
    if (Cur == R.Seen)
      continue;
    if (ownedByMe(Cur)) {
      // We acquired this stripe after reading it: valid iff nothing
      // committed in between, i.e. the pre-acquisition version matches
      // what we read.
      bool Ok = false;
      for (const AcquiredOrec &A : Acquired) {
        if (A.Rec == R.Rec) {
          Ok = A.OldValue == R.Seen;
          break;
        }
      }
      if (Ok)
        continue;
    }
    STM_DIAG_NOTE_CONFLICT(Slot, nullptr,
                           GlobalState.Table.indexOfEntry(R.Rec), Cur);
    return false;
  }
  return true;
}

Word RstmTx::load(const Word *Addr) {
  checkKill();
  ++Stats.Reads;
  Cm.noteAccess();

  // Read-after-write from the redo log.
  if (!WriteLog.empty()) {
    uint32_t Idx = WSetMap.lookup(Addr);
    if (Idx != ~0u)
      return WriteLog[Idx].Value;
  }

  Orec &Rec = GlobalState.Table.entryFor(Addr);

  if (GlobalState.Config.RstmVisibleReads) {
    uint64_t MyBit = uint64_t(1) << Slot;
    bool Held =
        (Rec.Readers.load(std::memory_order_relaxed) & MyBit) != 0;
    if (!Held) {
      while (true) {
        STM_DIAG_HOOK(Slot, Read, GlobalState.Table.indexOfEntry(&Rec),
                      MyBit);
        Rec.Readers.fetch_or(MyBit, std::memory_order_acq_rel);
        Word V = Rec.Owner.load(std::memory_order_acquire);
        if (!orecIsCommitting(V) || ownedByMe(V))
          break;
        // A writer is in write-back: retreat and wait for it to finish.
        Rec.Readers.fetch_and(~MyBit, std::memory_order_acq_rel);
        unsigned SpinStep = 0;
        while (orecIsCommitting(
            Rec.Owner.load(std::memory_order_acquire))) {
          STM_DIAG_HOOK(Slot, Read, GlobalState.Table.indexOfEntry(&Rec), V);
          checkKill();
          repro::spinWait(SpinStep);
        }
      }
      VisibleReads.push_back(&Rec);
    }
    // With the reader bit held, no writer can reach write-back, so the
    // memory word is stable and consistent.
    return racyLoad(Addr);
  }

  // Invisible read: consistent (orec, value, orec) snapshot; an owned
  // but not-yet-committing stripe still holds the old (committed)
  // values in memory, so it may be read -- this mirrors RSTM's reads
  // of an object's old clone.
  Word V1 = Rec.Owner.load(std::memory_order_acquire);
  Word Value;
  unsigned SpinStep = 0;
  while (true) {
    STM_DIAG_HOOK(Slot, Read, GlobalState.Table.indexOfEntry(&Rec), V1);
    if (orecIsCommitting(V1) && !ownedByMe(V1)) {
      checkKill();
      repro::spinWait(SpinStep);
      V1 = Rec.Owner.load(std::memory_order_acquire);
      continue;
    }
    Value = racyLoad(Addr);
    Word V2 = Rec.Owner.load(std::memory_order_acquire);
    if (V1 == V2)
      break;
    V1 = V2;
  }

  // A stripe this attempt owns cannot change under it until the attempt
  // ends, so reading it adds nothing to validate. Logging it would also
  // be wrong: the entry's owned word turns into our own committing word
  // at commit, and every commit-time validation would fail on it.
  if (!ownedByMe(V1))
    ReadLog.push_back(ReadEntry{&Rec, V1});
  maybeValidate();
  return Value;
}

void RstmTx::store(Word *Addr, Word Value) {
  checkKill();
  ++Stats.Writes;
  Cm.noteAccess();

  uint32_t Idx = WSetMap.lookup(Addr);
  if (Idx != ~0u) {
    WriteLog[Idx].Value = Value;
    return;
  }
  WSetMap.insert(Addr, static_cast<uint32_t>(WriteLog.size()));
  WriteLog.push_back(WriteEntry{Addr, Value});

  if (GlobalState.Config.RstmEagerAcquire)
    acquireOrec(GlobalState.Table.entryFor(Addr));
}

void RstmTx::acquireOrec(Orec &Rec) {
  if (OwnedWord == 0) {
    // First acquisition of this attempt: mint its owned word.
    uint64_t &Serial = GlobalState.OwnerSerial[Slot].value();
    OwnedWord = orecOwnedWord(++Serial, Slot);
  }
  unsigned Attempts = 0;
  while (true) {
    Word V = Rec.Owner.load(std::memory_order_acquire);
    STM_DIAG_HOOK(Slot, Acquire, GlobalState.Table.indexOfEntry(&Rec), V);
    if (orecIsOwned(V)) {
      if (ownedByMe(V))
        return; // stripe already ours (another word, or re-acquire)
      // Note the contended stripe for both parties before the CM can
      // kill either; the victim's abort stays attributed. The owner is
      // whichever descriptor holds the slot now (null if it left): a
      // stale resolution at worst kills or waits on the wrong attempt.
      unsigned OwnerSlot = orecOwnerSlot(V);
      RstmTx *Owner =
          GlobalState.Descriptors[OwnerSlot].load(std::memory_order_acquire);
      STM_DIAG_NOTE_CONFLICT(Slot, nullptr,
                             GlobalState.Table.indexOfEntry(&Rec), V);
      if (Owner != nullptr)
        STM_DIAG_NOTE_CONFLICT(OwnerSlot, nullptr,
                               GlobalState.Table.indexOfEntry(&Rec), V);
      if (Cm.shouldAbort(GlobalState.Config, Owner, this, Attempts, Rng))
        rollback();
      checkKill();
      repro::spinWait(Attempts);
      continue;
    }
    if (Rec.Owner.compare_exchange_weak(V, OwnedWord,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      Acquired.push_back(AcquiredOrec{&Rec, V});
      break;
    }
  }
  resolveVisibleReaders(Rec);
  maybeValidate();
}

void RstmTx::resolveVisibleReaders(Orec &Rec) {
  if (!GlobalState.Config.RstmVisibleReads)
    return;
  uint64_t MyBit = uint64_t(1) << Slot;
  unsigned Attempts = 0;
  while (true) {
    uint64_t Bits = Rec.Readers.load(std::memory_order_acquire) & ~MyBit;
    STM_DIAG_HOOK(Slot, Acquire, GlobalState.Table.indexOfEntry(&Rec), Bits);
    if (Bits == 0)
      return;
    unsigned VictimSlot = static_cast<unsigned>(__builtin_ctzll(Bits));
    RstmTx *Victim =
        GlobalState.Descriptors[VictimSlot].load(std::memory_order_acquire);
    STM_DIAG_NOTE_CONFLICT(Slot, nullptr,
                           GlobalState.Table.indexOfEntry(&Rec), Bits);
    STM_DIAG_NOTE_CONFLICT(VictimSlot, nullptr,
                           GlobalState.Table.indexOfEntry(&Rec), Bits);
    if (Cm.shouldAbort(GlobalState.Config, Victim, this, Attempts, Rng))
      rollback();
    checkKill();
    repro::spinWait(Attempts);
  }
}

void RstmTx::commit() {
  assert(Depth > 0 && "commit outside a transaction");
  checkKill();

  uint64_t MyBit = uint64_t(1) << Slot;
  auto ClearReaderBits = [&] {
    for (Orec *Rec : VisibleReads)
      Rec->Readers.fetch_and(~MyBit, std::memory_order_acq_rel);
  };

  if (WriteLog.empty()) {
    ClearReaderBits();
    ++Stats.ReadOnlyCommits;
    baseCommit(GlobalState.CommitCounter.load());
    return;
  }

  // Lazy acquire: take every stripe now (duplicates collapse inside
  // acquireOrec via the ownedByMe check).
  if (!GlobalState.Config.RstmEagerAcquire)
    for (const WriteEntry &W : WriteLog)
      acquireOrec(GlobalState.Table.entryFor(W.Addr));

  // Enter the committing state *before* minting the stamp. An invisible
  // reader may hold one of our stripes' owned word and its old value;
  // once it sees the counter move past its valid-ts it revalidates, and
  // that revalidation must fail on the committing tag. Flagging after
  // the stamp would leave a window in which the reader passes, adopts
  // the bumped counter, and then skips validation under the gv1
  // "counter unmoved" heuristic while we write back: a stale read would
  // commit. The
  // fence also orders the flags before our own validation loads, so of
  // two committers that each read the other's owned stripe at least one
  // sees the other's flag and aborts (no serialization cycle).
  // Inject::RstmStampBeforeFlag restores the old order for the
  // regression schedules.
  bool FlagFirst = !STM_DIAG_INJECTED(RstmStampBeforeFlag);
  if (FlagFirst)
    flagCommitting();

  // Commit timestamp under the configured clock policy.
  CommitStamp Stamp = takeCommitStamp(GlobalState.CommitCounter, [this] {
    uint64_t MaxOverwritten = 0;
    for (const AcquiredOrec &A : Acquired)
      if (orecVersion(A.OldValue) > MaxOverwritten)
        MaxOverwritten = orecVersion(A.OldValue);
    return MaxOverwritten;
  });
  uint64_t Ts = Stamp.Ts;
  STM_DIAG_HOOK(Slot, CommitStamp, ::stm::diag::NoStripe, Ts);
  // The "counter still follows my valid-ts" shortcut is gv1-only here —
  // stronger than core::TimeValidation::mustValidateCommit. RSTM readers
  // may take an owned-but-not-yet-committing stripe's *old* value, so a
  // gv4 adopter sharing my valid-ts can write back a stripe I read
  // without my adoption-time validation ever seeing a lock transition;
  // only unique counter increments order such commits observably.
  if (!GlobalState.Config.RstmVisibleReads &&
      (GlobalState.CommitCounter.kind() != ClockKind::Gv1 ||
       Ts != ValidTs + 1) &&
      !revalidate())
    rollback();

  if (!FlagFirst)
    flagCommitting();
  // Before write-back, make sure no visible reader still depends on the
  // old values.
  for (const AcquiredOrec &A : Acquired)
    resolveVisibleReaders(*A.Rec);

  for (const WriteEntry &W : WriteLog) {
    STM_DIAG_HOOK(Slot, WriteBack, GlobalState.Table.indexFor(W.Addr), Ts);
    racyStore(W.Addr, W.Value);
  }

  Word Release = orecMake(Ts);
  for (const AcquiredOrec &A : Acquired)
    A.Rec->Owner.store(Release, std::memory_order_release);

  // Under gv5 RSTM must publish its stamp itself: the other backends'
  // readers drag a deferred counter forward on version-comparison
  // misses, but RSTM validates by equality and never calls observe —
  // with a forever-zero counter every transaction would publish
  // start-ts 0 and the timestamp-quiescence reclaimers (TxMemory /
  // RetiredPool) could never free a retired block while the thread
  // lives. One CAS-max per update commit keeps the deferred policy's
  // sharing semantics (same-ts commits still occur) and bounds memory.
  if (GlobalState.CommitCounter.kind() == ClockKind::Gv5)
    GlobalState.CommitCounter.advanceTo(Ts);

  ClearReaderBits();

  // Retire tag: a counter sample from *after* the release, not the
  // stamp. Unlike the other backends, an RSTM invisible reader may take
  // an owned-but-not-yet-committing stripe's old value — including a
  // pointer this commit is about to unlink and txFree. Because the
  // committing flag goes up before the stamp is minted, such a reader
  // took the value before the stamp existed, and each revalidation it
  // attempts afterwards fails on the flag or on the released version;
  // its published start therefore stays at or below Ts. The
  // post-release sample (never below Ts) is kept anyway because its
  // soundness does not rest on that ordering: any transaction whose
  // published start exceeds it either began after the unlink was
  // visible or revalidated past it. With the stamp minted before the
  // flag (Inject::RstmStampBeforeFlag), a reader could begin after the
  // stamp — its start past Ts once the counter outruns the committing
  // writer, routine under gv5 — and still take the old pointer; only
  // the post-release sample covers that reader.
  uint64_t RetireTag = GlobalState.CommitCounter.load();
  // The PR 5 regression knob resurrects the original bug: tagging
  // retired blocks with the commit stamp instead of the post-release
  // counter sample, re-opening the reclamation window above.
  if (STM_DIAG_INJECTED(RstmStampRetireTag))
    RetireTag = Ts;
  baseCommit(RetireTag);
}

void RstmTx::flagCommitting() {
  Word Committing = OwnedWord | 2;
  for (const AcquiredOrec &A : Acquired)
    A.Rec->Owner.store(Committing, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void RstmTx::rollback() {
  for (const AcquiredOrec &A : Acquired)
    A.Rec->Owner.store(A.OldValue, std::memory_order_release);
  uint64_t MyBit = uint64_t(1) << Slot;
  for (Orec *Rec : VisibleReads)
    Rec->Readers.fetch_and(~MyBit, std::memory_order_acq_rel);
  baseAbort();
  Cm.onRollback(GlobalState.Config, Rng, SuccessiveAborts);
  std::longjmp(*EnvTarget, 1);
}
