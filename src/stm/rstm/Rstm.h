//===- stm/rstm/Rstm.h - RSTM-like baseline ---------------------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// RSTM (Marathe et al., TRANSACT 2006; version 3) is the paper's
// obstruction-free, object-based baseline. This reimplementation keeps
// the properties the paper's comparisons rest on while using the shared
// stripe-based word API (the paper itself notes RSTM's object API kept
// it out of STAMP; our port removes that gate and we note it in
// EXPERIMENTS.md):
//
//  * four algorithm variants: eager/lazy acquire x visible/invisible
//    reads (StmConfig::RstmEagerAcquire / RstmVisibleReads);
//  * invisible reads validated with the *global commit counter
//    heuristic*: whenever the counter moved since the last check the
//    whole read set is re-validated, so long transactions pay O(read
//    set) repeatedly -- the overhead visible throughout Section 4.
//    The heuristic requires every committer to uniquely advance the
//    counter, so it only applies under the gv1 clock policy; gv4/gv5
//    (StmConfig::Clock) fall back to unconditional revalidation;
//  * visible reads registered in a per-stripe reader bitmap that
//    writers must clear through the contention manager;
//  * pluggable contention managers from core::ContentionManager in
//    AsPolka mode (Polka — RSTM's usual default — Greedy, Serializer
//    and Timid, selected by StmConfig::Cm);
//  * per-stripe ownership records; owners can be aborted (killed) by
//    higher-priority attackers, emulating RSTM's status-word stealing.
//
// Ownership record encoding (Owner word, two tag bits):
//   version << 2                      free
//   serial << 8 | slot << 2 | 1       owned (memory still holds the old
//                                     values)
//   serial << 8 | slot << 2 | 3       owner committing (stamp, validation
//                                     and write-back in progress)
//
// An owned word names the owner's registry slot (resolved through
// RstmGlobals::Descriptors) and a serial minted per writing attempt
// from a per-slot counter, so no two attempts ever install the same
// word — not even across a recycled slot. Invisible readers validate by
// *equality* of owner words, which is only sound if a word that
// reappears means "nothing changed": with a bare descriptor pointer, a
// thread's next transaction re-owning a stripe it just committed would
// restore the word a reader logged and hide the write (owner-word ABA).
//
//
// INTERNAL HEADER — deprecated as an application include. The public
// surface is stm/Stm.h (stm::Runtime + stm::atomically); select this
// backend at runtime via StmConfig::Backend / STM_BACKEND instead of
// including it directly. Direct includes outside src/stm/ and tests
// of backend internals are scheduled for removal.
//===----------------------------------------------------------------------===//

#ifndef STM_RSTM_RSTM_H
#define STM_RSTM_RSTM_H

#include "stm/Config.h"
#include "stm/RacyAccess.h"
#include "stm/TxBase.h"
#include "stm/WriteMap.h"
#include "stm/core/Clock.h"
#include "stm/core/ContentionManager.h"
#include "stm/core/LockTable.h"
#include "stm/core/Validation.h"
#include "stm/core/VersionedLock.h"
#include "support/Padded.h"
#include "support/Platform.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace stm::rstm {

class RstmTx;

/// Per-stripe ownership record plus visible-reader bitmap.
struct Orec {
  std::atomic<Word> Owner{0};
  std::atomic<uint64_t> Readers{0};
};

/// Orec encoding: two tag bits (see core/VersionedLock.h).
using OrecOps = core::VersionedLockOps<2>;
inline bool orecIsOwned(Word V) { return OrecOps::isLocked(V); }
inline bool orecIsCommitting(Word V) { return (V & 2) != 0; }
inline uint64_t orecVersion(Word V) { return OrecOps::version(V); }
inline Word orecMake(uint64_t Version) { return OrecOps::make(Version); }

static_assert(repro::MaxThreads <= 64, "owner slot field is six bits wide");
/// The owned word of attempt \p Serial in registry slot \p Slot.
inline Word orecOwnedWord(uint64_t Serial, unsigned Slot) {
  return static_cast<Word>(Serial << 8) | (Word(Slot) << 2) | 1;
}
/// The registry slot named by an owned word.
inline unsigned orecOwnerSlot(Word V) {
  return static_cast<unsigned>((V >> 2) & 63);
}

struct RstmGlobals {
  core::LockTable<Orec> Table;
  GlobalClock CommitCounter; ///< bumped by every update commit
  GlobalClock GreedyTs;
  StmConfig Config;
  /// Registry slot -> descriptor, for reader-bit and orec-owner
  /// resolution.
  std::atomic<RstmTx *> Descriptors[repro::MaxThreads] = {};
  /// Registry slot -> last owned-word serial minted there. Kept per
  /// slot, not per descriptor, so a successor descriptor on a recycled
  /// slot continues the sequence instead of repeating words a reader
  /// may still hold in its read log. Plain words: only the thread
  /// holding a slot touches its serial, and the registry's slot
  /// release/claim orders successive holders.
  repro::Padded<uint64_t> OwnerSerial[repro::MaxThreads];
};

RstmGlobals &rstmGlobals();

/// RSTM-like transaction descriptor.
class RstmTx : public TxBase, public core::TimeValidation<RstmTx> {
public:
  explicit RstmTx(unsigned Slot);
  ~RstmTx();

  void onStart();
  Word load(const Word *Addr);
  void store(Word *Addr, Word Value);
  void commit();
  [[noreturn]] void restart() { rollback(); }

  /// Shadows TxBase::threadShutdown: unpublishes this descriptor from
  /// the slot table before it is retired, so no new reader can pick the
  /// pointer up while it waits out its grace period in limbo. CAS
  /// because a recycled slot may already publish a successor descriptor.
  void threadShutdown() {
    RstmTx *Self = this;
    rstmGlobals().Descriptors[Slot].compare_exchange_strong(
        Self, nullptr, std::memory_order_acq_rel);
    baseShutdown();
  }

  /// Contention-manager state, readable by concurrent attackers.
  const core::ContentionManager<core::TwoPhaseMode::AsPolka> &cm() const {
    return Cm;
  }

  /// Polka priority: number of accesses in the current attempt.
  uint64_t polkaPriority() const { return Cm.priority(); }
  uint64_t cmTimestamp() const { return Cm.timestamp(); }

private:
  friend class core::TimeValidation<RstmTx>;

  struct WriteEntry {
    Word *Addr;
    Word Value;
  };
  struct AcquiredOrec {
    Orec *Rec;
    Word OldValue; ///< orec word before acquisition (free, version<<2)
  };
  struct ReadEntry {
    Orec *Rec;
    Word Seen;
  };

  [[noreturn]] void rollback();
  void checkKill() {
    if (killRequested())
      rollback();
  }

  /// Re-validates the read set iff the global commit counter moved
  /// since the last check (RSTM's heuristic). Aborts on failure.
  void maybeValidate();
  bool validateReadSet();

  /// True iff \p V is this attempt's owned word, committing or not.
  bool ownedByMe(Word V) const {
    return orecIsOwned(V) && (V | 2) == (OwnedWord | 2);
  }

  /// Raises the committing tag on every acquired orec, then fences so
  /// the flags are visible before the commit stamp is minted and before
  /// any visible-reader bit or read-set entry is re-examined.
  void flagCommitting();

  /// Acquires \p Rec for writing, resolving owner and visible-reader
  /// conflicts through the contention manager. Aborts (longjmps) if the
  /// manager rules against us.
  void acquireOrec(Orec &Rec);

  /// Waits until all visible readers other than us have left \p Rec,
  /// killing them per the contention manager.
  void resolveVisibleReaders(Orec &Rec);

  core::ContentionManager<core::TwoPhaseMode::AsPolka> Cm;

  std::vector<ReadEntry> ReadLog;
  std::vector<Orec *> VisibleReads;
  std::vector<WriteEntry> WriteLog;
  std::vector<AcquiredOrec> Acquired;
  WriteMap WSetMap;
  /// This attempt's owned word; 0 until its first acquisition mints one.
  Word OwnedWord = 0;
};

/// STM facade.
class Rstm {
public:
  using Tx = RstmTx;

  static constexpr const char *name() { return "rstm"; }

  static void globalInit(const StmConfig &Config);
  static void globalShutdown();
  static RstmGlobals &globals() { return rstmGlobals(); }
};

} // namespace stm::rstm

namespace stm {
using Rstm = rstm::Rstm;
} // namespace stm

#endif // STM_RSTM_RSTM_H
