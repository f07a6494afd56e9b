//===- stm/EpochManager.h - epoch-based descriptor reclamation --*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Invisible readers dereference other threads' transaction descriptors
// and write-log entries through stripe lock words: SwissTM and TinySTM
// publish a StripeWrite* in the lock, RSTM publishes the descriptor in
// its slot table (its ownership records name the slot). A descriptor
// must therefore outlive every transaction that could have observed
// such a pointer, even after its owning thread exits. The EpochManager provides that
// guarantee with classic epoch-based reclamation:
//
//   * every transaction pins the current global epoch on begin (one
//     load, one store and one seq_cst fence — the fence is the dominant
//     cost and is load-bearing, see pin()) and quiesces on commit/abort
//     (one release store);
//   * an exiting thread parks its descriptor on a global limbo list
//     instead of destroying it (see ThreadScope), stamped with the
//     current epoch; the retire advances the global epoch;
//   * a limbo entry is destroyed only once no registered slot is still
//     pinned at or below the entry's retire epoch, i.e. every
//     transaction that could have observed the pointer has finished.
//
// The scheme relies on unlink-before-retire: all stripe locks are
// released (and RSTM's slot-table entry cleared) before the descriptor
// is retired, so a transaction pinned after the retire can never reach
// the parked memory, while one pinned before it blocks reclamation.
//
//===----------------------------------------------------------------------===//

#ifndef STM_EPOCHMANAGER_H
#define STM_EPOCHMANAGER_H

#include "support/Padded.h"
#include "support/Platform.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace stm {

/// Process-wide grace-period tracker and limbo list. All members are
/// static; like the ThreadRegistry it lives for the whole process.
class EpochManager {
public:
  /// Epoch published while a slot has no transaction in flight. Slots
  /// are zero-initialized, so an unregistered slot is quiescent.
  static constexpr uint64_t Quiescent = 0;

  /// Publishes that \p Slot entered a transaction at the current global
  /// epoch. Must precede the transaction's first lock-word read. Two
  /// orderings make the protocol sound:
  ///   * the acquire epoch load pairs with retire()'s increment, so a
  ///     pin that reads an epoch past a retire also sees the retiree's
  ///     unlinked lock words (such entries are freed under the pin);
  ///   * the seq_cst fence pairs with the one in minPinnedEpoch(): a
  ///     collector that misses this pin finished its scan before the
  ///     fence, so the transaction's subsequent loads see every unlink
  ///     that preceded that scan and cannot reach the freed memory.
  static void pin(unsigned Slot) {
    epochs()[Slot].value().store(globalEpoch().load(std::memory_order_acquire),
                                 std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Publishes that \p Slot finished its transaction. The release store
  /// is what a collector's scan synchronizes with before running
  /// deleters, closing the happens-before chain from the transaction's
  /// last dereference to the free.
  static void unpin(unsigned Slot) {
    epochs()[Slot].value().store(Quiescent, std::memory_order_release);
  }

  /// The epoch \p Slot is pinned at, or Quiescent.
  static uint64_t pinnedEpoch(unsigned Slot) {
    return epochs()[Slot].value().load(std::memory_order_acquire);
  }

  using Deleter = void (*)(void *);

  /// Parks \p Ptr on the limbo list, stamped with the current epoch, and
  /// advances the global epoch so later pins cannot block this entry's
  /// grace period. \p Del destroys the object once the period passes.
  /// \p Ptr must already be unlinked from all globally visible state.
  static void retire(void *Ptr, Deleter Del);

  /// Type-safe retire: destroys with delete after the grace period.
  template <typename T> static void retireObject(T *Ptr) {
    retire(static_cast<void *>(Ptr),
           [](void *P) { delete static_cast<T *>(P); });
  }

  /// Destroys every limbo entry whose grace period has passed. Returns
  /// the number destroyed. Called opportunistically by retire() once the
  /// limbo list grows past a threshold.
  static std::size_t collect();

  /// Destroys everything in limbo regardless of epochs. Only safe when
  /// no transaction can be in flight (global STM shutdown, tests).
  static std::size_t releaseAll();

  /// Number of entries currently parked in limbo.
  static std::size_t limboSize();

  /// Current value of the global epoch (monotonic; bumped by retire).
  static uint64_t currentEpoch() {
    return globalEpoch().load(std::memory_order_acquire);
  }

  /// Smallest epoch pinned by any registered slot, or ~0ull when every
  /// slot is quiescent. An entry retired at epoch E is reclaimable once
  /// minPinnedEpoch() > E.
  static uint64_t minPinnedEpoch();

  /// Redirects the epoch storage to externally placed words (a shm
  /// segment; see stm/core/SharedArena.h). When \p CopyCurrent, current
  /// values are carried into the new storage first (segment creator);
  /// attachers bind the segment's live state untouched. The limbo list
  /// itself stays process-private — only the grace-period *signal* is
  /// global, so every process's reclaimer waits on every process's
  /// pins.
  static void placeStorage(repro::Padded<std::atomic<uint64_t>> *NewEpochs,
                           std::atomic<uint64_t> *NewGlobal, bool CopyCurrent);

  /// Re-points the storage at the in-image fallbacks (shared-arena
  /// teardown), carrying back the global epoch and the pins of the
  /// slots in \p KeepMask (this process's own; remote slots reset to
  /// Quiescent).
  static void resetStorage(uint64_t KeepMask);

private:
  static repro::Padded<std::atomic<uint64_t>> *epochs() {
    return EpochsP.load(std::memory_order_relaxed);
  }
  static std::atomic<uint64_t> &globalEpoch() {
    return *GlobalEpochP.load(std::memory_order_relaxed);
  }

  /// Starts at 1 so no pin ever publishes the Quiescent value.
  static std::atomic<uint64_t> GlobalEpoch;
  static repro::Padded<std::atomic<uint64_t>> Epochs[repro::MaxThreads];
  static std::atomic<std::atomic<uint64_t> *> GlobalEpochP;
  static std::atomic<repro::Padded<std::atomic<uint64_t>> *> EpochsP;
};

} // namespace stm

#endif // STM_EPOCHMANAGER_H
