//===- stm/ThreadScope.h - per-thread STM attachment ------------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
//===----------------------------------------------------------------------===//

#ifndef STM_THREADSCOPE_H
#define STM_THREADSCOPE_H

#include "stm/EpochManager.h"
#include "stm/core/SharedArena.h"
#include "support/ThreadRegistry.h"

namespace stm {

/// RAII attachment of the current thread to an STM: claims a registry
/// slot and constructs the descriptor. Create exactly one per worker
/// thread.
///
/// The descriptor is heap-allocated and NOT destroyed when the scope
/// dies: a concurrent transaction that observed a stripe lock word may
/// still dereference the descriptor's write-log entries (or, for RSTM,
/// the descriptor itself, found through the slot table) after this
/// thread has exited. Destruction
/// therefore runs threadShutdown() — which unlinks the descriptor from
/// all globally visible state and drains its retired memory — and then
/// parks the descriptor on the EpochManager's limbo list, where it is
/// destroyed only after every transaction that could have observed it
/// has finished (grace period).
template <typename STM> class ThreadScope {
public:
  ThreadScope()
      : Slot(repro::ThreadRegistry::acquireSlot()),
        Descriptor(new typename STM::Tx(Slot)) {
    if (SharedArena::sharedActive())
      SharedArena::instance().bindSlot(Slot);
  }

  ~ThreadScope() {
    Descriptor->threadShutdown();
    EpochManager::retireObject(Descriptor);
    if (SharedArena::sharedActive())
      SharedArena::instance().unbindSlot(Slot);
    repro::ThreadRegistry::releaseSlot(Slot);
  }

  ThreadScope(const ThreadScope &) = delete;
  ThreadScope &operator=(const ThreadScope &) = delete;

  typename STM::Tx &tx() { return *Descriptor; }

private:
  unsigned Slot;
  typename STM::Tx *Descriptor;
};

} // namespace stm

#endif // STM_THREADSCOPE_H
