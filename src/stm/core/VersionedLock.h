//===- stm/core/VersionedLock.h - version-in-word lock encoding -*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Every backend encodes a stripe's version number and its lock state in
// one machine word: the low bit(s) tag the lock state, the remaining
// bits carry the version (the commit timestamp of the last writer) or
// the owner's identity. The tag width is the only difference between the
// backends' encodings:
//
//   SwissTM r-lock   1 tag bit   version<<1 free, 1 locked
//   TL2 / TinySTM    1 tag bit   version<<1 free, descriptor|1 locked
//   RSTM orec        2 tag bits  version<<2 free, owner|1 owned,
//                                owner|3 owner committing (owner =
//                                per-attempt serial and slot, see
//                                rstm/Rstm.h)
//
// VersionedLockOps centralizes the shifts and masks so a backend states
// its tag width once instead of hand-rolling three helpers.
//
//===----------------------------------------------------------------------===//

#ifndef STM_CORE_VERSIONEDLOCK_H
#define STM_CORE_VERSIONEDLOCK_H

#include "stm/Word.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace stm::core {

/// Terminates with a diagnostic when a clock value no longer fits the
/// version field of a lock word. Must die loudly in every build mode:
/// silently truncating would alias the new version onto an old one and
/// let stale reads pass validation — the worst possible failure.
[[noreturn]] inline void versionOverflowFatal(uint64_t Version,
                                              unsigned TagBits) {
  std::fprintf(stderr,
               "stm: commit timestamp %llu exceeds the %u-bit version "
               "field of a %u-tag-bit lock word\n",
               static_cast<unsigned long long>(Version),
               unsigned(8 * sizeof(Word)) - TagBits, TagBits);
  std::abort();
}

/// Encoding helpers for a versioned lock word with \p TagBits low tag
/// bits. Bit 0 is always the "locked/owned" bit; what the other tag bits
/// mean (RSTM's "committing") is backend-specific.
template <unsigned TagBits> struct VersionedLockOps {
  static_assert(TagBits >= 1 && TagBits < 8, "unreasonable tag width");

  static constexpr Word TagMask = (Word(1) << TagBits) - 1;

  /// Largest version the encoding can carry without aliasing into the
  /// tag bits (2^62 for RSTM's two tag bits — a per-commit clock would
  /// need ~146 years at 1 GHz to get there, but a corrupted or
  /// miscomputed timestamp must not wrap silently).
  static constexpr uint64_t MaxVersion = ~Word(0) >> TagBits;

  /// True when the word carries a descriptor pointer, not a version.
  static bool isLocked(Word V) { return (V & 1) != 0; }

  /// The version of a free lock word.
  static uint64_t version(Word V) { return V >> TagBits; }

  /// A free lock word carrying \p Version. Aborts loudly on a version
  /// that would alias into the tag bits (predictable branch; cost-free
  /// next to the release store it guards).
  static Word make(uint64_t Version) {
    if (Version > MaxVersion)
      versionOverflowFatal(Version, TagBits);
    return static_cast<Word>(Version << TagBits);
  }

  /// The descriptor pointer of a locked word, tag bits stripped.
  template <typename T> static T *pointer(Word V) {
    return reinterpret_cast<T *>(V & ~TagMask);
  }
};

} // namespace stm::core

#endif // STM_CORE_VERSIONEDLOCK_H
