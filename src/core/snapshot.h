#ifndef FDRMS_CORE_SNAPSHOT_H_
#define FDRMS_CORE_SNAPSHOT_H_

/// \file snapshot.h
/// Persistence for a running FD-RMS instance.
///
/// A long-lived dynamic index needs to survive process restarts without
/// replaying its whole update history. SaveSnapshot writes the logical
/// state — options (including the utility-sampling seed), the current
/// sample size m, and every live tuple — in a versioned, byte-exact text
/// format. LoadSnapshot rebuilds the dual-tree and the stable set-cover
/// solution deterministically from that state.
///
/// Note: the set-cover solution itself is *recomputed* (greedy + stabilize)
/// on load rather than serialized. Any stable solution is a valid result
/// carrier (Theorem 1), so the loaded instance is equivalent in guarantees,
/// though its Q_t may be a different same-quality representative set than
/// the one in memory at save time.

#include <iostream>
#include <memory>

#include "common/result.h"
#include "core/fdrms.h"

namespace fdrms {

/// Writes `algo`'s logical state to `os`. Fails on stream errors.
Status SaveSnapshot(const FdRms& algo, std::ostream* os);

/// Reconstructs an instance from a snapshot produced by SaveSnapshot.
/// Hostile input becomes kInvalidArgument: the header is bounded (the
/// utility sample it implies must fit a fixed cap) before anything is
/// allocated, and the tuple count is never trusted for a reservation.
Result<std::unique_ptr<FdRms>> LoadSnapshot(std::istream* is);

}  // namespace fdrms

#endif  // FDRMS_CORE_SNAPSHOT_H_
