#ifndef WSVERIFY_OBS_OBS_H_
#define WSVERIFY_OBS_OBS_H_

// Umbrella header for the observability subsystem (DESIGN: the measurement
// backbone of the verification pipeline):
//
//   metrics.h      — Counter / Histogram and the named Registry
//   timer.h        — NowNanos(), the RAII PhaseTimer, the phase tree (the
//                    one record of phase time) and the timing switch
//   trace.h        — Chrome trace-event recorder (chrome://tracing, Perfetto)
//   progress.h     — periodic stderr heartbeat (rates + ETA)
//   stats_json.h   — versioned stats-JSON document (schema v5)
//   json_util.h    — streaming JSON writer + DOM parser
//   lock_profile.h — TimedMutex contention accounting
//
// Conventions: counters and histograms are dot-namespaced by pipeline stage
// ("engine.", "dbenum.", "graph.", "leafcache.", "ndfs.", "sim."), lock
// sites under "lock.<site>."; phase times are phase-tree paths joined with
// '/' ("total/check_db/ndfs"). Counters are always collected (an increment
// each); phase timing, tracing, and the heartbeat are opt-in and cost one
// branch when off. Per-worker time ledgers live in common/ledger.h so the
// thread pool can record without a dependency on this library.

#include "obs/json_util.h"     // IWYU pragma: export
#include "obs/lock_profile.h"  // IWYU pragma: export
#include "obs/metrics.h"       // IWYU pragma: export
#include "obs/progress.h"      // IWYU pragma: export
#include "obs/stats_json.h"    // IWYU pragma: export
#include "obs/timer.h"         // IWYU pragma: export
#include "obs/trace.h"         // IWYU pragma: export

#endif  // WSVERIFY_OBS_OBS_H_
