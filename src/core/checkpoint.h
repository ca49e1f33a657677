#ifndef NETMAX_CORE_CHECKPOINT_H_
#define NETMAX_CORE_CHECKPOINT_H_

// Bit-exact checkpoint/restore for experiment runs.
//
// A checkpoint captures everything a run's future depends on: per-worker
// model parameters, optimizer velocity, RNG and sampler streams, the pending
// event queue (as tagged, reified descriptions — see net::EventPayload), the
// simulator clock and sequence counter, the harness's recorded series, and an
// engine-specific state blob. Restoring the checkpoint and finishing the run
// produces a RunResult bit-identical to the uninterrupted run, on any
// execution backend.
//
// Two properties make that work:
//  * Quiesce-before-save: the checkpoint event runs on the simulator thread
//    and first invalidates every speculated compute evaluation
//    (NotifyStateWrite per worker), so all serialized state is at its
//    committed value; invalidated evaluations re-run afterwards and
//    reproduce the same bits because compute halves are pure.
//  * Exact sequence restore: pending events are re-inserted with the saved
//    (time, sequence) identity, so every tie-break after the restore matches
//    the original run. The checkpoint event itself consumes one sequence
//    number, shifting all later sequences uniformly relative to a run that
//    never armed one — a strictly monotone shift that preserves every
//    relative ordering, which is why checkpointed and checkpoint-free runs
//    also match each other bit for bit.
//
// The engine side of all this is one call: ExperimentHarness::Run (declared
// in core/experiment.h, checkpoint parts implemented in core/checkpoint.cc)
// takes the engine's hooks — its event builder, fresh-run start, and blob
// save/restore — and runs the lifecycle register -> restore or start -> arm
// -> run -> check -> finalize. Engines schedule every event through
// ExperimentHarness::Emit/EmitAt, which build the closures with the same
// builder the restore path uses. The engine blob holds only the engine's own
// state; NetMax and AD-PSGD+Monitor end theirs with the Algorithm-1 monitor's
// section (NetworkMonitor::Save). Restores treat the bytes as untrusted: every
// stored count is bounded by the remaining input before anything is
// allocated (Deserializer::CheckCount). This header has the wire-format
// constants, the file helpers, and the matrix/policy round trip.

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "core/policy.h"
#include "linalg/matrix.h"
#include "net/topology.h"

namespace netmax::core {

// "NMCP" / "NMCE": header magic and end marker of the checkpoint format.
inline constexpr uint32_t kCheckpointMagic = 0x4E4D4350;
inline constexpr uint32_t kCheckpointEndMarker = 0x4E4D4345;
// Version 2 added the fault-injection state (liveness flags, slowdown
// factors, fault counters) and the periodic-cadence tick index. Version 3
// added the wire-accounting counters (messages/bytes sent, bytes saved), the
// per-worker communication-round index, and the compression spec in the
// config fingerprint. Version 4 moved the dead-peer policy into the harness:
// its parked-chain flags and round-blockage flag left the engine blobs for
// the harness section, and pending peer waits, timeouts, degraded local
// steps and round retries became harness-tagged events.
inline constexpr uint32_t kCheckpointVersion = 4;

// Whole-file read/write. Write goes through a temp file + rename so a crash
// mid-write never leaves a truncated checkpoint at `path`.
Status WriteCheckpointFile(const std::string& path,
                           const std::vector<uint8_t>& bytes);
StatusOr<std::vector<uint8_t>> ReadCheckpointFile(const std::string& path);

// Matrix round trip. LoadMatrix refuses (kInvalidArgument) any stored shape
// other than the expected `rows` x `cols` before it allocates, and checks the
// data fits the remaining input.
void SaveMatrix(Serializer& out, const linalg::Matrix& matrix);
StatusOr<linalg::Matrix> LoadMatrix(Deserializer& in, int rows, int cols);

// A communication policy saved with SaveMatrix, restored over `topology`: the
// matrix must be n x n, every entry a non-negative number (the peer sampler
// aborts on anything else), and the policy must pass Validate(topology).
StatusOr<CommunicationPolicy> LoadPolicy(Deserializer& in,
                                         const net::Topology& topology);

}  // namespace netmax::core

#endif  // NETMAX_CORE_CHECKPOINT_H_
