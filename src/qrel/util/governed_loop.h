// The governed-step protocol, written once. Every counted loop repeats a
// step t times (a Karp-Luby, naive MC or padded sample, a Cor 5.5 tuple,
// a falsifier world, one of Theorem 4.2's 2^u worlds, a brute-force
// assignment), in one order: claim the checkpoint scope → resume → per
// step, checkpoint if due → ChargeWork → fault site → the step body; and
// one truncation rule when the envelope trips. The caller keeps its kind,
// fingerprint, fault site and payload, and validates a resumed payload
// against the live instance. A snapshot from the top of step s holds the
// state after s steps and the work charged for them; the resumed run
// charges step s again, so its work counter lands on the uninterrupted
// run's. Body and writer are template parameters: nothing is allocated
// per step, and the writer is wrapped only when a checkpoint is written.

#ifndef QREL_UTIL_GOVERNED_LOOP_H_
#define QREL_UTIL_GOVERNED_LOOP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "qrel/util/fault_injection.h"
#include "qrel/util/run_context.h"
#include "qrel/util/snapshot.h"
#include "qrel/util/status.h"

namespace qrel {

struct GovernedLoopSpec {
  std::string_view kind;     // snapshot kind (util/snapshot.h)
  uint64_t fingerprint = 0;  // resume fingerprint
  // Fault site hit once per step, after the charge; it registers when a
  // step first reaches it. Null for none. Its errors never truncate.
  const char* fault_site = nullptr;
  // Whether a deadline or work-budget trip, from the charge or the body,
  // after at least one completed step ends the loop with OK and
  // truncated() set instead of the error. Sound only where a prefix of the
  // steps is a usable smaller sample. Cancellation never truncates.
  bool allow_truncation = false;
  // Whether to claim the context's checkpointer; an unclaimed loop is
  // still charged and fault-injected and leaves it to a nested loop.
  bool claim = true;
};

class GovernedLoop {
 public:
  // `ctx` is nullable: ungoverned and never checkpointed.
  GovernedLoop(RunContext* ctx, const GovernedLoopSpec& spec)
      : ctx_(ctx),
        scope_(spec.claim ? ctx : nullptr, spec.kind, spec.fingerprint),
        fault_name_(spec.fault_site),
        allow_truncation_(spec.allow_truncation) {}

  GovernedLoop(const GovernedLoop&) = delete;
  GovernedLoop& operator=(const GovernedLoop&) = delete;

  // Consumes a snapshot of this loop's kind, if there is one: `read`
  // restores the loop state and validates it against the live instance
  // (kDataLoss on a mismatch); the payload must then be fully consumed.
  Status Resume(const std::function<Status(SnapshotReader&)>& read) {
    std::optional<SnapshotReader> reader;
    QREL_RETURN_IF_ERROR(scope_.TakeResume(&reader));
    if (!reader.has_value()) {
      return Status::Ok();
    }
    QREL_RETURN_IF_ERROR(read(*reader));
    return reader->ExpectEnd();
  }

  // Runs steps *step .. end−1; *step is the caller's completed-step
  // counter (and part of its payload), advanced after each `body()`.
  // `write(SnapshotWriter&)` serializes the state at the top of a step.
  template <typename Body, typename Write>
  Status Run(uint64_t* step, uint64_t end, Body&& body, Write&& write) {
    if (*step > end) {
      return Status::DataLoss("snapshot step past the end of the loop");
    }
    while (*step < end && !stopped_) {
      if (scope_.active() && scope_.CheckpointDue()) {
        QREL_RETURN_IF_ERROR(scope_.CheckpointNow(
            [&write](SnapshotWriter& writer) { write(writer); }));
      }
      Status status = ChargeWork(ctx_);
      if (status.ok() && fault_name_ != nullptr) {
        if (!fault_site_.has_value()) {
          fault_site_.emplace(fault_name_);
        }
        QREL_RETURN_IF_ERROR(fault_site_->Fire());
      }
      if (status.ok()) {
        status = body();
      }
      if (!status.ok()) {
        StatusCode code = status.code();
        if (allow_truncation_ && *step > 0 &&
            (code == StatusCode::kDeadlineExceeded ||
             code == StatusCode::kResourceExhausted)) {
          truncated_ = true;
          return Status::Ok();
        }
        return status;
      }
      ++*step;
    }
    return Status::Ok();
  }

  // Ends Run after the current step completes (e.g. a witness was found).
  void Stop() { stopped_ = true; }
  // Run ended early on an envelope trip under allow_truncation.
  bool truncated() const { return truncated_; }

 private:
  RunContext* ctx_;
  CheckpointScope scope_;
  const char* fault_name_;
  std::optional<FaultSite> fault_site_;
  bool allow_truncation_;
  bool stopped_ = false;
  bool truncated_ = false;
};

}  // namespace qrel

#endif  // QREL_UTIL_GOVERNED_LOOP_H_
