// One simulated interactive user session.
//
// A session is the workload unit of the ten-thousand-user engine: a script
// that logs in through the answering service, builds a scratch segment in a
// Zipf-chosen project directory, then alternates think-time pauses with
// edit and share interactions against Zipf-popular library segments, with an
// optional compile phase (absentee sessions) before logout. Every action is
// an ordinary gate call made by the user's own process — the session layer
// sits entirely above the kernel's certified surface and never reaches into
// kernel internals.
//
// Think time is the terminal side of the loop: the task schedules a wakeup
// event (the simulated terminal interrupt) and blocks on its own IPC
// channel. That blocked->ready transition is exactly what the traffic
// controller's interactive promotion rewards.

#ifndef SRC_SESSION_SESSION_H_
#define SRC_SESSION_SESSION_H_

#include <functional>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/core/kernel.h"

namespace multics {
namespace session {

// World the sessions share, owned by the engine and immutable while running.
struct WorkloadParams {
  std::vector<std::string> project_dirs;  // Root-level project directories.
  std::string library_dir;                // Root-level dir of hot segments.
  uint32_t hot_segments = 0;              // "hot_<i>" entries in library_dir.
  double zipf_s = 1.1;                    // Popularity skew for dirs/segments.
  Cycles mean_think = 20000;              // Mean think time between actions.
  uint32_t interactions = 6;              // Edit/share actions per session.
  uint32_t compile_steps = 24;            // CPU bursts in the compile phase.
  Cycles compile_burst = 3000;            // Cycles per compile burst.
  Cycles edit_cost = 400;                 // Editor CPU per interaction.
};

// The user process program for one session. Created by the engine and handed
// to AnsweringService::Login as the initial procedure of the new process.
class SessionTask : public Task {
 public:
  // `finished(index, pid, ok)` fires exactly once, from the final Step;
  // `pid` is the session's own process, which the engine logs out.
  using Finished = std::function<void(uint32_t, ProcessId, bool)>;
  SessionTask(Kernel* kernel, const WorkloadParams* params, uint32_t index,
              uint64_t seed, bool batch, Finished finished);

  TaskState Step(TaskContext& ctx) override;

  bool batch() const { return batch_; }

 private:
  enum class Phase { kSetup, kThink, kInteract, kCompile, kCleanup };

  TaskState DoSetup(TaskContext& ctx);
  TaskState DoThink(TaskContext& ctx);
  TaskState DoInteract(TaskContext& ctx);
  TaskState DoCompile(TaskContext& ctx);
  TaskState DoCleanup(TaskContext& ctx);
  // Best-effort bail-out: remembers the failure and jumps to cleanup.
  TaskState Abort(TaskContext& ctx);

  Kernel* kernel_;
  const WorkloadParams* params_;
  uint32_t index_;
  Rng rng_;
  bool batch_;
  Finished finished_;

  Phase phase_ = Phase::kSetup;
  bool failed_ = false;
  uint32_t interactions_done_ = 0;
  uint32_t compile_done_ = 0;
  bool think_scheduled_ = false;

  SegNo dir_segno_ = kInvalidSegNo;      // The session's project directory.
  SegNo lib_segno_ = kInvalidSegNo;      // The shared library directory.
  SegNo scratch_segno_ = kInvalidSegNo;  // The session's working segment.
  std::string scratch_name_;
  ChannelId channel_ = 0;  // Terminal wakeup channel, guarded by scratch.
};

// Splitmix-style seed derivation so each session's generator is independent
// of every other session's and of dispatch interleaving.
uint64_t SessionSeed(uint64_t engine_seed, uint32_t index);

}  // namespace session
}  // namespace multics

#endif  // SRC_SESSION_SESSION_H_
