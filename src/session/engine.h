// The closed-loop session engine: drives N simulated users through
// login -> edit -> compile -> share -> logout scripts against a booted
// kernel, with seeded arrivals, exponential think times, and Zipf-skewed
// directory/segment popularity.
//
// The engine plays two outside-the-kernel roles: system administration
// (registering the user pool and building the shared project/library tree
// at Prepare time) and the terminal concentrator (scheduling login arrivals
// and running the dispatch loop until every session logs out). The sessions
// themselves are ordinary user processes created through the de-privileged
// answering service, which also destroys each one at logout — the kernel's
// certified surface is exercised, never bypassed.

#ifndef SRC_SESSION_ENGINE_H_
#define SRC_SESSION_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/core/kernel.h"
#include "src/session/session.h"
#include "src/userring/answering_service.h"

namespace multics {
namespace session {

struct SessionEngineConfig {
  uint32_t sessions = 100;
  uint32_t user_pool = 32;      // Registered users, shared round-robin.
  uint32_t project_dirs = 16;   // Zipf-popular project directories.
  uint32_t hot_segments = 32;   // Zipf-popular library segments.
  double zipf_s = 1.1;
  Cycles mean_think = 20000;
  Cycles mean_interarrival = 2000;  // Session arrival spacing (geometric).
  uint32_t interactions = 6;
  double batch_fraction = 0.2;  // Absentee (compile-heavy) sessions.
  uint32_t compile_steps = 24;
  Cycles compile_burst = 3000;
  Cycles edit_cost = 400;
  uint64_t seed = 1;
  uint64_t max_slices = 500'000'000;  // Runaway backstop for Run().
};

struct SessionEngineStats {
  uint32_t completed = 0;        // Sessions that logged out cleanly.
  uint32_t failed_sessions = 0;  // Sessions that aborted mid-script.
  uint32_t failed_logins = 0;    // Arrivals the answering service refused.
  Distribution latency;              // Login->logout, all sessions.
  Distribution interactive_latency;  // The headline responsiveness metric.
  Distribution batch_latency;
  Cycles makespan = 0;  // First arrival to last logout.
  uint64_t slices = 0;  // Dispatches consumed by the whole run.
};

class SessionEngine {
 public:
  // Builds the engine on a booted kernel: creates the answering service,
  // registers the user pool, and constructs the shared directory tree.
  static Result<std::unique_ptr<SessionEngine>> Create(Kernel* kernel,
                                                       const SessionEngineConfig& config);

  // Runs the arrivals and the world until every session has finished and
  // been logged out (or the slice backstop trips). Deterministic for a
  // fixed (seed, cpus).
  Status Run();

  const SessionEngineStats& stats() const { return stats_; }
  uint32_t interactive_class() const { return interactive_class_; }
  uint32_t batch_class() const { return batch_class_; }
  AnsweringService& answering() { return *answering_; }

  // Observer hook for live tooling (mx_top): `fn(slices)` is called from
  // Run()'s dispatch loop every `every_n_slices` completed slices. The
  // observer runs between slices, on the host only — it may read kernel
  // state but must not mutate it, and the simulation is byte-identical
  // whether or not an observer is installed.
  void SetTickObserver(std::function<void(uint64_t)> fn, uint64_t every_n_slices) {
    tick_ = std::move(fn);
    tick_every_ = every_n_slices == 0 ? 1 : every_n_slices;
  }

  uint32_t outstanding() const { return outstanding_; }

 private:
  SessionEngine(Kernel* kernel, const SessionEngineConfig& config);

  Status Prepare();
  // Schedules session `index`'s arrival after the one at `previous`.
  void ScheduleArrival(uint32_t index, Cycles previous);
  void StartSession(uint32_t index);
  void FinishSession(uint32_t index, ProcessId pid, bool ok);
  // Has the answering service log out every queued finished session.
  void LogOutFinished();

  Kernel* kernel_;
  SessionEngineConfig config_;
  WorkloadParams params_;
  std::unique_ptr<AnsweringService> answering_;
  Process* operator_ = nullptr;  // Ring-0 setup process (Prepare only).
  Rng master_rng_;

  uint32_t interactive_class_ = 0;
  uint32_t batch_class_ = 0;

  std::vector<Cycles> started_at_;  // Arrival (login-request) time per session.
  std::vector<bool> is_batch_;
  // Arrival events only queue the index here; Run() performs the logins at
  // top level. (A login faults on the password segment, and servicing the
  // fault drains the event queue — logging in from inside the arrival event
  // would nest every backlogged arrival on the stack.)
  std::vector<uint32_t> pending_arrivals_;
  // Finished sessions' processes, queued the same way: a session finishes
  // inside its own step, and Run() logs it out once that step has returned.
  std::vector<ProcessId> pending_logouts_;
  uint32_t outstanding_ = 0;  // Scheduled or running, not yet finished.
  Cycles first_arrival_ = 0;
  Cycles last_finish_ = 0;
  SessionEngineStats stats_;
  std::function<void(uint64_t)> tick_;  // See SetTickObserver.
  uint64_t tick_every_ = 0;
};

}  // namespace session
}  // namespace multics

#endif  // SRC_SESSION_ENGINE_H_
