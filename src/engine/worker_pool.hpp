#pragma once

// Resident worker threads for the sharded feed path: the only way a
// parallel batch is drained. A WorkerPool keeps one long-lived thread per
// worker slot, woken by a per-slot condition variable only when its
// shard's queue is non-empty, so a dispatch costs a wakeup, not a thread
// spawn. One pool can serve many shard sets (the serve layer shares a
// single pool across every tenant session); dispatches from different
// threads are serialized internally.
//
// All locking here is annotated for Clang's thread-safety analysis
// (-DMPIPRED_THREAD_SAFETY_ANALYSIS=ON): the per-slot handoff state is
// MPIPRED_GUARDED_BY the slot mutex, dispatch serialization state by
// run_mu_, and the public entry points are MPIPRED_EXCLUDES(run_mu_) so a
// job that re-enters run() — the documented self-deadlock — is a compile
// error at any call site the analysis can see.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace mpipred::engine {

/// Fixed set of resident worker threads, one per slot, each woken through
/// its own condition variable — the shard fan-out never broadcasts to
/// workers that have nothing queued. Threads start lazily on the first
/// dispatch that needs them and are joined by the destructor (which first
/// lets any in-flight job finish: shutdown never drops queued work).
class WorkerPool {
 public:
  /// Work for one dispatch: called as job(slot) on slot's resident thread.
  using Job = std::function<void(std::size_t)>;

  /// `workers` slots (may be 0: every dispatch then runs entirely on the
  /// calling thread).
  explicit WorkerPool(std::size_t workers);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Blocks until in-flight jobs finish, then stops and joins all threads.
  /// Serializes against concurrent run() calls (but a run() blocked on a
  /// never-finishing job still blocks destruction).
  ~WorkerPool() MPIPRED_EXCLUDES(run_mu_);

  /// Wakes the slots named in `slots` to execute job(slot), runs
  /// caller_job() on the calling thread, and returns when every job has
  /// completed. The first error (worker or caller) is rethrown after all
  /// jobs finish, so no job is ever abandoned mid-flight. A slot whose
  /// thread cannot be started (thread exhaustion) runs its job on the
  /// calling thread instead — work is never lost. Concurrent run() calls
  /// from different threads are serialized internally (the serve layer's
  /// tenants share one pool); the jobs of one dispatch must not themselves
  /// call run() — which is what the EXCLUDES annotation rejects statically.
  void run(std::span<const std::size_t> slots, const Job& job,
           const std::function<void()>& caller_job) MPIPRED_EXCLUDES(run_mu_);

  [[nodiscard]] std::size_t worker_count() const noexcept { return slots_.size(); }

  /// Threads actually started so far (lazy: 0 until the first dispatch).
  /// Takes the dispatch lock: started flags are written by concurrent
  /// run() calls, so an unlocked read would race them.
  [[nodiscard]] std::size_t started_count() const MPIPRED_EXCLUDES(run_mu_);

 private:
  struct Slot {
    common::Mutex mu;
    common::CondVar cv;
    /// Non-null while a job is pending or executing on this slot; the
    /// handoff in both directions happens under `mu`, which is what makes
    /// the shard-state writes of the worker visible to the next reader.
    const Job* job MPIPRED_GUARDED_BY(mu) = nullptr;
    std::size_t index MPIPRED_GUARDED_BY(mu) = 0;
    bool stop MPIPRED_GUARDED_BY(mu) = false;
    std::exception_ptr error MPIPRED_GUARDED_BY(mu);
    /// Thread-start state. Guarded by run_mu_ (the analysis cannot name an
    /// enclosing-class capability from a nested struct, so the discipline
    /// is enforced by the REQUIRES/EXCLUDES annotations on the members
    /// that touch these two fields instead of GUARDED_BY here).
    bool started = false;
    std::thread thread;
  };

  void worker_loop(Slot& slot);

  /// True when the slot's thread is running (started now or earlier).
  bool ensure_started(Slot& slot) MPIPRED_REQUIRES(run_mu_);

  std::vector<std::unique_ptr<Slot>> slots_;
  /// Serializes whole dispatches; per-slot mutexes only guard handoffs.
  /// mutable: started_count() is a const observer but must still lock.
  mutable common::Mutex run_mu_;
};

}  // namespace mpipred::engine
