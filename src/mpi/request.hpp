#pragma once

#include <memory>
#include <span>
#include <string>

#include "mpi/detail/state.hpp"
#include "mpi/status.hpp"

namespace mpipred::sim {
class Rank;
}  // namespace mpipred::sim

namespace mpipred::mpi {

/// Handle for a nonblocking operation (isend/irecv). Default-constructed
/// requests are null (trivially ready). Copyable: copies share the
/// underlying operation, and any copy observes completion.
///
/// A request is bound to the rank that created it. An operation completes
/// on one path: a progress task on the owning endpoint sets its state
/// complete and wakes the owner. `ready()` is a pure observation and is
/// valid anywhere (including after World::run returns); `wait()` and
/// `wait_all()` block the owning rank's fiber until the completion lands,
/// and calling them on an incomplete request from another rank throws
/// UsageError instead of silently corrupting the scheduler.
class [[nodiscard]] Request {
 public:
  Request() = default;

  [[nodiscard]] bool valid() const noexcept { return send_ != nullptr || recv_ != nullptr; }

  /// True once the operation has completed. Pure observation: never
  /// drives progress, callable from any context.
  [[nodiscard]] bool ready() const noexcept {
    if (send_) {
      return send_->complete;
    }
    if (recv_) {
      return recv_->complete;
    }
    return true;  // null requests are trivially ready
  }

  /// Blocks the calling rank until the operation completes.
  void wait();

  /// Receive completion status; only valid for completed receives.
  [[nodiscard]] const Status& status() const;

  /// Waits for every valid request in `reqs` (they may complete in any
  /// order); null entries are skipped. Blocks on an all-complete predicate
  /// with a reason naming the specific operation still outstanding, so a
  /// deadlock report points at the stuck request instead of a generic
  /// wait(recv).
  static void wait_all(std::span<Request> reqs);

 private:
  friend class Communicator;

  Request(sim::Rank& rank, std::shared_ptr<detail::SendState> s);
  Request(sim::Rank& rank, std::shared_ptr<detail::RecvState> r);

  /// Throws UsageError unless the currently executing fiber is the owner.
  void require_owner(const char* op) const;
  [[nodiscard]] std::string describe() const;

  sim::Rank* rank_ = nullptr;
  std::shared_ptr<detail::SendState> send_;
  std::shared_ptr<detail::RecvState> recv_;
};

}  // namespace mpipred::mpi
