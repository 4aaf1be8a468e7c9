#include "mpi/request.hpp"

#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"

namespace mpipred::mpi {

Request::Request(sim::Rank& rank, std::shared_ptr<detail::SendState> s)
    : rank_(&rank), send_(std::move(s)) {}

Request::Request(sim::Rank& rank, std::shared_ptr<detail::RecvState> r)
    : rank_(&rank), recv_(std::move(r)) {}

void Request::require_owner(const char* op) const {
  const int current = rank_->engine().current_rank();
  if (current != rank_->id()) {
    std::ostringstream os;
    os << op << "() called from rank " << current << " on a request bound to owning rank "
       << rank_->id() << " — requests may only be driven by the rank that created them";
    throw UsageError(os.str());
  }
}

std::string Request::describe() const {
  std::ostringstream os;
  if (send_) {
    os << "send(dst=" << send_->dst << ", tag=" << send_->tag << ")";
  } else if (recv_) {
    os << "recv(src=";
    if (recv_->src_filter == kAnySource) {
      os << "any";
    } else {
      os << recv_->src_filter;
    }
    os << ", tag=";
    if (recv_->tag_filter == kAnyTag) {
      os << "any";
    } else {
      os << recv_->tag_filter;
    }
    os << ")";
  } else {
    os << "null";
  }
  return os.str();
}

void Request::wait() {
  if (ready()) {
    return;
  }
  require_owner("wait");
  while (!ready()) {
    rank_->block(send_ ? "wait(send)" : "wait(recv)");
  }
}

const Status& Request::status() const {
  MPIPRED_REQUIRE(recv_ != nullptr && recv_->complete,
                  "status() requires a completed receive request");
  return recv_->status;
}

void Request::wait_all(std::span<Request> reqs) {
  sim::Rank* owner = nullptr;
  for (Request& r : reqs) {
    if (!r.valid()) {
      continue;  // null entries are trivially complete
    }
    if (!r.ready()) {
      r.require_owner("wait_all");
    }
    MPIPRED_REQUIRE(owner == nullptr || owner == r.rank_,
                    "wait_all requires all requests to share one owning rank");
    owner = r.rank_;
  }
  if (owner == nullptr) {
    return;
  }
  for (;;) {
    const Request* blocking = nullptr;
    for (Request& r : reqs) {
      if (r.valid() && !r.ready()) {
        blocking = &r;
        break;
      }
    }
    if (blocking == nullptr) {
      return;
    }
    owner->block("wait_all: " + blocking->describe());
  }
}

}  // namespace mpipred::mpi
