#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/request.hpp"
#include "mpi/status.hpp"
#include "mpi/types.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"
#include "trace/event.hpp"

namespace mpipred::mpi {

/// A group of ranks with its own matching context — the MPI_Comm
/// equivalent. All destinations/sources in the API are *local* ranks within
/// this communicator. The world communicator is handed to each rank's
/// program by World::run(); sub-communicators come from split().
///
/// All byte-span entry points have typed convenience wrappers in
/// `mpi/typed.hpp`.
class Communicator {
 public:
  [[nodiscard]] int rank() const noexcept { return local_rank_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(group_.size()); }
  [[nodiscard]] bool is_null() const noexcept { return group_.empty(); }
  [[nodiscard]] int world_rank() const noexcept { return sim_rank_->id(); }
  [[nodiscard]] int to_world(int local) const;
  [[nodiscard]] World& world() noexcept { return *world_; }
  [[nodiscard]] sim::Rank& sim_rank() noexcept { return *sim_rank_; }

  /// Spends simulated CPU time on this rank (jittered by the configured
  /// compute noise — the "load imbalance" knob).
  void compute(sim::SimTime d) { sim_rank_->compute(d); }

  // --- point-to-point -----------------------------------------------------

  /// Blocking send; returns when the payload has been handed to the NIC
  /// (eager) or fully transferred (rendezvous). Tags must be >= 0.
  void send(std::span<const std::byte> data, int dst, int tag = 0);

  /// Blocking receive into `buf`. `src` may be kAnySource, `tag` kAnyTag.
  Status recv(std::span<std::byte> buf, int src, int tag = 0);

  [[nodiscard]] Request isend(std::span<const std::byte> data, int dst, int tag = 0);
  [[nodiscard]] Request irecv(std::span<std::byte> buf, int src, int tag = 0);

  /// Combined send+receive that cannot deadlock (both posted first).
  Status sendrecv(std::span<const std::byte> sdata, int dst, int stag, std::span<std::byte> rbuf,
                  int src, int rtag);

  // --- collectives ----------------------------------------------------------
  // Deterministic algorithms built from p2p (binomial trees, recursive
  // doubling, ring, pairwise exchange), mirroring MPICH-era choices. Their
  // internal receives are traced with OpKind::Collective.

  void barrier();
  void bcast(std::span<std::byte> data, int root);
  void reduce(std::span<const std::byte> in, std::span<std::byte> out, Datatype dtype, ReduceOp op,
              int root);
  void allreduce(std::span<const std::byte> in, std::span<std::byte> out, Datatype dtype,
                 ReduceOp op);
  /// Gathers size()-equal blocks: `out` (root only) is size() * in.size().
  void gather(std::span<const std::byte> in, std::span<std::byte> out, int root);
  void allgather(std::span<const std::byte> in, std::span<std::byte> out);
  /// Scatters size()-equal blocks from root's `in` (size() * out.size()).
  void scatter(std::span<const std::byte> in, std::span<std::byte> out, int root);
  void alltoall(std::span<const std::byte> in, std::span<std::byte> out);
  /// Variable alltoall with packed blocks: block i of `in` has
  /// send_counts[i] bytes; `out` receives packed blocks of recv_counts[i].
  void alltoallv(std::span<const std::byte> in, std::span<const std::int64_t> send_counts,
                 std::span<std::byte> out, std::span<const std::int64_t> recv_counts);
  /// Equal-block reduce_scatter: every rank contributes `in` (size() blocks
  /// of out.size() bytes) and receives its reduced block in `out`.
  void reduce_scatter_block(std::span<const std::byte> in, std::span<std::byte> out,
                            Datatype dtype, ReduceOp op);
  /// Inclusive prefix reduction.
  void scan(std::span<const std::byte> in, std::span<std::byte> out, Datatype dtype, ReduceOp op);

  /// Color for split() meaning "I don't join any new communicator".
  static constexpr int kUndefinedColor = -1;

  /// Splits into sub-communicators, one per color; members ordered by
  /// (key, parent rank). Collective over the parent. Returns a null
  /// communicator for kUndefinedColor.
  [[nodiscard]] Communicator split(int color, int key);

 private:
  friend class World;

  Communicator(World& world, sim::Rank& rank, std::uint32_t comm_id, std::vector<int> group,
               int local_rank);

  // Internal p2p used by both the public API and the collectives: takes
  // the trace annotation explicitly.
  [[nodiscard]] Request isend_tagged(std::span<const std::byte> data, int dst_local, int tag,
                                     trace::OpKind kind, trace::Op op);
  [[nodiscard]] Request irecv_tagged(std::span<std::byte> buf, int src_local, int tag,
                                     trace::OpKind kind, trace::Op op);

  /// Tag for internal collective traffic (negative, invisible to kAnyTag).
  [[nodiscard]] int coll_tag(trace::Op op, int step) const;

  World* world_;
  sim::Rank* sim_rank_;
  detail::Endpoint* endpoint_;
  std::uint32_t comm_id_;
  std::vector<int> group_;  // local rank -> world rank
  int local_rank_;
  int coll_seq_ = 0;   // per-communicator collective call counter
  int split_seq_ = 0;  // per-communicator split() counter
};

}  // namespace mpipred::mpi
