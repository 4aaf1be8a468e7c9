#include "mpi/communicator.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace mpipred::mpi {

Communicator::Communicator(World& world, sim::Rank& rank, std::uint32_t comm_id,
                           std::vector<int> group, int local_rank)
    : world_(&world),
      sim_rank_(&rank),
      endpoint_(&world.endpoint(rank.id())),
      comm_id_(comm_id),
      group_(std::move(group)),
      local_rank_(local_rank) {}

int Communicator::to_world(int local) const {
  MPIPRED_REQUIRE(local >= 0 && local < size(), "local rank out of range");
  return group_[static_cast<std::size_t>(local)];
}

int Communicator::coll_tag(trace::Op op, int step) const {
  MPIPRED_REQUIRE(step >= 0 && step < 128, "collective step out of range");
  // Negative tag space: never matched by kAnyTag. Layout keeps tags unique
  // across (op, call generation mod 4096, step) which, combined with
  // per-pair FIFO and in-order matching, rules out cross-call confusion.
  const int op_idx = static_cast<int>(op);
  const int gen = coll_seq_ % 4096;
  return -(1 + step + 128 * (gen + 4096 * op_idx));
}

Request Communicator::isend_tagged(std::span<const std::byte> data, int dst_local, int tag,
                                   trace::OpKind kind, trace::Op op) {
  MPIPRED_REQUIRE(!is_null(), "operation on a null communicator");
  auto st = endpoint_->post_send(data, to_world(dst_local), tag, comm_id_, kind, op);
  return Request(*sim_rank_, std::move(st));
}

Request Communicator::irecv_tagged(std::span<std::byte> buf, int src_local, int tag,
                                   trace::OpKind kind, trace::Op op) {
  MPIPRED_REQUIRE(!is_null(), "operation on a null communicator");
  const int src_world = (src_local == kAnySource) ? kAnySource : to_world(src_local);
  auto st = endpoint_->post_recv(buf, src_world, tag, comm_id_, kind, op);
  return Request(*sim_rank_, std::move(st));
}

void Communicator::send(std::span<const std::byte> data, int dst, int tag) {
  MPIPRED_REQUIRE(tag >= 0, "user tags must be non-negative");
  Request r = isend_tagged(data, dst, tag, trace::OpKind::PointToPoint, trace::Op::Recv);
  r.wait();
}

Status Communicator::recv(std::span<std::byte> buf, int src, int tag) {
  MPIPRED_REQUIRE(tag >= 0 || tag == kAnyTag, "user tags must be non-negative (or kAnyTag)");
  Request r = irecv_tagged(buf, src, tag, trace::OpKind::PointToPoint, trace::Op::Recv);
  r.wait();
  return r.status();
}

Request Communicator::isend(std::span<const std::byte> data, int dst, int tag) {
  MPIPRED_REQUIRE(tag >= 0, "user tags must be non-negative");
  return isend_tagged(data, dst, tag, trace::OpKind::PointToPoint, trace::Op::Recv);
}

Request Communicator::irecv(std::span<std::byte> buf, int src, int tag) {
  MPIPRED_REQUIRE(tag >= 0 || tag == kAnyTag, "user tags must be non-negative (or kAnyTag)");
  return irecv_tagged(buf, src, tag, trace::OpKind::PointToPoint, trace::Op::Recv);
}

Status Communicator::sendrecv(std::span<const std::byte> sdata, int dst, int stag,
                              std::span<std::byte> rbuf, int src, int rtag) {
  Request rr = irecv(rbuf, src, rtag);
  Request sr = isend(sdata, dst, stag);
  sr.wait();
  rr.wait();
  return rr.status();
}

Communicator Communicator::split(int color, int key) {
  MPIPRED_REQUIRE(!is_null(), "split on a null communicator");
  MPIPRED_REQUIRE(color == kUndefinedColor || (color >= 0 && color < 65536),
                  "split color must be in [0, 65536) or kUndefinedColor");
  const int gen = split_seq_++;
  MPIPRED_REQUIRE(gen < 65536, "too many split generations");

  // Exchange (color, key) of every member, then derive groups locally —
  // every member computes the same result from the same data.
  struct Entry {
    std::int32_t color;
    std::int32_t key;
  };
  const Entry mine{color, key};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  allgather(std::as_bytes(std::span{&mine, 1}), std::as_writable_bytes(std::span{all}));

  if (color == kUndefinedColor) {
    return Communicator(*world_, *sim_rank_, 0, {}, -1);
  }

  std::vector<std::pair<Entry, int>> members;  // (entry, parent local rank)
  for (int r = 0; r < size(); ++r) {
    if (all[static_cast<std::size_t>(r)].color == color) {
      members.emplace_back(all[static_cast<std::size_t>(r)], r);
    }
  }
  std::stable_sort(members.begin(), members.end(), [](const auto& a, const auto& b) {
    return a.first.key != b.first.key ? a.first.key < b.first.key : a.second < b.second;
  });

  std::vector<int> group;
  group.reserve(members.size());
  int my_local = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].second == local_rank_) {
      my_local = static_cast<int>(i);
    }
    group.push_back(to_world(members[i].second));
  }
  MPIPRED_REQUIRE(my_local >= 0, "split member list must contain the caller");

  const std::uint64_t id_key = (static_cast<std::uint64_t>(comm_id_) << 32) |
                               (static_cast<std::uint64_t>(gen) << 16) |
                               static_cast<std::uint64_t>(color);
  const std::uint32_t new_id = world_->comm_id_for(id_key);
  return Communicator(*world_, *sim_rank_, new_id, std::move(group), my_local);
}

}  // namespace mpipred::mpi
