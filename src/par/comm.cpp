#include <pmemcpy/par/comm.hpp>

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace pmemcpy::par {

namespace detail {

/// Thrown into ranks blocked on a collective when a peer rank failed.
struct Aborted : std::runtime_error {
  Aborted() : std::runtime_error("par: peer rank aborted") {}
};

struct Message {
  std::vector<std::byte> data;
  double sender_time = 0.0;
};

struct State {
  explicit State(int n)
      : nranks(n),
        pub_ptr(static_cast<std::size_t>(n)),
        pub_len(static_cast<std::size_t>(n)),
        pub_counts(static_cast<std::size_t>(n)),
        pub_displs(static_cast<std::size_t>(n)) {}

  int nranks;

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::uint64_t generation = 0;
  double max_pending = 0.0;
  double current_max = 0.0;
  bool aborted = false;

  // Publication slots for the publish/consume/release collective pattern.
  std::vector<const void*> pub_ptr;
  std::vector<std::size_t> pub_len;
  std::vector<const std::size_t*> pub_counts;
  std::vector<const std::size_t*> pub_displs;

  // Point-to-point queues keyed by (src, dst, tag).
  std::map<std::tuple<int, int, int>, std::deque<Message>> queues;
  std::condition_variable p2p_cv;

  void abort_all() {
    std::lock_guard lk(mu);
    aborted = true;
    cv.notify_all();
    p2p_cv.notify_all();
  }
};

namespace {

double barrier_cost(const sim::Context& c) {
  const int n = c.nranks();
  const double depth = n > 1 ? std::ceil(std::log2(static_cast<double>(n))) : 0.0;
  return depth * c.model().net.latency;
}

/// Stream @p bytes through the shared-memory transport.
void charge_net(sim::Context& c, std::size_t bytes, std::size_t messages = 1) {
  const auto& net = c.model().net;
  c.advance(static_cast<double>(messages) * net.latency +
                static_cast<double>(bytes) /
                    c.shared_bw(net.stream_bw, net.total_bw),
            sim::Charge::kNetwork);
}

/// Reusable barrier; synchronises clocks to max(entry) + tree latency.
void barrier_sync(State& st) {
  auto& c = sim::ctx();
  std::unique_lock lk(st.mu);
  if (st.aborted) throw Aborted{};
  const std::uint64_t gen = st.generation;
  st.max_pending = st.arrived == 0 ? c.now() : std::max(st.max_pending, c.now());
  if (++st.arrived == st.nranks) {
    st.arrived = 0;
    st.current_max = st.max_pending;
    ++st.generation;
    st.cv.notify_all();
  } else {
    st.cv.wait(lk, [&] { return st.generation != gen || st.aborted; });
    if (st.aborted) throw Aborted{};
  }
  const double t = st.current_max;
  lk.unlock();
  // The wait for slower ranks is time spent blocked in the transport:
  // sync_to() keeps it attributed (Charge::kNetwork) instead of silently
  // jumping the clock, so traced spans still account for every second.
  c.sync_to(t, sim::Charge::kNetwork);
  c.advance(barrier_cost(c), sim::Charge::kNetwork);
}

}  // namespace
}  // namespace detail

using detail::barrier_sync;
using detail::charge_net;

void Comm::barrier() {
  trace::Span span("par.barrier");
  barrier_sync(*state_);
}

double Comm::timed_max(const std::function<void()>& body) {
  const double t0 = sim::ctx().now();
  body();
  return allreduce_max(sim::ctx().now() - t0);
}

void Comm::bcast(void* data, std::size_t bytes, int root) {
  auto& st = *state_;
  if (rank_ == root) st.pub_ptr[static_cast<std::size_t>(root)] = data;
  barrier_sync(st);
  auto& c = sim::ctx();
  if (rank_ != root) {
    std::memcpy(data, st.pub_ptr[static_cast<std::size_t>(root)], bytes);
  }
  charge_net(c, bytes);
  barrier_sync(st);
}

// The publishing collectives below throw a count mismatch only after their
// releasing barrier: until every rank passes it, a peer may still be
// copying out of the buffers this rank published, which unwinding would
// free under it.

void Comm::allgather(const void* send, std::size_t bytes, void* recv) {
  auto& st = *state_;
  const auto me = static_cast<std::size_t>(rank_);
  st.pub_ptr[me] = send;
  st.pub_len[me] = bytes;
  barrier_sync(st);
  auto& c = sim::ctx();
  bool mismatch = false;
  for (std::size_t i = 0; i < st.pub_len.size(); ++i) {
    mismatch = st.pub_len[i] != bytes;
    if (mismatch) break;
    std::memcpy(static_cast<std::byte*>(recv) + i * bytes, st.pub_ptr[i],
                bytes);
  }
  c.charge_cpu_copy(bytes);  // own contribution: a local copy
  charge_net(c, static_cast<std::size_t>(size_ - 1) * bytes);
  barrier_sync(st);
  if (mismatch) throw std::invalid_argument("allgather: count mismatch");
}

void Comm::gatherv(const void* send, std::size_t bytes, void* recv,
                   std::span<const std::size_t> counts,
                   std::span<const std::size_t> displs, int root) {
  auto& st = *state_;
  const auto me = static_cast<std::size_t>(rank_);
  st.pub_ptr[me] = send;
  st.pub_len[me] = bytes;
  barrier_sync(st);
  auto& c = sim::ctx();
  bool mismatch = false;
  if (rank_ == root) {
    std::size_t remote_bytes = 0;
    for (int i = 0; i < size_; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      mismatch = st.pub_len[ui] != counts[ui];
      if (mismatch) break;
      std::memcpy(static_cast<std::byte*>(recv) + displs[ui], st.pub_ptr[ui],
                  counts[ui]);
      if (i != rank_) remote_bytes += counts[ui];
    }
    c.charge_cpu_copy(bytes);
    charge_net(c, remote_bytes,
               static_cast<std::size_t>(size_ > 1 ? size_ - 1 : 1));
  } else {
    charge_net(c, bytes);  // streams its contribution toward the root
  }
  barrier_sync(st);
  if (mismatch) throw std::invalid_argument("gatherv: count mismatch");
}

void Comm::alltoallv(const void* send, std::span<const std::size_t> scounts,
                     std::span<const std::size_t> sdispls, void* recv,
                     std::span<const std::size_t> rcounts,
                     std::span<const std::size_t> rdispls) {
  auto& st = *state_;
  const auto me = static_cast<std::size_t>(rank_);
  st.pub_ptr[me] = send;
  st.pub_counts[me] = scounts.data();
  st.pub_displs[me] = sdispls.data();
  barrier_sync(st);
  auto& c = sim::ctx();
  std::size_t remote_bytes = 0;
  std::size_t own_bytes = 0;
  std::size_t messages = 0;
  bool mismatch = false;
  for (int i = 0; i < size_; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const std::size_t n = st.pub_counts[ui][me];
    mismatch = n != rcounts[ui];
    if (mismatch) break;
    if (n == 0) continue;
    std::memcpy(static_cast<std::byte*>(recv) + rdispls[ui],
                static_cast<const std::byte*>(st.pub_ptr[ui]) +
                    st.pub_displs[ui][me],
                n);
    if (i == rank_) {
      own_bytes += n;
    } else {
      remote_bytes += n;
      ++messages;
    }
  }
  if (own_bytes != 0) c.charge_cpu_copy(own_bytes);
  if (remote_bytes != 0 || messages != 0) {
    charge_net(c, remote_bytes, messages == 0 ? 1 : messages);
  }
  barrier_sync(st);
  if (mismatch) throw std::invalid_argument("alltoallv: count mismatch");
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  auto& st = *state_;
  auto& c = sim::ctx();
  charge_net(c, bytes);
  detail::Message msg;
  msg.data.resize(bytes);
  std::memcpy(msg.data.data(), data, bytes);
  msg.sender_time = c.now();
  std::lock_guard lk(st.mu);
  if (st.aborted) throw detail::Aborted{};
  st.queues[{rank_, dst, tag}].push_back(std::move(msg));
  st.p2p_cv.notify_all();
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes) {
  auto& st = *state_;
  auto& c = sim::ctx();
  detail::Message msg;
  {
    std::unique_lock lk(st.mu);
    auto key = std::make_tuple(src, rank_, tag);
    st.p2p_cv.wait(lk, [&] {
      return st.aborted ||
             (st.queues.contains(key) && !st.queues[key].empty());
    });
    if (st.aborted) throw detail::Aborted{};
    auto& q = st.queues[key];
    msg = std::move(q.front());
    q.pop_front();
  }
  if (msg.data.size() != bytes) {
    throw std::invalid_argument("recv: size mismatch");
  }
  std::memcpy(data, msg.data.data(), bytes);
  c.sync_to(msg.sender_time, sim::Charge::kNetwork);
  charge_net(c, bytes);
}

std::uint64_t Comm::exscan_sum(std::uint64_t v) {
  std::vector<std::uint64_t> all(static_cast<std::size_t>(size_));
  allgather(&v, sizeof(v), all.data());
  std::uint64_t acc = 0;
  for (int i = 0; i < rank_; ++i) acc += all[static_cast<std::size_t>(i)];
  return acc;
}

Runtime::Result Runtime::run(int nranks, const std::function<void(Comm&)>& fn,
                             const sim::CostModel& model) {
  if (nranks < 1) throw std::invalid_argument("Runtime::run: nranks < 1");
  detail::State st(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  Result result;
  result.rank_times.resize(static_cast<std::size_t>(nranks), 0.0);

  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      sim::Context c(model, nranks, r);
      sim::ScopedContext scope(c);
      Comm comm(st, r, nranks);
      try {
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        st.abort_all();
      }
      result.rank_times[static_cast<std::size_t>(r)] = c.now();
    });
  }
  for (auto& t : threads) t.join();

  // Prefer a real error over the secondary Aborted unwinds it caused.
  std::exception_ptr first;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!first) first = e;
    try {
      std::rethrow_exception(e);
    } catch (const detail::Aborted&) {
    } catch (...) {
      first = e;
      break;
    }
  }
  if (first) std::rethrow_exception(first);

  for (double t : result.rank_times) result.max_time = std::max(result.max_time, t);
  return result;
}

}  // namespace pmemcpy::par
