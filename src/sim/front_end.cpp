#include "sim/front_end.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <system_error>

#if defined(__linux__)
#include <sched.h>
#endif

#include "plrupart/common/error.hpp"

namespace plrupart::sim::internal {

namespace {

/// Ring memory of one run, all cores together.
constexpr std::uint64_t kRingRecords = (std::uint64_t{256} << 10) / sizeof(OpRecord);
/// The replay hands consumed slots back to the producer at least this often.
constexpr std::uint64_t kChunk = 256;

std::atomic<FrontEndMode> g_mode{FrontEndMode::kAuto};
std::atomic<std::uint64_t> g_workers_started{0};
/// Running replays plus running front-end workers, process-wide.
std::atomic<std::uint32_t> g_busy{0};

std::uint32_t usable_cpus() {
  static const std::uint32_t cpus = [] {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
      return static_cast<std::uint32_t>(CPU_COUNT(&set));
#endif
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1U : hc;
  }();
  return cpus;
}

bool acquire_spare_cpu() {
  const std::uint32_t cpus = usable_cpus();
  std::uint32_t busy = g_busy.load(std::memory_order_relaxed);
  while (busy < cpus) {
    if (g_busy.compare_exchange_weak(busy, busy + 1, std::memory_order_relaxed)) return true;
  }
  return false;
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

void set_front_end_mode(FrontEndMode mode) noexcept {
  g_mode.store(mode, std::memory_order_relaxed);
}

std::uint64_t front_end_workers_started() noexcept {
  return g_workers_started.load(std::memory_order_relaxed);
}

Watchdog::Watchdog(double timeout_s, const char* what) : timeout_s_(timeout_s), what_(what) {
  if (timeout_s_ > 0.0)
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(timeout_s_));
}

void Watchdog::check() const {
  if (timeout_s_ > 0.0 && std::chrono::steady_clock::now() >= deadline_) {
    throw TimeoutError("simulation exceeded watchdog deadline of " +
                       std::to_string(timeout_s_) + " s (" + what_ + ")");
  }
}

FrontEnd::FrontEnd(std::vector<std::unique_ptr<TraceSource>>& traces,
                   MemoryHierarchy& hierarchy, const FaultPlan* faults,
                   const Watchdog& watchdog)
    : traces_(traces),
      hierarchy_(hierarchy),
      faults_(faults != nullptr && faults->armed(FaultSite::kWorker) ? faults : nullptr),
      watchdog_(watchdog),
      n_(static_cast<std::uint32_t>(traces.size())),
      capacity_(std::clamp<std::uint64_t>(std::bit_floor(kRingRecords / n_), 64, 4096)),
      block_cap_(std::min<std::uint64_t>(1024, capacity_ / 2)),
      lanes_(std::make_unique<Lane[]>(n_)),
      mode_(g_mode.load(std::memory_order_relaxed)),
      wanted_(n_) {
  for (std::uint32_t c = 0; c < n_; ++c) {
    Lane& l = lanes_[c];
    l.core = c;
    l.block = std::min<std::uint64_t>(l.block, block_cap_);  // ring: at first refill
    if (faults_ != nullptr) l.fault_context = "front end, core " + std::to_string(c);
  }
  g_busy.fetch_add(1, std::memory_order_relaxed);  // this run's replay thread
}

FrontEnd::~FrontEnd() {
  stop_.store(true, std::memory_order_release);
  if (worker_.joinable()) worker_.join();
  g_busy.fetch_sub(holds_cpu_ ? 2 : 1, std::memory_order_relaxed);
}

void FrontEnd::refill(Lane& l) {
  l.consumed.store(l.head, std::memory_order_release);
  if (!worker_running_ && l.tail.load(std::memory_order_relaxed) == l.head) {
    maybe_start_worker();
    if (!worker_running_) {
      if (l.ring == nullptr || l.block > l.mask + 1) resize_ring(l, l.block);
      (void)produce(l);  // the ring is empty and holds a whole block
    }
  }
  for (std::uint32_t spins = 0;; ++spins) {
    const std::uint64_t tail = l.tail.load(std::memory_order_acquire);
    if (tail != l.head) {
      l.limit = std::min(tail, l.head + kChunk);
      break;
    }
    if (l.failed.load(std::memory_order_acquire) &&
        l.tail.load(std::memory_order_acquire) == l.head) {
      wanted_.store(n_, std::memory_order_relaxed);
      std::rethrow_exception(l.error);
    }
    // Only the worker can make progress now.
    if (spins == 0) wanted_.store(l.core, std::memory_order_relaxed);
    if (spins % 64 == 63) {
      watchdog_.check();
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  wanted_.store(n_, std::memory_order_relaxed);
}

void FrontEnd::resize_ring(Lane& l, std::uint64_t records) {
  auto ring = std::make_unique_for_overwrite<OpRecord[]>(records);
  for (std::uint64_t p = l.head; p < l.produced; ++p)
    ring[p & (records - 1)] = l.ring[p & l.mask];
  l.ring = std::move(ring);
  l.mask = records - 1;
}

bool FrontEnd::produce(Lane& l) {
  if (l.failed.load(std::memory_order_relaxed)) return false;
  const std::uint64_t buffered = l.produced - l.consumed.load(std::memory_order_acquire);
  if (l.mask + 1 - buffered < l.block) return false;
  TraceSource& src = *traces_[l.core];
  cache::PrivateLruCache& l1 = hierarchy_.l1d_mut(l.core);
  const std::uint64_t end = l.produced + l.block;
  std::uint64_t p = l.produced;
  try {
    for (; p < end; ++p) {
      if (faults_ != nullptr)
        faults_->maybe_throw(FaultSite::kWorker, p, l.core, l.fault_context);
      const MemOp op = src.next();
      OpRecord& r = l.ring[p & l.mask];
      r.addr = op.addr;
      r.gap_instrs = op.gap_instrs;
      r.write = op.write;
      r.l1_hit = l1.access(0, op.addr, op.write).hit;
    }
  } catch (...) {
    // Publish the records before the failing one, then the error.
    l.error = std::current_exception();
    l.produced = p;
    l.tail.store(p, std::memory_order_release);
    l.failed.store(true, std::memory_order_release);
    return true;
  }
  l.produced = end;
  l.tail.store(end, std::memory_order_release);
  l.block = std::min(l.block * 2, block_cap_);
  return true;
}

void FrontEnd::maybe_start_worker() {
  switch (mode_) {
    case FrontEndMode::kInline:
      return;
    case FrontEndMode::kAuto: {
      std::uint64_t consumed = 0;
      for (std::uint32_t c = 0; c < n_; ++c) consumed += lanes_[c].head;
      if (consumed < kWorkerAfterOps || !acquire_spare_cpu()) return;
      holds_cpu_ = true;
      break;
    }
    case FrontEndMode::kWorker:
      break;
  }
  // The worker runs ahead: give every lane its full share of the ring budget.
  for (std::uint32_t c = 0; c < n_; ++c) resize_ring(lanes_[c], capacity_);
  try {
    worker_ = std::thread([this] { worker_loop(); });
  } catch (const std::system_error&) {
    // No thread to be had: stay inline for the rest of the run.
    if (holds_cpu_) g_busy.fetch_sub(1, std::memory_order_relaxed);
    holds_cpu_ = false;
    mode_ = FrontEndMode::kInline;
    return;
  }
  worker_running_ = true;
  g_workers_started.fetch_add(1, std::memory_order_relaxed);
}

void FrontEnd::worker_loop() noexcept {
  std::uint32_t idle = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    // The lane the replay waits on first, else the emptiest lane with room.
    const std::uint32_t w = wanted_.load(std::memory_order_relaxed);
    bool did = w < n_ && produce(lanes_[w]);
    if (!did) {
      Lane* best = nullptr;
      std::uint64_t best_buffered = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t c = 0; c < n_; ++c) {
        Lane& l = lanes_[c];
        if (l.failed.load(std::memory_order_relaxed)) continue;
        const std::uint64_t buffered =
            l.produced - l.consumed.load(std::memory_order_relaxed);
        if (buffered < best_buffered && l.mask + 1 - buffered >= l.block) {
          best = &l;
          best_buffered = buffered;
        }
      }
      did = best != nullptr && produce(*best);
    }
    if (did) {
      idle = 0;
    } else if (++idle % 64 == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
}

}  // namespace plrupart::sim::internal
