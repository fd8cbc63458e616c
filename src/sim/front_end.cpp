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

/// Ring memory of one run's front end, all cores together.
constexpr std::uint64_t kRingRecords = (std::uint64_t{256} << 10) / sizeof(OpRecord);

std::atomic<FrontEndMode> g_mode{FrontEndMode::kAuto};
std::atomic<std::uint64_t> g_workers_started{0};
std::atomic<std::uint64_t> g_pricing_started{0};
/// Running replays plus running workers of either kind, process-wide.
std::atomic<std::uint32_t> g_busy{0};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The worker rule: may a worker start after `consumed` ops of its run? Under
/// kAuto a yes takes a CPU of the budget into `cpu`.
bool may_start_worker(FrontEndMode mode, std::uint64_t consumed, SpareCpu& cpu) {
  switch (mode) {
    case FrontEndMode::kInline:
      return false;
    case FrontEndMode::kWorker:
      return true;
    case FrontEndMode::kAuto:
      return consumed >= kWorkerAfterOps && cpu.acquire();
  }
  return false;
}

/// Start `worker` running `fn` and count it in `started`. False, with `cpu`
/// handed back, when no thread can be had.
template <class Fn>
bool spawn_worker(std::thread& worker, SpareCpu& cpu, std::atomic<std::uint64_t>& started,
                  Fn fn) {
  try {
    worker = std::thread(std::move(fn));
  } catch (const std::system_error&) {
    cpu.release();
    return false;
  }
  started.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

void set_front_end_mode(FrontEndMode mode) noexcept {
  g_mode.store(mode, std::memory_order_relaxed);
}

std::uint64_t front_end_workers_started() noexcept {
  return g_workers_started.load(std::memory_order_relaxed);
}

std::uint64_t pricing_workers_started() noexcept {
  return g_pricing_started.load(std::memory_order_relaxed);
}

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

bool SpareCpu::acquire() noexcept {
  if (held_) return true;
  const std::uint32_t cpus = usable_cpus();
  std::uint32_t busy = g_busy.load(std::memory_order_relaxed);
  while (busy < cpus) {
    if (g_busy.compare_exchange_weak(busy, busy + 1, std::memory_order_relaxed))
      return held_ = true;
  }
  return false;
}

void SpareCpu::release() noexcept {
  if (held_) g_busy.fetch_sub(1, std::memory_order_relaxed);
  held_ = false;
}

void Backoff::pause(const Watchdog* watchdog) {
  if (++spins_ % 64 == 0) {
    if (watchdog != nullptr) watchdog->check();
    std::this_thread::yield();
  } else {
    cpu_relax();
  }
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
  g_busy.fetch_sub(1, std::memory_order_relaxed);  // the worker's CPU: cpu_
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
  Backoff backoff;
  for (bool first = true;; first = false) {
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
    if (first) wanted_.store(l.core, std::memory_order_relaxed);
    backoff.pause(&watchdog_);
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
  std::uint64_t consumed = 0;
  for (std::uint32_t c = 0; c < n_; ++c) consumed += lanes_[c].head;
  if (!may_start_worker(mode_, consumed, cpu_)) return;
  // The worker runs ahead: give every lane its full share of the ring budget.
  for (std::uint32_t c = 0; c < n_; ++c) resize_ring(lanes_[c], capacity_);
  if (!spawn_worker(worker_, cpu_, g_workers_started, [this] { worker_loop(); })) {
    mode_ = FrontEndMode::kInline;  // no thread to be had: inline for the rest of the run
    return;
  }
  worker_running_ = true;
}

void FrontEnd::worker_loop() noexcept {
  Backoff backoff;
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
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

PricingPipe::PricingPipe(PricingSink& sink, const Watchdog& watchdog)
    : sink_(sink), watchdog_(watchdog), mode_(g_mode.load(std::memory_order_relaxed)) {
  if (mode_ == FrontEndMode::kWorker) start();
}

PricingPipe::~PricingPipe() {
  stop_.store(true, std::memory_order_release);
  if (worker_.joinable()) worker_.join();
}

void PricingPipe::maybe_start_worker(std::uint64_t consumed,
                                     bool front_end_worker_running) {
  if (running_ || mode_ != FrontEndMode::kAuto || !front_end_worker_running) return;
  if (may_start_worker(mode_, consumed, cpu_)) start();
}

void PricingPipe::start() {
  ring_ = std::make_unique_for_overwrite<PriceRecord[]>(kRingRecords);
  room_ = kRingRecords;
  if (!spawn_worker(worker_, cpu_, g_pricing_started, [this] { worker_loop(); })) {
    mode_ = FrontEndMode::kInline;  // no thread to be had: price inline to the end
    ring_.reset();
    return;
  }
  running_ = true;
}

void PricingPipe::publish() {
  tail_.store(produced_, std::memory_order_release);
  rethrow_if_failed();
}

void PricingPipe::rethrow_if_failed() {
  if (failed_.load(std::memory_order_acquire)) std::rethrow_exception(error_);
}

void PricingPipe::wait_for_room() {
  publish();
  Backoff backoff;
  for (;;) {
    room_ = consumed_.load(std::memory_order_acquire) + kRingRecords;
    if (room_ != produced_) return;
    rethrow_if_failed();
    backoff.pause(&watchdog_);
  }
}

void PricingPipe::drain() {
  if (!running_) return;
  publish();
  Backoff backoff;
  while (consumed_.load(std::memory_order_acquire) != produced_) {
    rethrow_if_failed();
    backoff.pause(&watchdog_);
  }
  stop_.store(true, std::memory_order_release);
  worker_.join();
  running_ = false;
  cpu_.release();
}

void PricingPipe::worker_loop() noexcept {
  std::uint64_t head = 0;
  Backoff backoff;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (tail == head) {
      backoff.pause();
      continue;
    }
    const std::uint64_t end = std::min(tail, head + kChunk);
    try {
      while (head != end) {  // at most two contiguous spans
        const std::uint64_t slot = head & (kRingRecords - 1);
        const std::uint64_t count = std::min(end - head, kRingRecords - slot);
        sink_.price(&ring_[slot], static_cast<std::size_t>(count));
        head += count;
      }
    } catch (...) {
      error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
      return;
    }
    consumed_.store(head, std::memory_order_release);
    backoff.reset();
  }
}

}  // namespace plrupart::sim::internal
