// The replay's two helper threads (internal): the per-core front end ahead of
// CmpSimulator's back end, and the pricing worker behind it.
//
// Front end. Each core's trace source feeds that core's private L1, and
// nothing else does: the L1 outcome of a core's k-th op depends only on the
// core's first k ops. So trace decoding plus the L1 -- more than half of a
// functional run -- can run ahead of the shared back end (interleave, L2,
// profilers, controller), which consumes each core's OpRecords in that
// core's order.
//
// Records are produced in blocks into a per-core ring. The replay thread
// fills blocks itself (inline) until the worker rule lets a worker start.
// Then one worker thread per run takes over all of the run's cores.
// Blocks grow from 1 record to a 1 Ki cap. Inline, a core's ring only ever
// holds one block, so it is sized to the block; it grows to its full share of
// the run's ring budget when the worker starts. Ring storage is allocated
// uninitialised. Short runs thus pay for neither a thread nor much
// speculative work or memory.
//
// Errors keep their op: an exception thrown while producing a core's k-th
// record (a trace-read failure, an injected `worker` fault) is stored with
// the lane and rethrown on the replay thread when it asks for record k. The
// back end, which reads a few records ahead, keeps it and rethrows it at the
// op at which a one-op-at-a-time replay would have thrown -- and never if the
// run ends first. Both paths therefore produce the same results and the same
// failures.
//
// Pricing worker. A timed run prices every op on the MSHR/DRAM overlay, which
// needs only what the replay already knows once the op has passed the L2.
// So the replay hands the overlay a PriceRecord per op, plus markers where the
// measurement window opens and where a core freezes, and reads the timed
// clocks only after the run, when the worker has drained. The replay prices
// inline until the worker rule lets a pricing worker start, then the same
// overlay object moves to that worker behind a single-producer ring. An
// exception raised in the overlay on the worker is stored and rethrown on the
// replay thread, so the job fails with the same type and message as inline.
//
// Worker rule, shared by both workers: kInline starts none, kWorker starts
// each at once (the pricing worker in timed runs only), and kAuto starts one
// once the run has consumed
// kWorkerAfterOps ops and the process has a spare usable CPU. Both workers
// draw on ONE process-wide CPU budget: running replays plus running workers
// of either kind stay within the CPUs sched_getaffinity grants. The front
// end's worker comes first (it takes more off the replay), so a pricing
// worker starts only beside a running front-end worker. If a thread cannot be
// created, that side stays inline for the rest of the run.
//
// Both rings publish in chunks, not per record: the replay hands consumed
// front-end slots back, and publishes new price records, at least every
// kChunk records; the pricing worker hands back each chunk it priced. Every
// busy wait spins with the same Backoff, and the replay's waits poll the
// run's watchdog.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "plrupart/common/bits.hpp"
#include "plrupart/common/fault_inject.hpp"
#include "plrupart/sim/memory_hierarchy.hpp"
#include "plrupart/sim/mem_op.hpp"

namespace plrupart::sim::internal {

/// One op as the back end consumes it: the trace record plus the core's L1
/// outcome. Trivial, so ring storage is never initialised.
struct OpRecord {
  cache::Addr addr;
  std::uint32_t gap_instrs;
  bool write;
  bool l1_hit;
};

/// Whether the replay's helper workers run. kAuto applies the worker rule;
/// the other two force one path for both workers (test seam:
/// set_front_end_mode).
enum class FrontEndMode : std::uint8_t { kAuto, kInline, kWorker };

/// Process-wide worker mode for subsequent runs (tests only).
void set_front_end_mode(FrontEndMode mode) noexcept;
/// Front-end worker threads this process has started (tests only).
[[nodiscard]] std::uint64_t front_end_workers_started() noexcept;
/// Pricing worker threads this process has started (tests only).
[[nodiscard]] std::uint64_t pricing_workers_started() noexcept;

/// Under kAuto, a worker may start once the run has consumed this many ops.
inline constexpr std::uint64_t kWorkerAfterOps = std::uint64_t{64} << 10;
/// Chunked publication: a ring's consumer hands consumed slots back, and the
/// pricing ring's producer publishes new records, at least this often.
inline constexpr std::uint64_t kChunk = 256;

/// CPUs this process may run on (sched_getaffinity, else the hardware count).
[[nodiscard]] std::uint32_t usable_cpus();

/// One CPU of the process-wide worker budget, held while a worker runs.
class SpareCpu {
 public:
  SpareCpu() = default;
  ~SpareCpu() { release(); }
  SpareCpu(const SpareCpu&) = delete;
  SpareCpu& operator=(const SpareCpu&) = delete;

  /// Take a CPU if running replays plus workers leave one spare.
  bool acquire() noexcept;
  void release() noexcept;
  [[nodiscard]] bool held() const noexcept { return held_; }

 private:
  bool held_ = false;
};

/// Wall-clock deadline of a run (SimConfig::timeout_s). Wall time only ever
/// decides whether a run dies, never what it computes.
class Watchdog {
 public:
  /// `what` names the run in the error message; it must outlive the watchdog.
  Watchdog(double timeout_s, const char* what);
  /// Throws TimeoutError once the deadline has passed.
  void check() const;

 private:
  double timeout_s_;
  std::chrono::steady_clock::time_point deadline_;
  const char* what_;
};

/// The busy-wait step of every spin loop here: pause the core, and on every
/// 64th step poll `watchdog` (when the waiter is the replay) and yield.
class Backoff {
 public:
  void pause(const Watchdog* watchdog = nullptr);
  void reset() noexcept { spins_ = 0; }

 private:
  std::uint32_t spins_ = 0;
};

class FrontEnd {
 public:
  /// `faults` arms the `worker` site (counted in front-end ops per core);
  /// `watchdog` is polled while the replay waits on a block. The replay that
  /// owns this front end counts against the process's CPU budget for the
  /// front end's lifetime.
  FrontEnd(std::vector<std::unique_ptr<TraceSource>>& traces, MemoryHierarchy& hierarchy,
           const FaultPlan* faults, const Watchdog& watchdog);
  ~FrontEnd();
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// The next record of `core`'s stream; rethrows the error raised while
  /// producing it, if any.
  OpRecord next(std::uint32_t core) {
    Lane& l = lanes_[core];
    if (l.head == l.limit) refill(l);
    return l.ring[l.head++ & l.mask];
  }

  [[nodiscard]] bool worker_running() const noexcept { return worker_running_; }

 private:
  struct alignas(64) Lane {
    // Read by both threads, fixed while a worker runs (the replay thread
    // resizes the ring only before one starts).
    std::unique_ptr<OpRecord[]> ring;
    std::uint64_t mask = 0;  ///< ring records - 1 (a power of two)
    std::uint32_t core = 0;
    // Replay thread; written every op, so on a line of its own.
    alignas(64) std::uint64_t head = 0;  ///< records consumed
    std::uint64_t limit = 0;             ///< records known to be ready
    // Shared: producer publishes `tail` (and `failed` after `error`), the
    // replay thread publishes `consumed`.
    alignas(64) std::atomic<std::uint64_t> tail{0};
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    // Producer (the replay thread inline, then the worker).
    alignas(64) std::uint64_t produced = 0;
    std::uint64_t block = 1;
    std::string fault_context;
  };

  void refill(Lane& l);
  /// Reallocate `l`'s ring to `records` slots, keeping the unconsumed
  /// records. Replay thread only, while no worker runs.
  static void resize_ring(Lane& l, std::uint64_t records);
  /// Produce up to one block into `l`; false if the ring had no room.
  bool produce(Lane& l);
  void maybe_start_worker();
  void worker_loop() noexcept;

  std::vector<std::unique_ptr<TraceSource>>& traces_;
  MemoryHierarchy& hierarchy_;
  const FaultPlan* faults_;
  const Watchdog& watchdog_;
  std::uint32_t n_;
  std::uint64_t capacity_;   ///< ring records per core once a worker runs (power of two)
  std::uint64_t block_cap_;  ///< largest block
  std::unique_ptr<Lane[]> lanes_;
  FrontEndMode mode_;
  bool worker_running_ = false;
  SpareCpu cpu_;  ///< the worker's CPU (kAuto)
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> wanted_;  ///< lane the replay waits on (n_ = none)
  std::thread worker_;
};

/// What the pricing worker consumes: one op's L1 and L2 outcome, or a marker
/// at its place in the op stream. Trivial, so ring storage is never
/// initialised.
enum class PriceKind : std::uint8_t { kOp, kOpenWindow, kFreeze };
struct PriceRecord {
  cache::Addr addr;           ///< byte address (kOp)
  cache::Addr evicted_line;   ///< line the L2 fill evicted (kOp, evicted_valid)
  std::uint32_t gap_instrs;   ///< non-memory instructions before the op (kOp)
  std::uint32_t core;         ///< issuing core (kOp) or frozen core (kFreeze)
  std::uint8_t way;           ///< L2 way hit or filled (kOp, !l1_hit)
  PriceKind kind;
  bool write;
  bool l1_hit;
  bool l2_hit;
  bool evicted_valid;
};
static_assert(sizeof(PriceRecord) <= 32, "one price record per op must stay small");
static_assert(kMaxAssociativity <= 256, "PriceRecord::way is one byte");

/// Where price records go: the timed overlay. price() may throw; on the
/// worker the error is stored and rethrown on the replay thread.
class PricingSink {
 public:
  virtual void price(const PriceRecord* records, std::size_t count) = 0;

 protected:
  ~PricingSink() = default;
};

/// Carries a run's price records from the replay to `sink` on a pricing
/// worker. While no worker runs the owner prices inline, calling the sink
/// itself; push() and drain() are for a running worker.
class PricingPipe {
 public:
  /// Ring records: 256 KiB of price records.
  static constexpr std::uint64_t kRingRecords =
      (std::uint64_t{256} << 10) / sizeof(PriceRecord);
  static_assert(is_pow2(kRingRecords) && kRingRecords % kChunk == 0);

  /// Under kWorker the worker starts here, before any op is priced.
  PricingPipe(PricingSink& sink, const Watchdog& watchdog);
  ~PricingPipe();
  PricingPipe(const PricingPipe&) = delete;
  PricingPipe& operator=(const PricingPipe&) = delete;

  [[nodiscard]] bool worker_running() const noexcept { return running_; }

  /// The worker rule under kAuto, after `consumed` ops of the run: start a
  /// worker if the front end's runs and a CPU is spare.
  void maybe_start_worker(std::uint64_t consumed, bool front_end_worker_running);

  /// Queue one record for the worker (worker_running() only). Waits while the
  /// ring is full; rethrows the worker's error once it is published.
  void push(const PriceRecord& r) {
    if (produced_ == room_) wait_for_room();
    ring_[produced_ & (kRingRecords - 1)] = r;
    if ((++produced_ & (kChunk - 1)) == 0) publish();
  }

  /// Wait until the worker has priced every pushed record, then stop it; the
  /// sink is the replay's again. Rethrows the worker's error. No-op inline.
  void drain();

 private:
  void start();
  void publish();
  void wait_for_room();
  void rethrow_if_failed();
  void worker_loop() noexcept;

  PricingSink& sink_;
  const Watchdog& watchdog_;
  FrontEndMode mode_;
  bool running_ = false;
  std::unique_ptr<PriceRecord[]> ring_;
  // Replay thread (the producer).
  std::uint64_t produced_ = 0;  ///< records pushed
  std::uint64_t room_ = 0;      ///< push may fill the ring up to here
  // Shared: the replay publishes `tail`, the worker `consumed` (and `failed`
  // after `error`); the replay sets `stop`.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> consumed_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  alignas(64) std::atomic<bool> stop_{false};
  SpareCpu cpu_;  ///< the worker's CPU (kAuto)
  std::thread worker_;
};

}  // namespace plrupart::sim::internal
