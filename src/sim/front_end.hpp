// Per-core front end of CmpSimulator's replay (internal).
//
// Each core's trace source feeds that core's private L1, and nothing else
// does: the L1 outcome of a core's k-th op depends only on the core's first k
// ops. So trace decoding plus the L1 -- more than half of a functional run --
// can run ahead of the shared back end (argmin interleave, L2, profilers,
// controller, timed overlay), which consumes one OpRecord per op in the
// unchanged interleave order.
//
// Records are produced in blocks into a per-core ring. The replay thread
// fills blocks itself (inline) until two things hold: the run has consumed
// kWorkerAfterOps ops, and the process has a spare usable CPU (running
// replays plus front-end workers fewer than the CPUs sched_getaffinity
// grants). Then one worker thread per run takes over all of the run's cores.
// Blocks grow from 1 record to a 1 Ki cap. Inline, a core's ring only ever
// holds one block, so it is sized to the block; it grows to its full share of
// the run's ring budget when the worker starts. Ring storage is allocated
// uninitialised. Short runs thus pay for neither a thread nor much
// speculative work or memory.
//
// Errors keep their op: an exception thrown while producing a core's k-th
// record (a trace-read failure, an injected `worker` fault) is stored with
// the lane and rethrown on the replay thread when it asks for record k -- the
// op at which a one-op-at-a-time replay would have thrown -- and never if the
// run ends first. Both paths therefore produce the same results and the same
// failures.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

/// Who fills the blocks. kAuto applies the worker rule; the other two force
/// one path (test seam: set_front_end_mode).
enum class FrontEndMode : std::uint8_t { kAuto, kInline, kWorker };

/// Process-wide front-end mode for subsequent runs (tests only).
void set_front_end_mode(FrontEndMode mode) noexcept;
/// Front-end worker threads this process has started (tests only).
[[nodiscard]] std::uint64_t front_end_workers_started() noexcept;

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

class FrontEnd {
 public:
  /// A worker may start once the run has consumed this many ops.
  static constexpr std::uint64_t kWorkerAfterOps = std::uint64_t{64} << 10;

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
  bool holds_cpu_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> wanted_;  ///< lane the replay waits on (n_ = none)
  std::thread worker_;
};

}  // namespace plrupart::sim::internal
