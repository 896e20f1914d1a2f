// The three p2kvs-bench workloads and the store rig they run against.
//
//   write_async  closed loop, bounded in-flight window, PutAsync of uniform
//                keys from 2 submitters into an empty store (OBM write merge,
//                WAL, memtable, flush/compaction, device writes);
//   read_sync    closed loop, 4 threads of sync Get over a dataset of half the
//                total block cache, warmed so every block is cached (the sync
//                handoff floor plus the CPU-only read path);
//   tcp_mixed    open loop over loopback TCP, 2 pipelined connections at a
//                fixed offered rate, zipfian GET/PUT/MULTIGET/SCAN over a
//                dataset of 4x the total block cache (wire path, async
//                fan-out, block-cache misses to the device model).

#ifndef P2KVS_PERFBENCH_SRC_WORKLOADS_H_
#define P2KVS_PERFBENCH_SRC_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layer_trace.h"
#include "src/core/p2kvs.h"
#include "src/io/device_model.h"
#include "src/io/io_stats.h"
#include "src/lsm/options.h"
#include "src/server/server.h"

namespace perfbench {

// Dataset and load sizes. `Full()` is what the benchmark measures; `Tiny()`
// is the self-test's.
struct Sizes {
  uint64_t write_keys;       // write_async key space (uniform)
  int write_submitters;      // write_async submitter threads
  int write_window;          // write_async in-flight cap per submitter
  uint64_t read_records;     // read_sync dataset
  int read_threads;          // read_sync client threads
  uint64_t mixed_records;    // tcp_mixed dataset
  double mixed_rate;         // tcp_mixed offered ops/s over all connections
  int mixed_connections;     // tcp_mixed pipelined connections
  uint64_t mixed_warm_reads; // tcp_mixed cache warm-up reads (zipfian)
  uint64_t verify_samples;   // write_async read-back checks after the run

  static Sizes Full();
  static Sizes Tiny();
};

bool IsWorkload(const std::string& name);

// The store configuration every workload uses: RocksLite engines with the
// bench LSM sizing on MemEnv under the NVMe device model; every other
// P2kvsOptions field at its default.
p2kvs::DeviceProfile BenchDevice();
p2kvs::Options BenchLsmOptions(p2kvs::Env* env);

// Thread-safe record of correctness checks.
class Checker {
 public:
  void Pass(uint64_t n = 1) { checks_.fetch_add(n, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  // Counts one check; records `what` when `ok` is false. Returns `ok`.
  bool Expect(bool ok, const char* what);

  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  uint64_t failures() const { return failures_.load(std::memory_order_relaxed); }
  std::vector<std::string> FirstErrors() const;

 private:
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> first_errors_;
};

// One store instance: device stack, optional tracing wrappers, the store and
// (tcp_mixed) the in-process server. Members are declared so destruction runs
// server -> store -> envs -> tracer.
class Rig {
 public:
  Rig() = default;
  ~Rig() { Close(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  p2kvs::Status Open(bool traced);
  p2kvs::Status StartServer();
  // Stops the server and closes the store, joining every store thread, so
  // the tracer may be read afterwards.
  void Close();

  p2kvs::P2KVS* store() const { return store_.get(); }
  p2kvs::server::Server* server() const { return server_.get(); }
  LayerTracer* tracer() const { return tracer_.get(); }
  const EngineEventCounter* events() const { return events_.get(); }

 private:
  std::unique_ptr<LayerTracer> tracer_;
  std::shared_ptr<EngineEventCounter> events_;
  std::unique_ptr<p2kvs::Env> mem_;
  std::unique_ptr<p2kvs::Env> device_;
  std::unique_ptr<p2kvs::Env> traced_env_;
  std::unique_ptr<p2kvs::P2KVS> store_;
  std::unique_ptr<p2kvs::server::Server> server_;
};

// Loads the workload's dataset, warms the cache and waits for background
// work to finish. Starts the server for tcp_mixed.
p2kvs::Status SetUp(const std::string& workload, const Sizes& sizes, Rig* rig, Checker* checker);

// Everything one timed phase measured.
struct PhaseResult {
  double seconds = 0;        // first due time -> last call of the phase resolved
  double drain_seconds = 0;  // in-flight completion + WaitIdle after it
  uint64_t attempted = 0;    // client calls issued in the timed phase
  uint64_t ok = 0;
  uint64_t failed = 0;       // non-OK results
  uint64_t ops_by_kind[kNumOpKinds] = {};
  uint64_t user_bytes = 0;   // key+value bytes of puts issued
  uint64_t user_bytes_first_half = 0;
  std::unique_ptr<LatencySink> latency;  // from due/submit time
  double send_mean_us = 0;   // tcp: mean latency from the actual send
  double gen_lag_p99_us = 0; // open loop: send time minus due time
  double inflight_mean = 0;  // requests in flight seen at each submit
  double cpu_seconds = 0;    // process CPU over the timed phase
  std::vector<double> window_cpu_seconds;  // process CPU per latency window
  // Share of the host's CPU time the hypervisor gave to other guests, per
  // window (steal time from /proc/stat; 0 where it is not reported).
  std::vector<double> window_steal_frac;
  double mem_mb_median = 0;  // ApproximateMemoryUsage, sampled every 100 ms
  uint64_t scan_keys_returned = 0;
  p2kvs::IoStatsSnapshot io_first_half;   // IoStats deltas
  p2kvs::IoStatsSnapshot io_timed;
  p2kvs::IoStatsSnapshot io_total;        // timed + drain
  p2kvs::P2kvsStats stats_before;
  p2kvs::P2kvsStats stats_after;          // after the drain, before checking reads
  p2kvs::server::ServerStatsSnapshot server;
  // Traced rigs only: timed phase + drain, before checking reads.
  EngineEventCounter::Snapshot events;
  LayerCounters layers;
  std::array<SpanStats, kNumSpanNames> spans{};
};

// Runs the timed phase for `seconds`, drains, verifies, and snapshots stats.
PhaseResult RunPhase(const std::string& workload, const Sizes& sizes, uint64_t seed,
                     double seconds, Rig* rig, Checker* checker);

}  // namespace perfbench

#endif  // P2KVS_PERFBENCH_SRC_WORKLOADS_H_
