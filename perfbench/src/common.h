// Shared pieces of p2kvs-bench: windowed per-thread latency sinks, the
// self-checking value encoding, and the metric table the result line is
// printed from.

#ifndef P2KVS_PERFBENCH_SRC_COMMON_H_
#define P2KVS_PERFBENCH_SRC_COMMON_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/slice.h"

namespace perfbench {

using p2kvs::Slice;

// Client-visible operation classes.
enum OpKind : int { kGet = 0, kPut = 1, kMultiGet = 2, kScan = 3, kNumOpKinds = 4 };
const char* OpKindName(int kind);

// Median of `v` (0 when empty).
double Median(std::vector<double> v);

// Latency samples of one run, kept per recording thread (no shared writes on
// the hot path) and per 100 ms window of the timed phase, so windows
// disturbed from outside the process (see QuietWindows) can be left out of
// the percentiles. Samples are p2kvs::Histogram microseconds.
class LatencySink {
 public:
  static constexpr uint64_t kWindowNanos = 100000000;

  LatencySink(uint64_t start_nanos, double seconds);
  ~LatencySink();

  LatencySink(const LatencySink&) = delete;
  LatencySink& operator=(const LatencySink&) = delete;

  // Records a latency for an operation that became due at `due_nanos`; its
  // latency lands in the due time's window, its completion in the window
  // it completed in. Thread-safe: every thread writes its own shard.
  void Record(int kind, uint64_t due_nanos, uint64_t latency_nanos);

  size_t windows() const { return windows_; }

  struct Summary {
    uint64_t samples = 0;
    double mean_us = 0;  // every window
    double p50_us = 0;   // pooled over the used windows
    double p99_us = 0;   // pooled over the used windows
    std::vector<double> window_p99_us;         // every window
    std::vector<uint64_t> window_completions;  // calls completed per window
  };
  // Merges every shard; call once all recording threads have quiesced.
  // `kind` < 0 summarises every op kind together. `use` (empty = all)
  // selects the windows the percentiles are pooled over.
  Summary Summarize(int kind, const std::vector<bool>& use = {}) const;

 private:
  struct Shard {
    explicit Shard(size_t windows);
    std::array<std::vector<p2kvs::Histogram>, kNumOpKinds> windows;
    std::array<std::vector<uint64_t>, kNumOpKinds> completions;
  };
  Shard* LocalShard();
  size_t WindowOf(uint64_t nanos) const;

  const uint64_t generation_;
  const uint64_t start_nanos_;
  const size_t windows_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// --- Self-checking values ---------------------------------------------------
//
// Every value the benchmark writes is EncodeValue(key_index, version): the
// key index and version in hex, then filler derived from both. A value read
// back can therefore be checked against the key it was read under without
// keeping a copy of the dataset.

constexpr size_t kValueSize = 112;  // + 16-byte key = 128-byte records

std::string KeyOf(uint64_t index);  // ycsb::RecordKey: 16 bytes
// Parses a KeyOf() key; false for anything else.
bool ParseKey(const Slice& key, uint64_t* index);
std::string EncodeValue(uint64_t index, uint64_t version);
// True when `value` is a well-formed encoding written under key `index`.
bool ValueMatches(const Slice& value, uint64_t index, uint64_t* version = nullptr);

// --- Metric output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricTable {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  // {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

// Host-wide CPU seconds stolen by the hypervisor, summed over CPUs (the
// steal column of /proc/stat); 0 where it is not available.
double HostStealSeconds();

// The windows a run's metrics are taken over: those in which, and in whose
// neighbours, the hypervisor stole at most 0.5% of the guest's CPU time.
// Stolen time stalls the store's threads from outside the process; on a
// shared host it comes in bursts that multiply p99 tenfold. /proc/stat
// counts it in 10 ms ticks, so a window's steal may show in the next one,
// and a call due late in a window may be delayed by steal in the next:
// hence the neighbours. When fewer than max(3, 1/4) of the windows are that
// quiet, the least-disturbed ones are used. Without a steal figure for every
// window, all are used.
std::vector<bool> QuietWindows(const std::vector<double>& steal_frac, size_t windows);

}  // namespace perfbench

#endif  // P2KVS_PERFBENCH_SRC_COMMON_H_
