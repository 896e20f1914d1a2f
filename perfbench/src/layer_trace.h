// Traced run of p2kvs-bench: spans and counters recorded at the store's layer
// boundaries from benchmark-owned wrappers installed through the store's
// public extension points. Nothing here lives inside src/; the untraced run
// installs none of it.
//
//   engine   a KVStore decorator (P2kvsOptions::engine_factory) that times
//            every engine call and counts iterator steps;
//   core     a BatchPolicy decorator (P2kvsOptions::batch_policy_factory)
//            that times BatchPolicy::Collect and hands the group size to the
//            engine decorator on the same worker thread;
//   device   an EnvWrapper between the engines and the throttled device Env,
//            classifying files as WAL (*.log), SST (*.sst) or other by name;
//   lsm      an EventListener counting flushes, compactions and stalls.
//
// Spans (name, start, end, parent, request id) and counters live in
// per-thread state owned by the LayerTracer and are only read after every
// traced thread has stopped (the store is closed first).

#ifndef P2KVS_PERFBENCH_SRC_LAYER_TRACE_H_
#define P2KVS_PERFBENCH_SRC_LAYER_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/batch_policy.h"
#include "src/core/event_listener.h"
#include "src/core/kv_store.h"
#include "src/io/env.h"

namespace perfbench {

enum class SpanName : uint16_t {
  kClientGet,
  kClientPut,
  kClientMultiGet,
  kClientScan,
  kCoreCollect,
  kLsmWrite,
  kLsmGet,
  kLsmMultiGet,
  kLsmIter,
  kIoReadSst,
  kIoReadOther,
  kIoAppendWal,
  kIoAppendSst,
  kIoAppendOther,
  kIoSync,
  kCount,
};
constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName name);

// Work counted at the boundaries that spans do not carry. Call counts and
// durations come from the spans (LayerTracer::SpanTotals). Summed over
// threads by LayerTracer::Totals.
struct LayerCounters {
  // Engine calls. `*_request_ns` is Σ call duration × requests in the call:
  // every request of a merged group waits for the whole call.
  uint64_t write_requests = 0, write_request_ns = 0;
  uint64_t read_keys = 0, read_requests = 0, read_request_ns = 0;
  uint64_t iter_steps = 0;
  // Device. Foreground = IoPurpose::kUser; background = flush/compaction.
  uint64_t fg_reads = 0, fg_read_ns = 0;
  uint64_t fg_sst_reads_point = 0;  // SST block reads outside an iterator
  uint64_t wal_bytes = 0;
  uint64_t bg_io_ns = 0;

  void Add(const LayerCounters& o);
};

struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // duration minus the time same-thread children cover
};

class LayerTracer {
 public:
  explicit LayerTracer(size_t max_spans_per_thread);
  ~LayerTracer();

  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  // The calling thread's counters.
  LayerCounters& Local();

  // Opens a span on the calling thread; its parent is the innermost span
  // still open on this thread. Returns the start time.
  uint64_t Begin(SpanName name, uint64_t request_id);
  // Closes the innermost open span; returns its duration in nanoseconds.
  uint64_t End();
  // Name of the innermost open span on this thread (kCount when none).
  SpanName Innermost();
  // A span timed across threads (a pipelined TCP request: sent by one
  // thread, answered on another). No parent.
  void Record(SpanName name, uint64_t start_nanos, uint64_t end_nanos, uint64_t request_id);

  // Drops every span and count recorded so far (the set-up's), so the
  // readers cover one timed phase. Call only while the store is idle: after
  // WaitIdle and before any load thread starts.
  void ResetCounts();

  // Readers. Call only once every traced thread has stopped.
  LayerCounters Totals() const;
  std::array<SpanStats, kNumSpanNames> SpanTotals() const;
  uint64_t SpansKept() const;
  uint64_t SpansDropped() const;
  // Chrome trace_event JSON (loads in Perfetto / chrome://tracing).
  bool WriteSpans(const std::string& path) const;

 private:
  struct ThreadState;
  ThreadState* State();

  const uint64_t generation_;
  const size_t max_spans_per_thread_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(LayerTracer* tracer, SpanName name, uint64_t request_id) : tracer_(tracer) {
    tracer_->Begin(name, request_id);
  }
  ~ScopedSpan() {
    if (!done_) {
      tracer_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t Finish() {
    done_ = true;
    return tracer_->End();
  }

 private:
  LayerTracer* tracer_;
  bool done_ = false;
};

// Wraps every engine the base factory creates in the tracing decorator.
p2kvs::EngineFactory TracedEngineFactory(p2kvs::EngineFactory base, LayerTracer* tracer);

// The store's default policy choice (MakeBatchPolicyFromCaps), decorated.
p2kvs::BatchPolicyFactory TracedBatchPolicyFactory(LayerTracer* tracer);

// Env decorator placed between the engines and `target` (the device model).
std::unique_ptr<p2kvs::Env> NewTracedEnv(p2kvs::Env* target, LayerTracer* tracer);

// Background-work listener. Counters are cumulative; diff around a phase.
class EngineEventCounter final : public p2kvs::EventListener {
 public:
  struct Snapshot {
    uint64_t flushes = 0;
    uint64_t flush_bytes = 0;
    uint64_t compactions = 0;
    uint64_t compaction_bytes_read = 0;
    uint64_t compaction_bytes_written = 0;
    uint64_t stalls = 0;
    uint64_t stall_micros = 0;

    Snapshot Since(const Snapshot& base) const;
  };

  void OnFlushCompleted(int worker_id, const p2kvs::FlushEventInfo& info) override;
  void OnCompactionCompleted(int worker_id, const p2kvs::CompactionEventInfo& info) override;
  void OnWriteStalled(int worker_id, const p2kvs::StallEventInfo& info) override;

  Snapshot Read() const;

 private:
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> flush_bytes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> compaction_bytes_read_{0};
  std::atomic<uint64_t> compaction_bytes_written_{0};
  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> stall_micros_{0};
};

}  // namespace perfbench

#endif  // P2KVS_PERFBENCH_SRC_LAYER_TRACE_H_
