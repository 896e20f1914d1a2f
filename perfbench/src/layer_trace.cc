#include "perfbench/src/layer_trace.h"

#include <cstdio>

#include "src/io/env_wrapper.h"
#include "src/io/io_stats.h"
#include "src/util/clock.h"

namespace perfbench {

using p2kvs::Env;
using p2kvs::EngineCaps;
using p2kvs::IoPurpose;
using p2kvs::Iterator;
using p2kvs::KVStore;
using p2kvs::KvWriteOptions;
using p2kvs::NowNanos;
using p2kvs::RandomAccessFile;
using p2kvs::Slice;
using p2kvs::Status;
using p2kvs::WritableFile;

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "client.get",     "client.put",    "client.multiget", "client.scan",
      "core.collect",   "lsm.write",     "lsm.get",         "lsm.multiget",
      "lsm.iter",       "io.read.sst",   "io.read.other",   "io.append.wal",
      "io.append.sst",  "io.append.other", "io.sync"};
  const size_t i = static_cast<size_t>(name);
  return i < kNumSpanNames ? kNames[i] : "none";
}

void LayerCounters::Add(const LayerCounters& o) {
  write_requests += o.write_requests;
  write_request_ns += o.write_request_ns;
  read_keys += o.read_keys;
  read_requests += o.read_requests;
  read_request_ns += o.read_request_ns;
  iter_steps += o.iter_steps;
  fg_reads += o.fg_reads;
  fg_read_ns += o.fg_read_ns;
  fg_sst_reads_point += o.fg_sst_reads_point;
  wal_bytes += o.wal_bytes;
  bg_io_ns += o.bg_io_ns;
}

// --- LayerTracer ---

namespace {
std::atomic<uint64_t> g_tracer_generation{1};
}  // namespace

struct LayerTracer::ThreadState {
  struct Open {
    SpanName name;
    uint64_t id;
    uint64_t start;
    uint64_t request;
    uint64_t child_ns;
  };
  struct Kept {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    uint64_t start;
    uint64_t end;
    SpanName name;
  };

  uint32_t tid = 0;
  uint64_t next_seq = 1;
  std::vector<Open> stack;
  std::vector<Kept> kept;
  uint64_t dropped = 0;
  LayerCounters counters;
  std::array<SpanStats, kNumSpanNames> stats{};

  uint64_t NextId() { return (static_cast<uint64_t>(tid + 1) << 40) | next_seq++; }

  void Keep(size_t cap, const Kept& k) {
    if (kept.size() < cap) {
      kept.push_back(k);
    } else {
      dropped++;
    }
  }
};

LayerTracer::LayerTracer(size_t max_spans_per_thread)
    : generation_(g_tracer_generation.fetch_add(1)),
      max_spans_per_thread_(max_spans_per_thread) {}

LayerTracer::~LayerTracer() = default;

LayerTracer::ThreadState* LayerTracer::State() {
  // Keyed by generation so a tracer allocated where a destroyed one lived
  // never inherits its per-thread state.
  thread_local uint64_t cached_generation = 0;
  thread_local ThreadState* cached = nullptr;
  if (cached_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    cached = threads_.back().get();
    cached->tid = static_cast<uint32_t>(threads_.size());
    cached_generation = generation_;
  }
  return cached;
}

LayerCounters& LayerTracer::Local() { return State()->counters; }

uint64_t LayerTracer::Begin(SpanName name, uint64_t request_id) {
  ThreadState* st = State();
  const uint64_t now = NowNanos();
  st->stack.push_back(ThreadState::Open{name, st->NextId(), now, request_id, 0});
  return now;
}

uint64_t LayerTracer::End() {
  ThreadState* st = State();
  const uint64_t now = NowNanos();
  const ThreadState::Open open = st->stack.back();
  st->stack.pop_back();
  const uint64_t duration = now - open.start;
  uint64_t parent = 0;
  if (!st->stack.empty()) {
    st->stack.back().child_ns += duration;
    parent = st->stack.back().id;
  }
  SpanStats& s = st->stats[static_cast<size_t>(open.name)];
  s.count++;
  s.total_ns += duration;
  s.self_ns += duration > open.child_ns ? duration - open.child_ns : 0;
  st->Keep(max_spans_per_thread_,
           ThreadState::Kept{open.id, parent, open.request, open.start, now, open.name});
  return duration;
}

SpanName LayerTracer::Innermost() {
  ThreadState* st = State();
  return st->stack.empty() ? SpanName::kCount : st->stack.back().name;
}

void LayerTracer::Record(SpanName name, uint64_t start_nanos, uint64_t end_nanos,
                         uint64_t request_id) {
  ThreadState* st = State();
  const uint64_t duration = end_nanos > start_nanos ? end_nanos - start_nanos : 0;
  SpanStats& s = st->stats[static_cast<size_t>(name)];
  s.count++;
  s.total_ns += duration;
  s.self_ns += duration;
  st->Keep(max_spans_per_thread_,
           ThreadState::Kept{st->NextId(), 0, request_id, start_nanos, end_nanos, name});
}

void LayerTracer::ResetCounts() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    t->kept.clear();
    t->dropped = 0;
    t->counters = LayerCounters();
    t->stats = {};
  }
}

LayerCounters LayerTracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  LayerCounters total;
  for (const auto& t : threads_) {
    total.Add(t->counters);
  }
  return total;
}

std::array<SpanStats, kNumSpanNames> LayerTracer::SpanTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::array<SpanStats, kNumSpanNames> total{};
  for (const auto& t : threads_) {
    for (size_t i = 0; i < kNumSpanNames; i++) {
      total[i].count += t->stats[i].count;
      total[i].total_ns += t->stats[i].total_ns;
      total[i].self_ns += t->stats[i].self_ns;
    }
  }
  return total;
}

uint64_t LayerTracer::SpansKept() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) {
    n += t->kept.size();
  }
  return n;
}

uint64_t LayerTracer::SpansDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) {
    n += t->dropped;
  }
  return n;
}

bool LayerTracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t origin = UINT64_MAX;
  for (const auto& t : threads_) {
    for (const auto& k : t->kept) {
      origin = std::min(origin, k.start);
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& t : threads_) {
    for (const auto& k : t->kept) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                   first ? "" : ",\n", SpanNameString(k.name), t->tid,
                   static_cast<double>(k.start - origin) / 1000.0,
                   static_cast<double>(k.end - k.start) / 1000.0,
                   static_cast<unsigned long long>(k.id),
                   static_cast<unsigned long long>(k.parent),
                   static_cast<unsigned long long>(k.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// --- Engine decorator ---

namespace {

// Requests in the group the worker's batch policy just collected; consumed by
// the next engine call on the same worker thread. Zero means the call was not
// preceded by a Collect (a fan-out slice or a scan): one request.
thread_local uint32_t t_group_requests = 0;

uint64_t TakeGroupRequests() {
  const uint32_t n = t_group_requests;
  t_group_requests = 0;
  return n == 0 ? 1 : n;
}

bool IsBackgroundIo() {
  const IoPurpose p = p2kvs::GetThreadIoPurpose();
  return p == IoPurpose::kFlush || p == IoPurpose::kCompaction;
}

// Closes the kLsmIter span its creator opened before asking the engine for
// the iterator: the span covers creation, every step and destruction.
class TracedIterator final : public Iterator {
 public:
  TracedIterator(Iterator* base, LayerTracer* tracer) : base_(base), tracer_(tracer) {}
  ~TracedIterator() override {
    // Destroy the engine iterator inside the span: unpinning is engine work.
    base_.reset();
    tracer_->End();
    tracer_->Local().iter_steps += steps_;
  }

  bool Valid() const override { return base_->Valid(); }
  void SeekToFirst() override {
    steps_++;
    base_->SeekToFirst();
  }
  void SeekToLast() override {
    steps_++;
    base_->SeekToLast();
  }
  void Seek(const Slice& target) override {
    steps_++;
    base_->Seek(target);
  }
  void Next() override {
    steps_++;
    base_->Next();
  }
  void Prev() override {
    steps_++;
    base_->Prev();
  }
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  std::unique_ptr<Iterator> base_;
  LayerTracer* tracer_;
  uint64_t steps_ = 0;
};

class TracedKVStore final : public KVStore {
 public:
  TracedKVStore(std::unique_ptr<KVStore> base, LayerTracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  EngineCaps caps() const override { return base_->caps(); }

  Status Put(const Slice& key, const Slice& value, const KvWriteOptions& options) override {
    return TimedWrite([&] { return base_->Put(key, value, options); });
  }
  Status Delete(const Slice& key, const KvWriteOptions& options) override {
    return TimedWrite([&] { return base_->Delete(key, options); });
  }
  Status Write(p2kvs::WriteBatch* batch, const KvWriteOptions& options) override {
    return TimedWrite([&] { return base_->Write(batch, options); });
  }

  Status Get(const Slice& key, std::string* value) override {
    const uint64_t requests = TakeGroupRequests();
    ScopedSpan span(tracer_, SpanName::kLsmGet, requests);
    Status s = base_->Get(key, value);
    CountRead(span.Finish(), 1, requests);
    return s;
  }
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    const uint64_t requests = TakeGroupRequests();
    ScopedSpan span(tracer_, SpanName::kLsmMultiGet, requests);
    std::vector<Status> s = base_->MultiGet(keys, values);
    CountRead(span.Finish(), keys.size(), requests);
    return s;
  }

  Iterator* NewIterator() override {
    TakeGroupRequests();
    tracer_->Begin(SpanName::kLsmIter, 1);
    return new TracedIterator(base_->NewIterator(), tracer_);
  }

  const p2kvs::Snapshot* GetSnapshot() override { return base_->GetSnapshot(); }
  void ReleaseSnapshot(const p2kvs::Snapshot* snapshot) override {
    base_->ReleaseSnapshot(snapshot);
  }
  Status GetAtSnapshot(const Slice& key, std::string* value,
                       const p2kvs::Snapshot* snapshot) override {
    return base_->GetAtSnapshot(key, value, snapshot);
  }
  void InstallEventHooks(const p2kvs::EngineEventHooks& hooks) override {
    base_->InstallEventHooks(hooks);
  }
  Status Flush() override { return base_->Flush(); }
  Status Resume() override { return base_->Resume(); }
  void WaitIdle() override { base_->WaitIdle(); }
  size_t ApproximateMemoryUsage() const override { return base_->ApproximateMemoryUsage(); }

 private:
  template <typename Fn>
  Status TimedWrite(Fn&& fn) {
    const uint64_t requests = TakeGroupRequests();
    ScopedSpan span(tracer_, SpanName::kLsmWrite, requests);
    Status s = fn();
    const uint64_t ns = span.Finish();
    LayerCounters& c = tracer_->Local();
    c.write_requests += requests;
    c.write_request_ns += ns * requests;
    return s;
  }

  void CountRead(uint64_t ns, uint64_t keys, uint64_t requests) {
    LayerCounters& c = tracer_->Local();
    c.read_keys += keys;
    c.read_requests += requests;
    c.read_request_ns += ns * requests;
  }

  std::unique_ptr<KVStore> base_;
  LayerTracer* tracer_;
};

// --- Batch policy decorator ---

class TracedBatchPolicy final : public p2kvs::BatchPolicy {
 public:
  TracedBatchPolicy(std::unique_ptr<p2kvs::BatchPolicy> base, LayerTracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  const char* name() const override { return base_->name(); }

  void Collect(p2kvs::Request* first, p2kvs::RequestQueue* queue,
               std::vector<p2kvs::Request*>* group) override {
    ScopedSpan span(tracer_, SpanName::kCoreCollect, reinterpret_cast<uintptr_t>(first));
    base_->Collect(first, queue, group);
    span.Finish();
    t_group_requests = static_cast<uint32_t>(group->size());
  }

 private:
  std::unique_ptr<p2kvs::BatchPolicy> base_;
  LayerTracer* tracer_;
};

// --- Device decorator ---

enum class FileClass { kWal, kSst, kOther };

FileClass Classify(const std::string& fname) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::char_traits<char>::length(suffix);
    return fname.size() >= n && fname.compare(fname.size() - n, n, suffix) == 0;
  };
  if (ends_with(".log")) {
    return FileClass::kWal;
  }
  if (ends_with(".sst")) {
    return FileClass::kSst;
  }
  return FileClass::kOther;
}

class TracedRandomAccessFile final : public RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<RandomAccessFile> base, FileClass cls,
                         LayerTracer* tracer)
      : base_(std::move(base)), cls_(cls), tracer_(tracer) {}

  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
    const bool in_iter = tracer_->Innermost() == SpanName::kLsmIter;
    const bool background = IsBackgroundIo();
    ScopedSpan span(tracer_, cls_ == FileClass::kSst ? SpanName::kIoReadSst : SpanName::kIoReadOther,
                    offset);
    Status s = base_->Read(offset, n, result, scratch);
    const uint64_t ns = span.Finish();
    LayerCounters& c = tracer_->Local();
    if (background) {
      c.bg_io_ns += ns;
    } else {
      c.fg_reads++;
      c.fg_read_ns += ns;
      if (cls_ == FileClass::kSst && !in_iter) {
        c.fg_sst_reads_point++;  // a Get/MultiGet's block read, not a scan's
      }
    }
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  const FileClass cls_;
  LayerTracer* tracer_;
};

class TracedWritableFile final : public WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<WritableFile> base, FileClass cls, LayerTracer* tracer)
      : base_(std::move(base)), cls_(cls), tracer_(tracer) {}

  Status Append(const Slice& data) override {
    const SpanName name = cls_ == FileClass::kWal   ? SpanName::kIoAppendWal
                          : cls_ == FileClass::kSst ? SpanName::kIoAppendSst
                                                    : SpanName::kIoAppendOther;
    ScopedSpan span(tracer_, name, data.size());
    Status s = base_->Append(data);
    const uint64_t ns = span.Finish();
    LayerCounters& c = tracer_->Local();
    if (cls_ == FileClass::kWal) {
      c.wal_bytes += data.size();
    }
    if (IsBackgroundIo()) {
      c.bg_io_ns += ns;
    }
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    ScopedSpan span(tracer_, SpanName::kIoSync, 0);
    Status s = base_->Sync();
    const uint64_t ns = span.Finish();
    if (IsBackgroundIo()) {
      tracer_->Local().bg_io_ns += ns;
    }
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  const FileClass cls_;
  LayerTracer* tracer_;
};

class TracedEnv final : public p2kvs::EnvWrapper {
 public:
  TracedEnv(Env* target, LayerTracer* tracer) : EnvWrapper(target), tracer_(tracer) {}

  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    std::unique_ptr<RandomAccessFile> base;
    Status s = target()->NewRandomAccessFile(f, &base);
    if (s.ok()) {
      *r = std::make_unique<TracedRandomAccessFile>(std::move(base), Classify(f), tracer_);
    }
    return s;
  }
  Status NewWritableFile(const std::string& f, std::unique_ptr<WritableFile>* r) override {
    return WrapWritable(f, r, target()->NewWritableFile(f, r));
  }
  Status NewAppendableFile(const std::string& f, std::unique_ptr<WritableFile>* r) override {
    return WrapWritable(f, r, target()->NewAppendableFile(f, r));
  }

 private:
  Status WrapWritable(const std::string& f, std::unique_ptr<WritableFile>* r, Status s) {
    if (s.ok()) {
      *r = std::make_unique<TracedWritableFile>(std::move(*r), Classify(f), tracer_);
    }
    return s;
  }

  LayerTracer* tracer_;
};

}  // namespace

p2kvs::EngineFactory TracedEngineFactory(p2kvs::EngineFactory base, LayerTracer* tracer) {
  return [base = std::move(base), tracer](const std::string& path,
                                           std::function<bool(uint64_t)> recovery_filter,
                                           std::unique_ptr<KVStore>* out) {
    std::unique_ptr<KVStore> engine;
    Status s = base(path, std::move(recovery_filter), &engine);
    if (s.ok()) {
      *out = std::make_unique<TracedKVStore>(std::move(engine), tracer);
    }
    return s;
  };
}

p2kvs::BatchPolicyFactory TracedBatchPolicyFactory(LayerTracer* tracer) {
  return [tracer](const EngineCaps& caps, bool enable_obm, int max_batch_size) {
    return std::unique_ptr<p2kvs::BatchPolicy>(std::make_unique<TracedBatchPolicy>(
        p2kvs::MakeBatchPolicyFromCaps(caps, enable_obm, max_batch_size), tracer));
  };
}

std::unique_ptr<Env> NewTracedEnv(Env* target, LayerTracer* tracer) {
  return std::make_unique<TracedEnv>(target, tracer);
}

// --- EngineEventCounter ---

EngineEventCounter::Snapshot EngineEventCounter::Snapshot::Since(const Snapshot& base) const {
  Snapshot d;
  d.flushes = flushes - base.flushes;
  d.flush_bytes = flush_bytes - base.flush_bytes;
  d.compactions = compactions - base.compactions;
  d.compaction_bytes_read = compaction_bytes_read - base.compaction_bytes_read;
  d.compaction_bytes_written = compaction_bytes_written - base.compaction_bytes_written;
  d.stalls = stalls - base.stalls;
  d.stall_micros = stall_micros - base.stall_micros;
  return d;
}

void EngineEventCounter::OnFlushCompleted(int /*worker_id*/, const p2kvs::FlushEventInfo& info) {
  flushes_.fetch_add(1, std::memory_order_relaxed);
  flush_bytes_.fetch_add(info.bytes_written, std::memory_order_relaxed);
}

void EngineEventCounter::OnCompactionCompleted(int /*worker_id*/,
                                               const p2kvs::CompactionEventInfo& info) {
  compactions_.fetch_add(1, std::memory_order_relaxed);
  compaction_bytes_read_.fetch_add(info.bytes_read, std::memory_order_relaxed);
  compaction_bytes_written_.fetch_add(info.bytes_written, std::memory_order_relaxed);
}

void EngineEventCounter::OnWriteStalled(int /*worker_id*/, const p2kvs::StallEventInfo& info) {
  stalls_.fetch_add(1, std::memory_order_relaxed);
  stall_micros_.fetch_add(info.stall_micros, std::memory_order_relaxed);
}

EngineEventCounter::Snapshot EngineEventCounter::Read() const {
  Snapshot s;
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.flush_bytes = flush_bytes_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.compaction_bytes_read = compaction_bytes_read_.load(std::memory_order_relaxed);
  s.compaction_bytes_written = compaction_bytes_written_.load(std::memory_order_relaxed);
  s.stalls = stalls_.load(std::memory_order_relaxed);
  s.stall_micros = stall_micros_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace perfbench
