#include "perfbench/src/workloads.h"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "src/core/engines.h"
#include "src/io/mem_env.h"
#include "src/server/client.h"
#include "src/util/clock.h"
#include "src/util/random.h"
#include "src/util/resource_usage.h"
#include "src/ycsb/generator.h"

namespace perfbench {

using p2kvs::Histogram;
using p2kvs::IoStats;
using p2kvs::NowNanos;
using p2kvs::P2KVS;
using p2kvs::Random64;
using p2kvs::Status;
using p2kvs::server::Client;
using p2kvs::server::Response;
using p2kvs::server::WireStatus;

namespace {

// Spans kept for the span file (the first of each thread's timed phase);
// counts and self times cover every span.
constexpr size_t kMaxSpansPerThread = 10000;
constexpr uint64_t kRecordBytes = 16 + kValueSize;

void SleepUntil(uint64_t deadline_nanos) {
  const uint64_t now = NowNanos();
  if (deadline_nanos > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_nanos - now));
  }
}

// In-flight cap of one submitter. Completion callbacks hold a shared_ptr, so
// the counter outlives the submitter's wait for the last completion.
struct Window {
  explicit Window(int cap) : cap(cap) {}
  const int cap;
  std::atomic<int> inflight{0};

  // Single acquiring thread per window.
  void Acquire() {
    int cur = inflight.load(std::memory_order_acquire);
    while (cur >= cap) {
      inflight.wait(cur, std::memory_order_acquire);
      cur = inflight.load(std::memory_order_acquire);
    }
    inflight.fetch_add(1, std::memory_order_relaxed);
  }
  // Last touch of a callback: everything it recorded happens-before Drain.
  void Release() {
    inflight.fetch_sub(1, std::memory_order_acq_rel);
    inflight.notify_one();
  }
  void Drain() {
    int cur;
    while ((cur = inflight.load(std::memory_order_acquire)) != 0) {
      inflight.wait(cur, std::memory_order_acquire);
    }
  }
};

// Writes records [0, n) (version 0) through PutAsync from two threads.
Status Preload(P2KVS* store, uint64_t n, Checker* checker) {
  constexpr int kThreads = 2;
  constexpr int kWindow = 256;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto window = std::make_shared<Window>(kWindow);
      for (uint64_t idx = static_cast<uint64_t>(t); idx < n; idx += kThreads) {
        window->Acquire();
        store->PutAsync(KeyOf(idx), EncodeValue(idx, 0), [window, &failures](const Status& s) {
          if (!s.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          window->Release();
        });
      }
      window->Drain();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  checker->Expect(failures.load() == 0, "preload: a put failed");
  return failures.load() == 0 ? Status::OK() : Status::IOError("preload failed");
}

// Reads `keys` with one sync MultiGet and checks every value against its key.
void CheckedMultiGet(P2KVS* store, const std::vector<uint64_t>& keys, Checker* checker) {
  std::vector<std::string> owned;
  owned.reserve(keys.size());
  for (uint64_t k : keys) {
    owned.push_back(KeyOf(k));
  }
  std::vector<p2kvs::Slice> slices(owned.begin(), owned.end());
  std::vector<std::string> values;
  std::vector<Status> statuses = store->MultiGet(slices, &values);
  uint64_t good = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    if (statuses[i].ok() && ValueMatches(values[i], keys[i])) {
      good++;
    } else {
      checker->Fail("warm-up read of key " + owned[i] + ": " + statuses[i].ToString());
    }
  }
  checker->Pass(good);
}

// Reads every record once (read_sync: afterwards every block is cached).
void WarmAll(P2KVS* store, uint64_t n, int threads, Checker* checker) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; t++) {
    pool.emplace_back([=] {
      std::vector<uint64_t> keys;
      for (uint64_t idx = static_cast<uint64_t>(t); idx < n; idx += static_cast<uint64_t>(threads)) {
        keys.push_back(idx);
        if (keys.size() == 64) {
          CheckedMultiGet(store, keys, checker);
          keys.clear();
        }
      }
      if (!keys.empty()) {
        CheckedMultiGet(store, keys, checker);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

// Zipfian reads with a fixed seed: brings the block cache to the state the
// tcp_mixed key distribution keeps it in.
void WarmZipfian(P2KVS* store, uint64_t records, uint64_t reads, Checker* checker) {
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; t++) {
    pool.emplace_back([=] {
      p2kvs::ycsb::ScrambledZipfianGenerator zipf(records, 0x77a1u + static_cast<uint64_t>(t));
      std::vector<uint64_t> keys;
      for (uint64_t i = 0; i < reads / kThreads; i++) {
        keys.push_back(zipf.Next());
        if (keys.size() == 64) {
          CheckedMultiGet(store, keys, checker);
          keys.clear();
        }
      }
      if (!keys.empty()) {
        CheckedMultiGet(store, keys, checker);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  Random64 rng(seed * 0x9e3779b97f4a7c15ull + stream * 0xd1b54a32d192ed03ull + 1);
  return rng.Next();
}

// --- Workload bodies. Each runs the timed phase [t0, t_end) and returns once
// every call it issued has resolved. ---

struct Shared {
  LatencySink* sink = nullptr;
  Checker* checker = nullptr;
  LayerTracer* tracer = nullptr;  // traced phase only

  // Client-side span of one call (traced phase only).
  void ClientSpan(int kind, uint64_t start, uint64_t end, uint64_t request) const {
    if (tracer != nullptr) {
      tracer->Record(static_cast<SpanName>(static_cast<int>(SpanName::kClientGet) + kind), start,
                     end, request);
    }
  }
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> user_bytes{0};
  std::atomic<uint64_t> inflight_sum{0};
  std::atomic<bool> stop{false};
};

// Closed loop: submitters keep at most `write_window` PutAsync calls in
// flight each. Submitter s owns keys with index % submitters == s, so each
// key's writes reach its partition in program order and the final version
// of every key is known exactly for the read-back check.
void RunWriteAsync(P2KVS* store, const Sizes& sizes, uint64_t seed, Shared* shared,
                   std::vector<uint32_t>* last_version) {
  const int submitters = sizes.write_submitters;
  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; s++) {
    threads.emplace_back([=] {
      Random64 rng(Mix(seed, static_cast<uint64_t>(s)));
      auto window = std::make_shared<Window>(sizes.write_window);
      const uint64_t stride = static_cast<uint64_t>(submitters);
      const uint64_t slots = sizes.write_keys / stride;
      uint64_t inflight_sum = 0;
      uint64_t issued = 0;
      while (!shared->stop.load(std::memory_order_relaxed)) {
        window->Acquire();
        const uint64_t idx = rng.Uniform(slots) * stride + static_cast<uint64_t>(s);
        const uint32_t version = ++(*last_version)[idx];
        inflight_sum += static_cast<uint64_t>(window->inflight.load(std::memory_order_relaxed));
        const uint64_t t = NowNanos();
        store->PutAsync(KeyOf(idx), EncodeValue(idx, version),
                        [window, shared, t, idx](const Status& st) {
          if (st.ok()) {
            const uint64_t now = NowNanos();
            shared->sink->Record(kPut, t, now - t);
            shared->ClientSpan(kPut, t, now, idx);
            shared->ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            shared->failed.fetch_add(1, std::memory_order_relaxed);
          }
          window->Release();
        });
        issued++;
        shared->issued.fetch_add(1, std::memory_order_relaxed);
        shared->user_bytes.fetch_add(kRecordBytes, std::memory_order_relaxed);
      }
      window->Drain();
      shared->inflight_sum.fetch_add(inflight_sum, std::memory_order_relaxed);
      (void)issued;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// Read-back after write_async: every sampled key holds exactly its last
// written version; keys never written are NotFound.
void VerifyWrites(P2KVS* store, const Sizes& sizes, uint64_t seed,
                  const std::vector<uint32_t>& last_version, Checker* checker) {
  Random64 rng(Mix(seed, 0xfeed));
  uint64_t good = 0;
  for (uint64_t done = 0; done < sizes.verify_samples; done += 64) {
    std::vector<std::string> keys;
    std::vector<uint64_t> idx;
    for (int j = 0; j < 64; j++) {
      idx.push_back(rng.Uniform(sizes.write_keys));
      keys.push_back(KeyOf(idx.back()));
    }
    std::vector<p2kvs::Slice> slices(keys.begin(), keys.end());
    std::vector<std::string> values;
    std::vector<Status> st = store->MultiGet(slices, &values);
    for (size_t j = 0; j < idx.size(); j++) {
      const uint32_t want = last_version[idx[j]];
      uint64_t got = 0;
      const bool ok = want == 0 ? st[j].IsNotFound()
                                : st[j].ok() && ValueMatches(values[j], idx[j], &got) && got == want;
      if (ok) {
        good++;
      } else {
        checker->Fail("write_async read-back of " + keys[j] + " (want version " +
                      std::to_string(want) + "): " + st[j].ToString());
      }
    }
  }
  checker->Pass(good);
}

// Closed loop: `read_threads` threads of sync Get, uniform keys, every value
// checked.
void RunReadSync(P2KVS* store, const Sizes& sizes, uint64_t seed, Shared* shared) {
  std::vector<std::thread> threads;
  for (int t = 0; t < sizes.read_threads; t++) {
    threads.emplace_back([=] {
      Random64 rng(Mix(seed, 100 + static_cast<uint64_t>(t)));
      std::string value;
      uint64_t ok = 0, failed = 0, issued = 0;
      while (!shared->stop.load(std::memory_order_relaxed)) {
        const uint64_t idx = rng.Uniform(sizes.read_records);
        const std::string key = KeyOf(idx);
        const uint64_t t0 = NowNanos();
        const Status s = store->Get(key, &value);
        const uint64_t t1 = NowNanos();
        issued++;
        if (s.ok() && ValueMatches(value, idx)) {
          ok++;
          shared->sink->Record(kGet, t0, t1 - t0);
          shared->ClientSpan(kGet, t0, t1, idx);
        } else {
          failed++;
          shared->checker->Fail("read_sync Get " + key + ": " + s.ToString());
        }
      }
      shared->checker->Pass(ok);
      shared->ok.fetch_add(ok);
      shared->failed.fetch_add(failed);
      shared->issued.fetch_add(issued);
      shared->inflight_sum.fetch_add(issued * static_cast<uint64_t>(sizes.read_threads));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// One pipelined TCP connection of tcp_mixed: a sender holding the arrival
// schedule and a reader classifying and checking every response.
class MixedConnection {
 public:
  static constexpr uint64_t kDoneBit = uint64_t{1} << 63;

  // Builds the op generators up front: the zipfian's zeta sum over the whole
  // dataset takes tens of milliseconds and must not delay the first arrivals.
  MixedConnection(const Sizes& sizes, uint64_t seed, int conn, size_t capacity)
      : capacity_(capacity),
        scan_records_(sizes.mixed_records),
        meta_(new OpMeta[capacity]),
        rng_(Mix(seed, 200 + static_cast<uint64_t>(conn))),
        zipf_(sizes.mixed_records, Mix(seed, 300 + static_cast<uint64_t>(conn))) {}

  Status Connect(uint16_t port) { return client_.Connect("127.0.0.1", port); }

  void Send(const Sizes& sizes, int conn, uint64_t t0, uint64_t t_end, Shared* shared);
  void Read(Shared* shared);

  uint64_t issued() const { return issued_.load(std::memory_order_acquire) & ~kDoneBit; }
  uint64_t received() const { return received_; }
  uint64_t scan_keys() const { return scan_keys_; }
  const Histogram& lag() const { return lag_; }
  const Histogram& from_send() const { return from_send_; }
  uint64_t outstanding_sum() const { return outstanding_sum_; }

 private:
  struct OpMeta {
    uint64_t due = 0;
    uint64_t key = 0;
    uint32_t count = 0;  // scan length
    int kind = kGet;
    uint64_t mget_keys[8] = {};
    std::atomic<uint64_t> sent{0};  // published last (release)
  };

  void Check(const OpMeta& op, const Response& resp, Shared* shared, uint64_t* ok_checks);

  const size_t capacity_;
  const uint64_t scan_records_;  // dataset size: bounds a scan's expected length
  std::unique_ptr<OpMeta[]> meta_;
  Random64 rng_;                                  // sender-only
  p2kvs::ycsb::ScrambledZipfianGenerator zipf_;  // sender-only
  Client client_;
  // Requests handed to the socket; kDoneBit once the sender has finished.
  std::atomic<uint64_t> issued_{0};
  // Sender-only. Histograms are in microseconds.
  Histogram lag_;
  uint64_t outstanding_sum_ = 0;
  uint64_t puts_ = 0;
  // Reader-only.
  uint64_t received_ = 0;
  uint64_t scan_keys_ = 0;
  Histogram from_send_;
};

void MixedConnection::Send(const Sizes& sizes, int conn, uint64_t t0, uint64_t t_end,
                           Shared* shared) {
  // Wake close to each due time; sleeping (not spinning) leaves the cores to
  // the store, and any lateness is measured, not hidden.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const double interval = 1e9 * sizes.mixed_connections / sizes.mixed_rate;
  const double base = static_cast<double>(t0) + interval * conn / sizes.mixed_connections;
  const uint32_t version_base = static_cast<uint32_t>(conn + 1) << 28;
  uint64_t i = 0;
  bool done = false;
  while (!done) {
    uint64_t due;
    while (true) {
      due = static_cast<uint64_t>(base + interval * static_cast<double>(i));
      if (due >= t_end || i >= capacity_) {
        done = true;
        break;
      }
      const uint64_t now = NowNanos();
      if (due > now) {
        break;
      }
      OpMeta& op = meta_[i];
      op.due = due;
      const double pick = rng_.NextDouble();
      op.key = zipf_.Next();
      std::string key = KeyOf(op.key);
      outstanding_sum_ += client_.outstanding();
      lag_.Add(static_cast<double>(now - due) / 1000.0);
      uint64_t id;
      if (pick < 0.50) {
        op.kind = kGet;
        op.sent.store(now, std::memory_order_release);
        id = client_.SendGet(key);
      } else if (pick < 0.90) {
        op.kind = kPut;
        puts_++;
        op.sent.store(now, std::memory_order_release);
        id = client_.SendPut(key, EncodeValue(op.key, version_base + puts_));
        shared->user_bytes.fetch_add(kRecordBytes, std::memory_order_relaxed);
      } else if (pick < 0.95) {
        op.kind = kMultiGet;
        std::vector<std::string> keys;
        for (uint64_t& k : op.mget_keys) {
          k = zipf_.Next();
          keys.push_back(KeyOf(k));
        }
        op.sent.store(now, std::memory_order_release);
        id = client_.SendMultiGet(keys);
      } else {
        op.kind = kScan;
        op.count = static_cast<uint32_t>(1 + rng_.Uniform(100));
        op.sent.store(now, std::memory_order_release);
        id = client_.SendScan(key, op.count);
      }
      shared->checker->Expect(id == i + 1, "tcp_mixed: request ids out of step");
      i++;
    }
    const Status s = client_.Flush();
    if (!s.ok()) {
      shared->checker->Fail("tcp_mixed send: " + s.ToString());
      done = true;
    }
    shared->issued.fetch_add(i - issued(), std::memory_order_relaxed);
    issued_.store(done ? (i | kDoneBit) : i, std::memory_order_release);
    issued_.notify_one();
    if (!done) {
      SleepUntil(due);
    }
  }
}

void MixedConnection::Read(Shared* shared) {
  uint64_t ok_checks = 0;
  while (true) {
    uint64_t state = issued_.load(std::memory_order_acquire);
    if (received_ == (state & ~kDoneBit)) {
      if ((state & kDoneBit) != 0) {
        break;
      }
      issued_.wait(state, std::memory_order_acquire);  // nothing outstanding yet
      continue;
    }
    Response resp;
    const Status s = client_.ReadResponse(&resp);
    const uint64_t now = NowNanos();
    if (!s.ok()) {
      shared->checker->Fail("tcp_mixed connection lost: " + s.ToString());
      shared->failed.fetch_add((issued_.load() & ~kDoneBit) - received_);
      break;
    }
    received_++;
    if (resp.request_id == 0 || resp.request_id > capacity_) {
      shared->checker->Fail("tcp_mixed: response for unknown request id");
      shared->failed.fetch_add(1);
      continue;
    }
    const OpMeta& op = meta_[resp.request_id - 1];
    const uint64_t sent = op.sent.load(std::memory_order_acquire);
    from_send_.Add(static_cast<double>(now - sent) / 1000.0);
    if (resp.status_code != static_cast<uint8_t>(WireStatus::kOk)) {
      shared->failed.fetch_add(1, std::memory_order_relaxed);
      if (resp.status_code == static_cast<uint8_t>(WireStatus::kNotFound)) {
        shared->checker->Fail("tcp_mixed: preloaded key " + KeyOf(op.key) + " not found");
      }
      continue;
    }
    Check(op, resp, shared, &ok_checks);
    shared->sink->Record(op.kind, op.due, now - op.due);
    shared->ClientSpan(op.kind, sent, now, resp.request_id);
    shared->ok.fetch_add(1, std::memory_order_relaxed);
  }
  shared->checker->Pass(ok_checks);
}

void MixedConnection::Check(const OpMeta& op, const Response& resp, Shared* shared,
                            uint64_t* ok_checks) {
  Checker* checker = shared->checker;
  switch (op.kind) {
    case kGet:
      if (ValueMatches(resp.payload, op.key)) {
        (*ok_checks)++;
      } else {
        checker->Fail("tcp_mixed GET " + KeyOf(op.key) + ": value does not match its key");
      }
      break;
    case kPut:
      break;
    case kMultiGet: {
      std::vector<Status> statuses;
      std::vector<std::string> values;
      if (!resp.DecodeMultiGet(&statuses, &values) || statuses.size() != 8 ||
          values.size() != 8) {
        checker->Fail("tcp_mixed MULTIGET: malformed or wrong-sized result");
        break;
      }
      for (size_t j = 0; j < 8; j++) {
        if (!statuses[j].ok() || !ValueMatches(values[j], op.mget_keys[j])) {
          checker->Fail("tcp_mixed MULTIGET position " + std::to_string(j) +
                        " does not line up with key " + KeyOf(op.mget_keys[j]));
          return;
        }
      }
      (*ok_checks)++;
      break;
    }
    case kScan: {
      std::vector<std::pair<std::string, std::string>> pairs;
      if (!resp.DecodeScan(&pairs)) {
        checker->Fail("tcp_mixed SCAN: malformed result");
        break;
      }
      // Every key in [0, records) exists and none is deleted, so the scan
      // must return exactly the next `count` keys from `begin`, in order.
      const uint64_t records = scan_records_;
      const uint64_t want = std::min<uint64_t>(op.count, records - op.key);
      scan_keys_ += pairs.size();
      if (pairs.size() > op.count || pairs.size() != want) {
        checker->Fail("tcp_mixed SCAN from " + KeyOf(op.key) + ": " +
                      std::to_string(pairs.size()) + " pairs, want " + std::to_string(want));
        break;
      }
      for (size_t j = 0; j < pairs.size(); j++) {
        uint64_t idx = 0;
        if (!ParseKey(pairs[j].first, &idx) || idx != op.key + j ||
            !ValueMatches(pairs[j].second, idx)) {
          checker->Fail("tcp_mixed SCAN from " + KeyOf(op.key) + ": pair " + std::to_string(j) +
                        " out of order, before begin, or with a foreign value");
          return;
        }
      }
      (*ok_checks)++;
      break;
    }
    default:
      checker->Fail("tcp_mixed: unknown op kind");
      break;
  }
}

}  // namespace

// --- Sizes / config ---

Sizes Sizes::Full() {
  Sizes s;
  // 64 MiB of live data (8 MiB per partition): the store reaches its
  // steady level shape within the first seconds, so write amplification is
  // level between the two halves of the run while every partition still
  // flushes and compacts several times.
  s.write_keys = uint64_t{1} << 19;
  s.write_submitters = 2;
  s.write_window = 64;
  s.read_records = (uint64_t{32} << 20) / kRecordBytes;   // half of 8 x 8 MiB of block cache
  s.read_threads = 4;
  s.mixed_records = (uint64_t{256} << 20) / kRecordBytes;  // 4x the total block cache
  // About half the rate where p99 starts to climb: on a 4-core host p99 is
  // flat to ~10k ops/s (0.72 ms) and rises from ~12.5k (0.96 ms at 12.5k,
  // 1.3 ms at 15k, 2.5 ms at 20k).
  s.mixed_rate = 6000;
  s.mixed_connections = 2;
  s.mixed_warm_reads = 400000;
  s.verify_samples = 20000;
  return s;
}

Sizes Sizes::Tiny() {
  Sizes s = Full();
  s.write_keys = 20000;
  s.write_window = 16;
  s.read_records = 4096;
  s.mixed_records = 16384;
  s.mixed_rate = 2000;
  s.mixed_warm_reads = 2000;
  s.verify_samples = 2048;
  return s;
}

bool IsWorkload(const std::string& name) {
  return name == "write_async" || name == "read_sync" || name == "tcp_mixed";
}

p2kvs::DeviceProfile BenchDevice() { return p2kvs::DeviceProfile::NvmeSsd(); }

p2kvs::Options BenchLsmOptions(p2kvs::Env* env) { return p2kvs::bench::DefaultLsmOptions(env); }

// --- Checker ---

void Checker::Fail(const std::string& what) {
  checks_.fetch_add(1, std::memory_order_relaxed);
  failures_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_errors_.size() < 8) {
    first_errors_.push_back(what);
  }
}

bool Checker::Expect(bool ok, const char* what) {
  if (ok) {
    Pass();
  } else {
    Fail(what);
  }
  return ok;
}

std::vector<std::string> Checker::FirstErrors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_errors_;
}

// --- Rig ---

Status Rig::Open(bool traced) {
  mem_ = p2kvs::NewMemEnv();
  device_ = p2kvs::NewThrottledEnv(mem_.get(), BenchDevice());
  p2kvs::Env* engine_env = device_.get();
  p2kvs::P2kvsOptions options;
  if (traced) {
    tracer_ = std::make_unique<LayerTracer>(kMaxSpansPerThread);
    events_ = std::make_shared<EngineEventCounter>();
    traced_env_ = NewTracedEnv(device_.get(), tracer_.get());
    engine_env = traced_env_.get();
  }
  options.env = engine_env;
  options.engine_factory = p2kvs::MakeRocksLiteFactory(BenchLsmOptions(engine_env));
  if (traced) {
    options.engine_factory = TracedEngineFactory(std::move(options.engine_factory), tracer_.get());
    options.batch_policy_factory = TracedBatchPolicyFactory(tracer_.get());
    options.listener = events_;
  }
  return P2KVS::Open(options, "/perfbench", &store_);
}

Status Rig::StartServer() {
  server_ = std::make_unique<p2kvs::server::Server>(store_.get(), p2kvs::server::ServerOptions());
  return server_->Start();
}

void Rig::Close() {
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
  store_.reset();
  traced_env_.reset();
  device_.reset();
  mem_.reset();
}

// --- Setup ---

Status SetUp(const std::string& workload, const Sizes& sizes, Rig* rig, Checker* checker) {
  P2KVS* store = rig->store();
  Status s;
  if (workload == "read_sync") {
    s = Preload(store, sizes.read_records, checker);
    if (s.ok()) {
      // Empty memtables and settled levels: the timed phase then runs no
      // flush or compaction.
      s = store->FlushAll();
    }
    if (s.ok()) {
      s = store->WaitIdle();
    }
    if (s.ok()) {
      WarmAll(store, sizes.read_records, sizes.read_threads, checker);
    }
  } else if (workload == "tcp_mixed") {
    s = Preload(store, sizes.mixed_records, checker);
    if (s.ok()) {
      s = store->WaitIdle();
    }
    if (s.ok()) {
      WarmZipfian(store, sizes.mixed_records, sizes.mixed_warm_reads, checker);
    }
  }
  if (s.ok()) {
    s = store->WaitIdle();
  }
  if (s.ok() && workload == "tcp_mixed") {
    s = rig->StartServer();
  }
  return s;
}

// --- Timed phase ---

PhaseResult RunPhase(const std::string& workload, const Sizes& sizes, uint64_t seed,
                     double seconds, Rig* rig, Checker* checker) {
  P2KVS* store = rig->store();
  PhaseResult r;
  checker->Expect(store->GetStats(&r.stats_before).ok(), "GetStats before the timed phase");

  std::vector<std::unique_ptr<MixedConnection>> conns;
  if (workload == "tcp_mixed") {
    const size_t capacity = static_cast<size_t>(
        sizes.mixed_rate / sizes.mixed_connections * seconds * 1.05 + 1024);
    for (int c = 0; c < sizes.mixed_connections; c++) {
      conns.push_back(std::make_unique<MixedConnection>(sizes, seed, c, capacity));
      checker->Expect(conns.back()->Connect(rig->server()->port()).ok(), "tcp_mixed connect");
    }
  }

  const uint64_t duration = static_cast<uint64_t>(seconds * 1e9);
  const EngineEventCounter::Snapshot events0 =
      rig->events() != nullptr ? rig->events()->Read() : EngineEventCounter::Snapshot();
  if (rig->tracer() != nullptr) {
    rig->tracer()->ResetCounts();  // the set-up's spans and counts
  }
  IoStats::Instance().Reset();
  const p2kvs::IoStatsSnapshot io0 = IoStats::Instance().Snapshot();
  const uint64_t cpu0 = p2kvs::ProcessCpuNanos();
  const double steal0 = HostStealSeconds();
  const uint64_t t0 = NowNanos() + 1000000;  // 1 ms for the load threads to start
  const uint64_t t_end = t0 + duration;
  r.latency = std::make_unique<LatencySink>(t0, seconds);

  Shared shared;
  shared.sink = r.latency.get();
  shared.checker = checker;
  shared.tracer = rig->tracer();
  std::vector<uint32_t> last_version;
  std::vector<std::thread> load;
  if (workload == "write_async") {
    last_version.assign(sizes.write_keys, 0);
    load.emplace_back([&] { RunWriteAsync(store, sizes, seed, &shared, &last_version); });
  } else if (workload == "read_sync") {
    load.emplace_back([&] { RunReadSync(store, sizes, seed, &shared); });
  } else {
    for (int c = 0; c < sizes.mixed_connections; c++) {
      MixedConnection* conn = conns[static_cast<size_t>(c)].get();
      load.emplace_back([&, conn, c] { conn->Send(sizes, c, t0, t_end, &shared); });
      load.emplace_back([&, conn] { conn->Read(&shared); });
    }
  }

  // At each window boundary: engine memory, process CPU and host steal;
  // half way, the IoStats cut.
  constexpr uint64_t kTick = LatencySink::kWindowNanos;
  std::vector<double> mem_mb;
  uint64_t cpu_mark = cpu0;
  double steal_mark = steal0;
  const double online_cpu_seconds =
      static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))) *
      static_cast<double>(kTick) / 1e9;
  bool halved = false;
  for (uint64_t tick = 1; t0 + tick * kTick <= t_end; tick++) {
    SleepUntil(t0 + tick * kTick);
    mem_mb.push_back(static_cast<double>(store->ApproximateMemoryUsage()) / (1 << 20));
    const uint64_t cpu = p2kvs::ProcessCpuNanos();
    r.window_cpu_seconds.push_back(static_cast<double>(cpu - cpu_mark) / 1e9);
    cpu_mark = cpu;
    const double steal = HostStealSeconds();
    r.window_steal_frac.push_back((steal - steal_mark) / online_cpu_seconds);
    steal_mark = steal;
    if (!halved && tick * kTick >= duration / 2) {
      r.io_first_half = IoStats::Instance().Snapshot().Since(io0);
      r.user_bytes_first_half = shared.user_bytes.load();
      halved = true;
    }
  }
  SleepUntil(t_end);
  shared.stop.store(true);
  for (std::thread& t : load) {
    t.join();
  }
  // Every call issued in [t0, t_end) has resolved: the rate's denominator
  // runs to here, so an open loop's goodput reflects its completion tail.
  r.seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  r.cpu_seconds = static_cast<double>(p2kvs::ProcessCpuNanos() - cpu0) / 1e9;
  r.io_timed = IoStats::Instance().Snapshot().Since(io0);
  const uint64_t drain0 = NowNanos();
  checker->Expect(store->WaitIdle().ok(), "WaitIdle after the timed phase");
  r.drain_seconds = static_cast<double>(NowNanos() - drain0) / 1e9;
  r.io_total = IoStats::Instance().Snapshot().Since(io0);
  if (rig->events() != nullptr) {
    r.events = rig->events()->Read().Since(events0);
  }
  // The phase's layer and stage counts, before any checking reads add to
  // them. The store is idle, so the traced threads are quiescent.
  checker->Expect(store->GetStats(&r.stats_after).ok(), "GetStats after the timed phase");
  if (rig->tracer() != nullptr) {
    r.layers = rig->tracer()->Totals();
    r.spans = rig->tracer()->SpanTotals();
  }
  r.mem_mb_median = Median(mem_mb);

  r.attempted = shared.issued.load();
  r.ok = shared.ok.load();
  r.failed = shared.failed.load();
  r.user_bytes = shared.user_bytes.load();
  for (int k = 0; k < kNumOpKinds; k++) {
    r.ops_by_kind[k] = r.latency->Summarize(k).samples;
  }
  if (r.attempted > 0) {
    r.inflight_mean =
        static_cast<double>(shared.inflight_sum.load()) / static_cast<double>(r.attempted);
  }

  if (workload == "write_async") {
    VerifyWrites(store, sizes, seed, last_version, checker);
  }
  if (workload == "tcp_mixed") {
    Histogram lag, from_send;
    uint64_t received = 0, outstanding = 0;
    for (const auto& c : conns) {
      lag.Merge(c->lag());
      from_send.Merge(c->from_send());
      received += c->received();
      outstanding += c->outstanding_sum();
      r.scan_keys_returned += c->scan_keys();
    }
    r.gen_lag_p99_us = lag.Percentile(99);
    r.send_mean_us = from_send.Average();
    r.inflight_mean = r.attempted > 0 ? static_cast<double>(outstanding) / r.attempted : 0;
    r.server = rig->server()->Stats();
    checker->Expect(received == r.attempted, "tcp_mixed: every request got a response");
    checker->Expect(r.server.submitted_to_store == r.server.responses_sent &&
                        r.server.responses_sent == received,
                    "tcp_mixed door accounting: server submitted == responses sent == "
                    "client-classified responses");
    checker->Expect(r.server.pipeline_rejections == 0 && r.server.protocol_errors == 0,
                    "tcp_mixed: no pipeline rejects or protocol errors");
  }

  checker->Expect(store->WaitIdle().ok(), "WaitIdle before SelfCheck");
  p2kvs::P2kvsStats final_stats;
  Status s = store->GetStats(&final_stats);
  checker->Expect(s.ok(), "GetStats before SelfCheck");
  s = final_stats.SelfCheck();
  if (!s.ok()) {
    checker->Fail("P2kvsStats::SelfCheck after WaitIdle: " + s.ToString());
  } else {
    checker->Pass();
  }
  return r;
}

}  // namespace perfbench
