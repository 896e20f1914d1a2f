#include "perfbench/src/common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/util/random.h"
#include "src/ycsb/workload.h"

namespace perfbench {

const char* OpKindName(int kind) {
  static const char* const kNames[kNumOpKinds] = {"get", "put", "multiget", "scan"};
  return kind >= 0 && kind < kNumOpKinds ? kNames[kind] : "all";
}

// --- LatencySink ---

namespace {
std::atomic<uint64_t> g_sink_generation{1};
}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

LatencySink::Shard::Shard(size_t n) {
  for (int k = 0; k < kNumOpKinds; k++) {
    windows[static_cast<size_t>(k)].resize(n);
    completions[static_cast<size_t>(k)].resize(n);
  }
}

LatencySink::LatencySink(uint64_t start_nanos, double seconds)
    : generation_(g_sink_generation.fetch_add(1)),
      start_nanos_(start_nanos),
      windows_(static_cast<size_t>(
          std::clamp(std::ceil(seconds * 1e9 / kWindowNanos), 1.0, 60e9 / kWindowNanos))) {}

LatencySink::~LatencySink() = default;

LatencySink::Shard* LatencySink::LocalShard() {
  // Keyed by generation, not address: a later sink allocated at a freed
  // sink's address must not reuse the freed shard.
  thread_local uint64_t cached_generation = 0;
  thread_local Shard* cached = nullptr;
  if (cached_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::make_unique<Shard>(windows_));
    cached = shards_.back().get();
    cached_generation = generation_;
  }
  return cached;
}

size_t LatencySink::WindowOf(uint64_t nanos) const {
  const uint64_t w = nanos > start_nanos_ ? (nanos - start_nanos_) / kWindowNanos : 0;
  return static_cast<size_t>(std::min<uint64_t>(w, windows_ - 1));
}

void LatencySink::Record(int kind, uint64_t due_nanos, uint64_t latency_nanos) {
  Shard* shard = LocalShard();
  shard->windows[static_cast<size_t>(kind)][WindowOf(due_nanos)].Add(
      static_cast<double>(latency_nanos) / 1000.0);
  shard->completions[static_cast<size_t>(kind)][WindowOf(due_nanos + latency_nanos)]++;
}

LatencySink::Summary LatencySink::Summarize(int kind, const std::vector<bool>& use) const {
  std::vector<p2kvs::Histogram> merged(windows_);
  Summary out;
  out.window_completions.assign(windows_, 0);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (int k = 0; k < kNumOpKinds; k++) {
      if (kind >= 0 && k != kind) {
        continue;
      }
      for (size_t w = 0; w < windows_; w++) {
        merged[w].Merge(shard->windows[static_cast<size_t>(k)][w]);
        out.window_completions[w] += shard->completions[static_cast<size_t>(k)][w];
      }
    }
  }
  // Percentiles pool every used window's samples: a stall that hits a few
  // windows moves p99 as much as it moves the calls it delayed.
  p2kvs::Histogram all, used;
  for (size_t w = 0; w < windows_; w++) {
    const p2kvs::Histogram& h = merged[w];
    all.Merge(h);
    out.window_p99_us.push_back(h.Percentile(99));
    if (use.empty() || use[w]) {
      used.Merge(h);
    }
  }
  out.samples = all.Count();
  out.mean_us = all.Average();
  out.p50_us = used.Percentile(50);
  out.p99_us = used.Percentile(99);
  return out;
}

std::vector<bool> QuietWindows(const std::vector<double>& steal_frac, size_t windows) {
  // Half a percent: 2 ms of a 4-CPU guest's 100 ms window, under one tick
  // of the steal counter, so a quiet window is one with no visible steal.
  constexpr double kMaxSteal = 0.005;
  std::vector<bool> use(windows, true);
  if (steal_frac.size() < windows) {
    return use;  // no steal figure for every window: keep them all
  }
  // Worst steal in each window and its neighbours.
  std::vector<double> near(windows, 0);
  for (size_t w = 0; w < windows; w++) {
    for (size_t n = w == 0 ? 0 : w - 1; n <= w + 1 && n < windows; n++) {
      near[w] = std::max(near[w], steal_frac[n]);
    }
  }
  const size_t min_keep = std::max<size_t>(std::min<size_t>(3, windows), windows / 4);
  size_t quiet = 0;
  for (size_t w = 0; w < windows; w++) {
    use[w] = near[w] <= kMaxSteal;
    quiet += use[w];
  }
  if (quiet < min_keep) {
    // Interference all through the run: keep the least-disturbed windows.
    std::vector<size_t> order(windows);
    for (size_t w = 0; w < windows; w++) {
      order[w] = w;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t x, size_t y) { return near[x] < near[y]; });
    for (size_t i = 0; i < windows; i++) {
      use[order[i]] = i < min_keep;
    }
  }
  return use;
}

// --- Values ---

std::string KeyOf(uint64_t index) { return p2kvs::ycsb::RecordKey(index); }

bool ParseKey(const Slice& key, uint64_t* index) {
  if (key.size() != 16 || std::memcmp(key.data(), "user", 4) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 16; i++) {
    const char c = key[i];
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

namespace {

constexpr char kHex[] = "0123456789abcdef";

void PutHex(char* out, uint64_t v) {
  for (int i = 15; i >= 0; i--) {
    out[i] = kHex[v & 0xf];
    v >>= 4;
  }
}

bool GetHex(const char* in, uint64_t* v) {
  uint64_t r = 0;
  for (int i = 0; i < 16; i++) {
    const char c = in[i];
    uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    r = (r << 4) | d;
  }
  *v = r;
  return true;
}

void FillFiller(char* out, size_t n, uint64_t index, uint64_t version) {
  p2kvs::Random64 rng(index * 0x9e3779b97f4a7c15ull ^ (version + 0x632be59bd9b4e019ull));
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(out + i, &word, std::min<size_t>(8, n - i));
  }
}

}  // namespace

std::string EncodeValue(uint64_t index, uint64_t version) {
  std::string value(kValueSize, '\0');
  PutHex(&value[0], index);
  PutHex(&value[16], version);
  FillFiller(&value[32], kValueSize - 32, index, version);
  return value;
}

bool ValueMatches(const Slice& value, uint64_t index, uint64_t* version) {
  if (value.size() != kValueSize) {
    return false;
  }
  uint64_t got_index = 0;
  uint64_t got_version = 0;
  if (!GetHex(value.data(), &got_index) || got_index != index ||
      !GetHex(value.data() + 16, &got_version)) {
    return false;
  }
  char expect[kValueSize - 32];
  FillFiller(expect, sizeof(expect), index, got_version);
  if (std::memcmp(expect, value.data() + 32, sizeof(expect)) != 0) {
    return false;
  }
  if (version != nullptr) {
    *version = got_version;
  }
  return true;
}

// --- Metrics ---

void MetricTable::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); i++) {
    if (i > 0) {
      out += ", ";
    }
    out += JsonString(metrics_[i].name) + ": {\"value\": " + JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";  // not a valid metric value: the self-test reports it
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double HostStealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0;
}

}  // namespace perfbench
