// p2kvs-bench: runs one workload against the real P2KVS store, checks
// every output it reads, and prints its metrics. See perfbench/README.md.
//
//   p2kvs_perfbench --workload <write_async|read_sync|tcp_mixed> --seed <n>
//                   --seconds <s> --trace <0|1> [--tiny]
//                   [--out <dir>] [--git-sha <sha>] [--src-digest <digest>]
//
// --trace 0 sets the store up several times (setup_s is their median), then
// measures the end-to-end metrics with nothing installed in the store.
// --trace 1 measures an untraced phase, then a traced phase on a fresh store
// with the layer wrappers installed, and prints the per-layer metrics; the
// spans go to <out>/spans-<workload>.json. --tiny shrinks every dataset for
// the self-test.
//
// Output: "# ..." report lines, then one JSON line
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layer_trace.h"
#include "perfbench/src/workloads.h"
#include "src/io/async_io.h"
#include "src/util/clock.h"

namespace perfbench {
namespace {

using p2kvs::NowNanos;
using p2kvs::Status;

// Attributed layer times may exceed the client-observed mean by this share
// before the traced run reports the attribution as failed.
constexpr double kAttributionTolerance = 0.05;
// The engine decorator's time may differ from the worker's execute stage by
// this share. Execute also holds the worker's own work around the engine
// call (5-14% of it on read_sync and write_async), and a scan's iterator is
// destroyed after the execute stage ends (tcp_mixed's engine time is up to
// 12% above execute).
constexpr double kEngineCoverageTolerance = 0.2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--tiny") {
      a->tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      return false;
    }
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--out") {
      a->out_dir = v;
    } else if (flag == "--git-sha") {
      a->git_sha = v;
    } else if (flag == "--src-digest") {
      a->src_digest = v;
    } else {
      return false;
    }
  }
  return IsWorkload(a->workload) && a->seconds > 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t DatasetRecords(const std::string& workload, const Sizes& sizes) {
  if (workload == "write_async") return sizes.write_keys;
  if (workload == "read_sync") return sizes.read_records;
  return sizes.mixed_records;
}

// Set-ups per untraced run; setup_s is their median. An empty store opens in
// milliseconds, so write_async takes more samples of it.
int Setups(const std::string& workload, bool tiny) {
  if (tiny) return 1;
  return workload == "write_async" ? 9 : 3;
}

// Host, build and configuration of this result, so numbers from different
// hosts or defaults are never compared silently.
std::string Fingerprint(const Args& a, const Sizes& sizes) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  const p2kvs::P2kvsOptions d;  // the store's defaults, as compiled
  const p2kvs::Options lsm = BenchLsmOptions(nullptr);
  const p2kvs::DeviceProfile dev = BenchDevice();
  const uint64_t records = DatasetRecords(a.workload, sizes);
  const double record_bytes = 16 + kValueSize;
  const double cache_total = static_cast<double>(lsm.block_cache_bytes) * d.num_workers;
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"tiny\": %s, "
      "\"host\": {\"nproc_online\": %ld, \"affinity_cpus\": %d}, \"build_type\": %s, "
      "\"git_sha\": %s, \"src_digest\": %s, "
      "\"io_uring\": {\"compiled\": %s, \"live\": %s}, "
      "\"device\": {\"name\": %s, \"write_bw\": %llu, \"read_bw\": %llu, \"seq_us\": %u, "
      "\"rand_us\": %u, \"channels\": %u, \"base\": \"MemEnv\"}, "
      "\"p2kvs\": {\"num_workers\": %d, \"pin_workers\": %s, \"enable_obm\": %s, "
      "\"max_batch_size\": %d, \"queue_capacity\": %zu, \"scan_mode\": %s, "
      "\"enable_stats\": %s, \"trace\": %s, \"metrics_window_ms\": %d, "
      "\"default_deadline_ms\": %d, \"admission\": %s, \"engine\": \"RocksLite\"}, "
      "\"lsm\": {\"write_buffer_size\": %zu, \"target_file_size\": %llu, "
      "\"max_bytes_for_level_base\": %llu, \"block_cache_bytes\": %zu, \"block_size\": %zu, "
      "\"bloom_bits_per_key\": %d, \"l0_compaction_trigger\": %d, \"async_io\": %s, "
      "\"io_queue_depth\": %d, \"wal_sync\": false}, "
      "\"dataset\": {\"records\": %llu, \"record_bytes\": %.0f, \"bytes\": %.0f, "
      "\"block_cache_total_bytes\": %.0f, \"ratio_to_block_cache\": %.3f}, "
      "\"load\": {\"write_submitters\": %d, \"write_window\": %d, \"read_threads\": %d, "
      "\"mixed_connections\": %d, \"mixed_rate_ops_s\": %.0f}}",
      JsonString(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      JsonNumber(a.seconds).c_str(), a.trace ? 1 : 0, a.tiny ? "true" : "false",
      sysconf(_SC_NPROCESSORS_ONLN), affinity, JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(a.git_sha).c_str(), JsonString(a.src_digest).c_str(),
      PERFBENCH_IO_URING_COMPILED ? "true" : "false",
      p2kvs::IoUringAvailable() ? "true" : "false", JsonString(dev.name).c_str(),
      static_cast<unsigned long long>(dev.write_bw_bytes_per_sec),
      static_cast<unsigned long long>(dev.read_bw_bytes_per_sec), dev.seq_latency_us,
      dev.rand_latency_us, dev.channels, d.num_workers, d.pin_workers ? "true" : "false",
      d.enable_obm ? "true" : "false", d.max_batch_size, d.queue_capacity,
      d.scan_mode == p2kvs::P2kvsOptions::ScanMode::kParallel ? "\"parallel\"" : "\"merge\"",
      d.enable_stats ? "true" : "false", d.trace.enabled ? "true" : "false",
      d.metrics_window_ms, d.default_deadline_ms, d.admission.enabled ? "true" : "false",
      lsm.write_buffer_size, static_cast<unsigned long long>(lsm.target_file_size),
      static_cast<unsigned long long>(lsm.max_bytes_for_level_base), lsm.block_cache_bytes,
      lsm.block_size, lsm.bloom_bits_per_key, lsm.l0_compaction_trigger,
      lsm.async_io ? "true" : "false", lsm.io_queue_depth,
      static_cast<unsigned long long>(records), record_bytes,
      record_bytes * static_cast<double>(records), cache_total,
      record_bytes * static_cast<double>(records) / cache_total, sizes.write_submitters,
      sizes.write_window, sizes.read_threads, sizes.mixed_connections, sizes.mixed_rate);
  return buf;
}

// Opens a store and sets it up; returns the seconds that took, or a negative
// value (after printing why) when it failed.
double OpenAndSetUp(const Args& a, const Sizes& sizes, bool traced, Rig* rig, Checker* checker) {
  const uint64_t t0 = NowNanos();
  Status s = rig->Open(traced);
  if (s.ok()) {
    s = SetUp(a.workload, sizes, rig, checker);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return -1;
  }
  return static_cast<double>(NowNanos() - t0) / 1e9;
}

void Report(const char* fmt, double value, const char* unit, uint64_t samples) {
  std::printf("# %-36s %14.3f %-8s (%llu samples)\n", fmt, value, unit,
              static_cast<unsigned long long>(samples));
}

// Human-readable per-op split (over the same windows as the metrics) and
// write amplification of one phase.
void ReportPhase(const std::string& label, const PhaseResult& r) {
  std::printf("# --- %s phase: %.1f s timed, %.2f s drain ---\n", label.c_str(), r.seconds,
              r.drain_seconds);
  const std::vector<bool> use = QuietWindows(r.window_steal_frac, r.latency->windows());
  for (int k = 0; k < kNumOpKinds; k++) {
    const LatencySink::Summary s = r.latency->Summarize(k, use);
    if (s.samples == 0) {
      continue;
    }
    const std::string name = OpKindName(k);
    Report((name + "_p50_us").c_str(), s.p50_us, "us", s.samples);
    Report((name + "_p99_us").c_str(), s.p99_us, "us", s.samples);
  }
  std::string windows;
  for (double v : r.latency->Summarize(-1).window_p99_us) {
    windows += " " + std::to_string(static_cast<int>(v));
  }
  std::printf("# p99_us by window:%s (all windows pooled %.1f)\n", windows.c_str(),
              r.latency->Summarize(-1).p99_us);
  windows.clear();
  for (uint64_t n : r.latency->Summarize(-1).window_completions) {
    windows += " " + std::to_string(n);
  }
  std::printf("# completed calls by window:%s\n", windows.c_str());
  windows.clear();
  for (double s : r.window_steal_frac) {
    windows += " " + std::to_string(static_cast<int>(s * 100 + 0.5));
  }
  std::printf("# host steal %% by window:%s (metrics over %zu of %zu windows)\n",
              windows.c_str(), static_cast<size_t>(std::count(use.begin(), use.end(), true)),
              use.size());
  if (r.gen_lag_p99_us > 0) {
    Report("gen_lag_p99_us", r.gen_lag_p99_us, "us", r.attempted);
  }
  if (r.user_bytes > 0) {
    Report("write_amp", Ratio(r.io_total.TotalWritten(), r.user_bytes), "ratio", r.ok);
    std::printf("# write_amp by half: %.3f %.3f\n",
                Ratio(r.io_first_half.TotalWritten(), r.user_bytes_first_half),
                Ratio(r.io_timed.Since(r.io_first_half).TotalWritten(),
                      r.user_bytes - r.user_bytes_first_half));
  }
  Report("failed_frac", Ratio(r.failed, r.attempted), "ratio", r.attempted);
}

void EndToEndMetrics(const std::string& workload, const PhaseResult& r,
                     const std::vector<double>& setup_seconds, MetricTable* m) {
  // Over the quiet windows: latency percentiles pool their samples, so the
  // store's own stalls stay in the tail; rates are medians of per-window
  // values. The open loop completes its fixed rate in every window, so its
  // throughput is the goodput over the whole phase, completion tail included.
  const bool open_loop = workload == "tcp_mixed";
  const std::vector<bool> use = QuietWindows(r.window_steal_frac, r.latency->windows());
  const LatencySink::Summary all = r.latency->Summarize(-1, use);
  std::vector<double> rate, cpu;
  for (size_t w = 0; w < all.window_completions.size(); w++) {
    if (!use[w]) {
      continue;
    }
    const double done = static_cast<double>(all.window_completions[w]);
    rate.push_back(done * 1e9 / LatencySink::kWindowNanos);
    if (w < r.window_cpu_seconds.size() && done > 0) {
      cpu.push_back(r.window_cpu_seconds[w] * 1e6 / done);
    }
  }
  m->Add("throughput_ops_s", open_loop ? Ratio(r.ok, r.seconds) : Median(rate), "1/s");
  m->Add("p50_us", all.p50_us, "us");
  m->Add("p99_us", all.p99_us, "us");
  m->Add("cpu_us_per_op", cpu.empty() ? Ratio(r.cpu_seconds * 1e6, r.ok) : Median(cpu), "us");
  m->Add("engine_mem_mb", r.mem_mb_median, "MiB");
  m->Add("setup_s", Median(setup_seconds), "s");
}

void PerLayerMetrics(const std::string& workload, const PhaseResult& untraced,
                     const PhaseResult& r, const LayerTracer& tracer, MetricTable* m,
                     bool* attribution_ok) {
  const LayerCounters& c = r.layers;
  const auto& spans = r.spans;
  const auto span = [&](SpanName name) -> const SpanStats& {
    return spans[static_cast<size_t>(name)];
  };
  const bool tcp = workload == "tcp_mixed";
  const double ops = static_cast<double>(r.ok);
  const double puts = static_cast<double>(r.ops_by_kind[kPut]);
  const double user = static_cast<double>(r.user_bytes);
  const p2kvs::WorkerStatsSnapshot& a = r.stats_after.totals;
  const p2kvs::WorkerStatsSnapshot& b = r.stats_before.totals;
  const double dispatches = static_cast<double>(
      (a.write_batches + a.read_batches + a.singles) - (b.write_batches + b.read_batches + b.singles));
  const auto per_dispatch_us = [&](uint64_t after, uint64_t before) {
    return Ratio(static_cast<double>(after - before), dispatches) / 1000.0;
  };

  // Engine calls, from the engine decorator's spans.
  const SpanStats& writes = span(SpanName::kLsmWrite);
  const SpanStats& iters = span(SpanName::kLsmIter);
  const uint64_t read_calls = span(SpanName::kLsmGet).count + span(SpanName::kLsmMultiGet).count;
  const uint64_t read_ns = span(SpanName::kLsmGet).total_ns + span(SpanName::kLsmMultiGet).total_ns;
  const SpanStats& collect = span(SpanName::kCoreCollect);

  // bench
  m->Add("bench.gen_lag_p99_us", r.gen_lag_p99_us, "us");
  m->Add("bench.inflight_mean", r.inflight_mean, "count");

  // Attribution. Three parts, each measured on its own:
  //   engine   engine time per store request, from the engine decorator
  //            (an iterator is one request);
  //   handoff  queue wait + batch collect + completion per dispatch, from
  //            the worker's stage totals and the batch-policy decorator;
  //   wire     tcp_mixed only: client mean from the actual send minus the
  //            store-side submit -> dispatch complete time per dispatch.
  // Two checks, both able to fail:
  //   coverage  the engine decorator's time per dispatch against the
  //             worker's own execute stage, in both directions: a decorator
  //             that misses engine work, or counts work outside it, fails;
  //   sum       wire + handoff + engine must not exceed the client mean.
  // The in-process client mean also holds time outside the store's submit
  // stamp (the submit call itself, a descheduled client thread, a sync
  // caller's wake-up), which no public extension point can time; it is
  // reported as trace.outside_store_us, not attributed.
  const double engine_us =
      Ratio(static_cast<double>(c.write_request_ns + c.read_request_ns + iters.total_ns),
            static_cast<double>(c.write_requests + c.read_requests + iters.count)) / 1000.0;
  const double engine_per_dispatch_us =
      Ratio(static_cast<double>(writes.total_ns + read_ns + iters.total_ns), dispatches) / 1000.0;
  const double client_us = tcp ? r.send_mean_us : r.latency->Summarize(-1).mean_us;
  const double store_us = per_dispatch_us(a.end_to_end_nanos, b.end_to_end_nanos);
  const double queue_wait_us = per_dispatch_us(a.queue_wait_nanos, b.queue_wait_nanos);
  const double complete_us = per_dispatch_us(a.complete_nanos, b.complete_nanos);
  const double handoff_us =
      queue_wait_us + complete_us + Ratio(static_cast<double>(collect.total_ns), dispatches) / 1000.0;
  const double wire_us = tcp ? client_us - store_us : 0;
  const double attributed = wire_us + handoff_us + engine_us;
  const double coverage =
      Ratio(engine_per_dispatch_us, per_dispatch_us(a.execute_nanos, b.execute_nanos));
  *attribution_ok = std::abs(coverage - 1) <= kEngineCoverageTolerance &&
                    attributed <= client_us * (1 + kAttributionTolerance);

  // server
  m->Add("server.wire_us", wire_us, "us");
  m->Add("server.bytes_in_per_op", Ratio(r.server.bytes_received, ops), "B/op");
  m->Add("server.bytes_out_per_op", Ratio(r.server.bytes_sent, ops), "B/op");
  m->Add("server.eintr_per_kop", Ratio(r.server.eintr_wakeups * 1000.0, ops), "count/kop");
  m->Add("server.pipeline_rejects", static_cast<double>(r.server.pipeline_rejections), "count");
  m->Add("server.protocol_errors", static_cast<double>(r.server.protocol_errors), "count");

  // core
  std::vector<double> load;
  for (size_t w = 0; w < r.stats_after.workers.size() && w < r.stats_before.workers.size(); w++) {
    load.push_back(static_cast<double>(r.stats_after.workers[w].requests_executed() -
                                       r.stats_before.workers[w].requests_executed()));
  }
  double load_sum = 0, load_max = 0;
  for (double l : load) {
    load_sum += l;
    load_max = std::max(load_max, l);
  }
  m->Add("core.handoff_us", handoff_us, "us");
  m->Add("core.engine_us_per_req", engine_us, "us");
  m->Add("core.queue_wait_us", queue_wait_us, "us");
  m->Add("core.complete_us", complete_us, "us");
  m->Add("core.batch_collect_us", Ratio(collect.total_ns, collect.count) / 1000.0, "us");
  m->Add("core.write_batch_mean", Ratio(c.write_requests, writes.count), "req/call");
  m->Add("core.read_batch_mean", Ratio(c.read_keys, read_calls), "key/call");
  m->Add("core.partition_load_max_mean",
         Ratio(load_max, load.empty() ? 0 : load_sum / static_cast<double>(load.size())), "ratio");
  m->Add("core.scan_keys_read_per_returned", Ratio(c.iter_steps, r.scan_keys_returned), "ratio");

  // lsm / wal / sst
  const uint64_t partitions = r.stats_after.workers.size();
  m->Add("lsm.write_us_per_req", Ratio(writes.total_ns, c.write_requests) / 1000.0, "us");
  m->Add("lsm.get_us_per_key", Ratio(read_ns, c.read_keys) / 1000.0, "us");
  m->Add("lsm.iter_us_per_key", Ratio(iters.total_ns, c.iter_steps) / 1000.0, "us");
  m->Add("lsm.stall_ms_per_s", Ratio(r.events.stall_micros / 1000.0, r.seconds), "ms/s");
  m->Add("lsm.flushes", static_cast<double>(r.events.flushes), "count");
  m->Add("lsm.compactions", static_cast<double>(r.events.compactions), "count");
  m->Add("lsm.compactions_per_partition", Ratio(r.events.compactions, partitions), "count");
  m->Add("lsm.compaction_bytes_per_user_byte", Ratio(r.events.compaction_bytes_written, user),
         "ratio");
  m->Add("wal.appends_per_put", Ratio(span(SpanName::kIoAppendWal).count, puts), "count/op");
  m->Add("wal.bytes_per_put", Ratio(c.wal_bytes, puts), "B/op");
  m->Add("sst.block_reads_per_get", Ratio(c.fg_sst_reads_point, c.read_keys), "count/key");

  // io
  using p2kvs::IoPurpose;
  const auto written = [&](IoPurpose p) {
    return static_cast<double>(r.io_total.bytes_written[static_cast<size_t>(p)]);
  };
  const p2kvs::IoStatsSnapshot second_half = r.io_timed.Since(r.io_first_half);
  uint64_t appends = 0, append_ns = 0;
  for (SpanName name : {SpanName::kIoAppendWal, SpanName::kIoAppendSst, SpanName::kIoAppendOther}) {
    appends += span(name).count;
    append_ns += span(name).total_ns;
  }
  m->Add("io.read_us", Ratio(c.fg_read_ns, c.fg_reads) / 1000.0, "us");
  m->Add("io.append_us", Ratio(append_ns, appends) / 1000.0, "us");
  m->Add("io.syncs_per_kop", Ratio(span(SpanName::kIoSync).count * 1000.0, ops), "count/kop");
  m->Add("io.bytes_written_per_user_byte.wal", Ratio(c.wal_bytes, user), "ratio");
  m->Add("io.bytes_written_per_user_byte.flush", Ratio(written(IoPurpose::kFlush), user), "ratio");
  m->Add("io.bytes_written_per_user_byte.compaction", Ratio(written(IoPurpose::kCompaction), user),
         "ratio");
  m->Add("io.write_amp", Ratio(r.io_total.TotalWritten(), user), "ratio");
  m->Add("io.write_amp_first_half",
         Ratio(r.io_first_half.TotalWritten(), r.user_bytes_first_half), "ratio");
  m->Add("io.write_amp_second_half",
         Ratio(second_half.TotalWritten(), r.user_bytes - r.user_bytes_first_half), "ratio");
  m->Add("io.max_queue_depth", static_cast<double>(r.io_total.max_queue_depth), "count");
  m->Add("io.bg_busy_s", c.bg_io_ns / 1e9, "s");

  // Self time per span name: duration minus same-thread child spans.
  for (size_t i = 0; i < kNumSpanNames; i++) {
    m->Add(std::string("self.") + SpanNameString(static_cast<SpanName>(i)) + "_us",
           Ratio(spans[i].self_ns, spans[i].count) / 1000.0, "us");
  }

  // tracing itself
  const double traced_tput = Ratio(r.ok, r.seconds);
  const double untraced_tput = Ratio(untraced.ok, untraced.seconds);
  m->Add("trace.throughput_ops_s", traced_tput, "1/s");
  m->Add("trace.untraced_throughput_ops_s", untraced_tput, "1/s");
  m->Add("trace.overhead_frac", untraced_tput > 0 ? 1 - traced_tput / untraced_tput : 0, "ratio");
  m->Add("trace.client_mean_us", client_us, "us");
  m->Add("trace.attributed_us", attributed, "us");
  m->Add("trace.outside_store_us", tcp ? 0 : client_us - store_us, "us");
  m->Add("trace.engine_coverage", coverage, "ratio");
  m->Add("trace.attribution_ok", *attribution_ok ? 1 : 0, "bool");
  m->Add("trace.spans_kept", static_cast<double>(tracer.SpansKept()), "count");
  m->Add("trace.spans_dropped", static_cast<double>(tracer.SpansDropped()), "count");
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: p2kvs_perfbench --workload <write_async|read_sync|tcp_mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
                 "[--out <dir>] [--git-sha <sha>] [--src-digest <d>]\n");
    return 2;
  }
  const Sizes sizes = a.tiny ? Sizes::Tiny() : Sizes::Full();
  std::printf("# fingerprint %s\n", Fingerprint(a, sizes).c_str());
  std::fflush(stdout);

  Checker checker;
  MetricTable metrics;
  PhaseResult result;
  if (!a.trace) {
    std::vector<double> setup_seconds;
    const int setups = Setups(a.workload, a.tiny);
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < setups; i++) {
      rig.reset();  // one store at a time
      rig = std::make_unique<Rig>();
      const double seconds = OpenAndSetUp(a, sizes, false, rig.get(), &checker);
      if (seconds < 0) {
        return 1;
      }
      setup_seconds.push_back(seconds);
      std::printf("# setup %d: %.3f s\n", i + 1, seconds);
    }
    result = RunPhase(a.workload, sizes, a.seed, a.seconds, rig.get(), &checker);
    rig->Close();
    ReportPhase("untraced", result);
    EndToEndMetrics(a.workload, result, setup_seconds, &metrics);
  } else {
    PhaseResult untraced;
    {
      Rig rig;
      if (OpenAndSetUp(a, sizes, false, &rig, &checker) < 0) {
        return 1;
      }
      untraced = RunPhase(a.workload, sizes, a.seed, a.seconds, &rig, &checker);
    }
    ReportPhase("untraced", untraced);
    Rig rig;
    if (OpenAndSetUp(a, sizes, true, &rig, &checker) < 0) {
      return 1;
    }
    result = RunPhase(a.workload, sizes, a.seed, a.seconds, &rig, &checker);
    rig.Close();  // joins every store thread: the tracer is now quiescent
    ReportPhase("traced", result);
    bool attribution_ok = false;
    PerLayerMetrics(a.workload, untraced, result, *rig.tracer(), &metrics, &attribution_ok);
    if (!attribution_ok) {
      std::printf("# ATTRIBUTION CHECK FAILED: engine time is not within %.0f%% of the execute "
                  "stage, or wire + handoff + engine exceed the client mean by more than %.0f%%\n",
                  kEngineCoverageTolerance * 100, kAttributionTolerance * 100);
    }
    const std::string spans_path = a.out_dir + "/spans-" + a.workload + ".json";
    if (rig.tracer()->WriteSpans(spans_path)) {
      std::printf("# spans written to %s\n", spans_path.c_str());
    } else {
      checker.Fail("could not write the span file " + spans_path);
    }
  }

  for (const Metric& m : metrics.metrics()) {
    std::printf("# metric %-44s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : checker.FirstErrors()) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("# peak_rss_mb %.1f\n", static_cast<double>(usage.ru_maxrss) / 1024);
  std::printf("# correctness checks: %llu run, %llu failed\n",
              static_cast<unsigned long long>(checker.checks()),
              static_cast<unsigned long long>(checker.failures()));
  const bool correct = checker.failures() == 0 && checker.checks() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"checks\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(checker.checks()), metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
