// Simulator benchmark program: runs one workload's fixed set of
// simulations through the library's public API and reports what they
// cost in host time.
//
//   simbench --workload fig09_base --seed 1 --seconds 20 --mode e2e
//   simbench --workload fig09_base --seed 1 --mode trace
//
// Every simulation prints one "RUN {json}" line: its label, the variant
// it ran as, host timings, and its behavioural SimMetrics (every field
// but events_simulated, numbers printed exactly). The last line is
// "RESULT {json}" with the metric values. simbench/run.py builds this
// binary, checks the RUN lines against the committed reference, and
// prints the benchmark's result; simbench/README.md documents every
// metric and workload.
//
// Modes:
//   e2e    untraced passes over the workload's runs, repeated while
//          another pass fits in --seconds of host time (at least one);
//          reports each run's median over its repeats.
//   trace  each run once untraced, timed layer by layer (library
//          build, set-up, warmup, measurement, collection), once with
//          the event tracer on, and once as the workload's variant
//          (telemetry off on shared_edge, one shard on
//          scale256_shards4).
//   shard-sweep  the first run at several shard counts and wire delays
//          (the measurement recorded in README.md).
// --quick shortens every run's simulated windows (self-test only).

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mpeg/video.h"
#include "mpeg/zipf.h"
#include "obs/kernel_profile.h"
#include "obs/tracer.h"
#include "vod/config.h"
#include "vod/metrics.h"
#include "vod/simulation.h"
#include "vod/telemetry.h"

namespace {

using namespace spiffi;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads -------------------------------------------------------

struct RunSpec {
  std::string label;
  vod::SimConfig config;
  bool telemetry = false;  // sample a TelemetryRecorder every 1 s
};

// The paper's base system (§7) with the fast-preset windows the
// reproduction harnesses use.
vod::SimConfig BaseSystem(std::uint64_t seed) {
  vod::SimConfig config;
  config.start_window_sec = 60.0;
  config.warmup_seconds = 100.0;
  config.measure_seconds = 120.0;
  config.seed = seed;
  return config;
}

std::vector<RunSpec> Fig09Base(std::uint64_t seed) {
  std::vector<RunSpec> runs;
  for (int terminals : {200, 220, 230, 240, 250, 260, 280, 300}) {
    vod::SimConfig config = BaseSystem(seed);
    config.terminals = terminals;
    runs.push_back({"t=" + std::to_string(terminals), config});
  }
  return runs;
}

// Table 2's real-time row at 64 disks, at its capacity and just past it.
std::vector<RunSpec> Table2Rt64(std::uint64_t seed) {
  std::vector<RunSpec> runs;
  for (int terminals : {825, 850}) {
    vod::SimConfig config = BaseSystem(seed);
    config.disks_per_node = 16;
    config.server_memory_bytes = 2048 * hw::kMiB;
    config.replacement = server::ReplacementPolicy::kLovePrefetch;
    config.disk_sched = server::DiskSchedPolicy::kRealTime;
    config.realtime_classes = 3;
    config.realtime_spacing_sec = 4.0;
    config.prefetch = server::PrefetchPolicy::kDelayed;
    config.max_advance_prefetch_sec = 8.0;
    config.prefetch_workers = 64;
    config.terminals = terminals;
    runs.push_back({"t=" + std::to_string(terminals), config});
  }
  return runs;
}

// The same 16 disks behind the service tier: sharing, proxies, VCR.
std::vector<RunSpec> SharedEdge(std::uint64_t seed) {
  std::vector<RunSpec> runs;
  for (int terminals : {300, 375, 450}) {
    vod::SimConfig config = BaseSystem(seed);
    config.replacement = server::ReplacementPolicy::kLovePrefetch;
    config.server_memory_bytes = 512 * hw::kMiB;
    config.video_seconds = 600.0;
    config.zipf_z = 0.271;
    config.piggyback_window_sec = 60.0;
    config.patch_window_sec = 45.0;
    config.prefix_cache_fraction = 0.25;
    config.proxy_nodes = 4;
    config.proxy_cache_pages = 2048;
    config.proxy_policy = proxy::ProxyPolicy::kRankZipf;
    config.pause_enabled = true;
    config.search_enabled = true;
    config.random_initial_position = false;
    // Staggered starts give the position spread; the warmup covers the
    // spread plus a batching window.
    config.start_window_sec = 900.0;
    config.warmup_seconds = 900.0 + 60.0 + 60.0;
    config.terminals = terminals;
    runs.push_back({"t=" + std::to_string(terminals), config, true});
  }
  return runs;
}

// The 256-disk class at 4 shards and the default 5 us network. Shard
// synchronisation costs grow with simulated seconds / lookahead, so the
// windows are short.
std::vector<RunSpec> Scale256Shards4(std::uint64_t seed) {
  vod::SimConfig config = BaseSystem(seed);
  config.num_nodes = 32;
  config.disks_per_node = 8;
  config.server_memory_bytes = 32LL * 128 * hw::kMiB;
  config.terminals = 800;
  config.shards = 4;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 10.0;
  config.measure_seconds = 10.0;
  return {{"t=800", config}};
}

bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  std::vector<RunSpec>* runs) {
  if (name == "fig09_base") {
    *runs = Fig09Base(seed);
  } else if (name == "table2_rt64") {
    *runs = Table2Rt64(seed);
  } else if (name == "shared_edge") {
    *runs = SharedEdge(seed);
  } else if (name == "scale256_shards4") {
    *runs = Scale256Shards4(seed);
  } else {
    return false;
  }
  return true;
}

double TerminalSeconds(const vod::SimConfig& config) {
  return config.terminals * (config.warmup_seconds + config.measure_seconds);
}

// Self-test mode: the same systems over a few simulated seconds.
void Shorten(vod::SimConfig* config) {
  config->start_window_sec = std::min(config->start_window_sec, 5.0);
  config->warmup_seconds = config->start_window_sec + 3.0;
  config->measure_seconds = 4.0;
}

// --- Behavioural metrics ---------------------------------------------

// Every SimMetrics field that describes simulated behaviour. The event
// count is left out: an optimisation that fires fewer events (playback
// elision) keeps the behaviour and changes the count.
#define SIMBENCH_BEHAVIOUR_FIELDS(X)                                      \
  X(terminals) X(measured_seconds) X(glitches) X(terminals_with_glitches) \
  X(avg_disk_utilization) X(min_disk_utilization)                         \
  X(max_disk_utilization) X(avg_cpu_utilization)                          \
  X(peak_network_bytes_per_sec) X(avg_network_bytes_per_sec)              \
  X(buffer_references) X(buffer_hits) X(buffer_attaches) X(buffer_misses) \
  X(shared_references) X(wasted_prefetches) X(prefetches_issued)          \
  X(disk_reads) X(avg_disk_service_ms) X(avg_seek_cylinders)              \
  X(avg_response_ms) X(p50_response_ms) X(p99_response_ms)                \
  X(frames_displayed) X(videos_completed) X(share_groups)                 \
  X(share_followers) X(share_patches) X(share_patch_seconds)              \
  X(share_handoffs) X(prefix_hits) X(prefix_pinned_pages)                 \
  X(proxy_references) X(proxy_hits) X(proxy_attaches) X(proxy_forwards)   \
  X(proxy_bytes_from_cache) X(avg_proxy_forward_ms) X(faults_injected)    \
  X(repairs_completed) X(mttr_sec) X(fault_downtime_sec)                  \
  X(rerouted_requests) X(degraded_waits) X(prefetches_skipped_dead)       \
  X(requests_redirected) X(blocks_rerouted) X(admission_admits)           \
  X(admission_rejects) X(admission_defers) X(failover_readmissions)       \
  X(request_retries) X(retries_exhausted) X(session_failovers)            \
  X(duplicate_replies) X(proxy_forward_retries) X(proxy_stale_replies)    \
  X(rebuilds_completed) X(rebuild_sec) X(rebuild_bytes)

void AppendJsonNumber(std::string* out, double value) {
  char buffer[40];
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  } else {
    // JSON has no NaN or infinity; a string still compares exactly.
    std::snprintf(buffer, sizeof(buffer), "\"%g\"", value);
  }
  *out += buffer;
}

template <typename T>
void AppendField(std::string* out, const char* name, T value) {
  if (out->size() > 1) *out += ',';
  *out += '"';
  *out += name;
  *out += "\":";
  if constexpr (std::is_integral_v<T>) {
    *out += std::to_string(value);
  } else {
    AppendJsonNumber(out, value);
  }
}

std::string BehaviourJson(const vod::SimMetrics& m) {
  std::string out = "{";
#define SIMBENCH_APPEND(field) AppendField(&out, #field, m.field);
  SIMBENCH_BEHAVIOUR_FIELDS(SIMBENCH_APPEND)
#undef SIMBENCH_APPEND
  out += '}';
  return out;
}

// --- One simulation ---------------------------------------------------

struct Variant {
  const char* name = "untraced";
  bool traced = false;
  bool telemetry = false;
  int shards = 0;  // 0 keeps the workload's shard count
};

struct RunResult {
  vod::SimMetrics metrics;
  double terminal_seconds = 0.0;
  double setup_s = 0.0;    // Simulation constructor
  double warmup_s = 0.0;
  double measure_s = 0.0;  // includes Run()'s own closing Collect()
  double collect_s = 0.0;  // one more Collect() after Run()
  double wall_s = 0.0;     // construction to destruction
  std::uint64_t events = 0;
  std::uint64_t measure_events = 0;
  obs::KernelProfile kernel;  // merged over shards
  std::vector<std::uint64_t> shard_events;
  double sim_seconds = 0.0;
  double lookahead_s = 0.0;
  double requests_sent = 0.0;
  double queue_wait_ms = 0.0;
  double evictions = 0.0;
  double allocation_stalls = 0.0;
  std::array<std::uint64_t, obs::kNumTraceCategories> trace_records{};
  std::uint64_t trace_dropped = 0;

  double run_s() const { return warmup_s + measure_s; }
};

// Filled by the run observer at the end of every Simulation::Run().
obs::KernelProfile g_last_kernel;

// The tracer records the measurement window only. Its ring holds 40
// entries per measured terminal-second, over twice the densest rate
// seen on these workloads; the ring grows as it fills, so the headroom
// costs no memory, and run.py fails the traced pass if any entry is
// dropped.
std::size_t TraceCapacity(const vod::SimConfig& config) {
  return static_cast<std::size_t>(config.terminals * config.measure_seconds *
                                  40.0) +
         4096;
}

RunResult Execute(const RunSpec& spec, const Variant& variant) {
  RunResult r;
  vod::SimConfig config = spec.config;
  if (variant.shards > 0) config.shards = variant.shards;
  r.sim_seconds = config.warmup_seconds + config.measure_seconds;
  r.terminal_seconds = TerminalSeconds(config);
  r.lookahead_s = config.network.wire_delay_base_sec;

  auto start = Clock::now();
  auto sim = std::make_unique<vod::Simulation>(config);
  r.setup_s = Since(start);
  std::unique_ptr<vod::TelemetryRecorder> telemetry;
  if (variant.telemetry) {
    vod::TelemetryOptions options;
    options.interval_sec = 1.0;
    telemetry = std::make_unique<vod::TelemetryRecorder>(sim.get(), options);
  }
  std::vector<obs::Tracer*> tracers;
  if (variant.traced) {
    std::size_t capacity = TraceCapacity(config);
    tracers.push_back(&sim->EnableTracing(capacity));
    for (int s = 1; s < sim->num_shards(); ++s) {
      tracers.push_back(&sim->shard_env(s).EnableTracing(capacity));
    }
    for (obs::Tracer* tracer : tracers) tracer->set_enabled(false);
  }

  std::uint64_t warmup_events = 0;
  vod::ProgressFn progress = [&](const vod::RunProgress& p) {
    if (p.in_measurement) return;
    r.warmup_s = p.wall_seconds;
    warmup_events = p.events_fired;
    if (p.sim_now_seconds >= config.warmup_seconds) {
      for (obs::Tracer* tracer : tracers) tracer->set_enabled(true);
    }
  };
  const std::atomic<bool> never_cancelled{false};
  auto run_start = Clock::now();
  bool completed = sim->Run(never_cancelled, &r.metrics, progress);
  double run_s = Since(run_start);
  if (!completed) {
    std::fprintf(stderr, "simbench: %s did not complete\n",
                 spec.label.c_str());
    std::exit(1);
  }
  r.measure_s = run_s - r.warmup_s;
  r.kernel = g_last_kernel;

  auto collect_start = Clock::now();
  vod::SimMetrics again = sim->Collect();
  r.collect_s = Since(collect_start);
  if (BehaviourJson(again) != BehaviourJson(r.metrics)) {
    std::fprintf(stderr, "simbench: %s: Collect() is not repeatable\n",
                 spec.label.c_str());
    std::exit(1);
  }

  r.events = sim->total_events_fired();
  r.measure_events = r.events - warmup_events;
  for (int s = 0; s < sim->num_shards(); ++s) {
    r.shard_events.push_back(sim->shard_env(s).events_fired());
  }
  const obs::MetricsRegistry& registry = sim->metrics();
  r.requests_sent = registry.Value("terminal.requests_sent");
  r.queue_wait_ms = registry.Value("disk.queue_wait_ms.avg");
  r.evictions = registry.Value("pool.evictions");
  r.allocation_stalls = registry.Value("pool.allocation_stalls");
  for (const obs::Tracer* tracer : tracers) {
    r.trace_dropped += tracer->dropped();
    for (std::size_t i = 0; i < tracer->size(); ++i) {
      ++r.trace_records[static_cast<int>(tracer->event(i).category)];
    }
  }

  telemetry.reset();
  sim.reset();
  r.wall_s = Since(start);
  return r;
}

void PrintRun(const RunSpec& spec, const Variant& variant, int pass,
              const RunResult& r) {
  std::string line = "{";
  line += "\"label\":\"" + spec.label + "\",\"variant\":\"" + variant.name +
          "\"";
  AppendField(&line, "pass", pass);
  AppendField(&line, "terminal_seconds", r.terminal_seconds);
  AppendField(&line, "setup_s", r.setup_s);
  AppendField(&line, "wall_s", r.wall_s);
  AppendField(&line, "events", r.events);
  AppendField(&line, "trace_dropped", r.trace_dropped);
  line += ",\"metrics\":" + BehaviourJson(r.metrics) + "}";
  std::printf("RUN %s\n", line.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Appends "name": value to the RESULT object.
struct Result {
  std::string json = "{";
  void Add(const char* name, double value) { AppendField(&json, name, value); }
};

// Set-up split for the traced pass: the median of three standalone
// VideoLibrary builds and of three Simulation constructors, interleaved,
// for one run's configuration. Medians keep the difference of the two
// (the rest of set-up) above the host's timing noise.
struct SetupSplit {
  double library_s = 0.0;
  double setup_s = 0.0;
};

SetupSplit TimeSetup(const vod::SimConfig& config) {
  std::vector<double> library, setup;
  for (int i = 0; i < 3; ++i) {
    mpeg::ZipfDistribution popularity(config.num_videos(), config.zipf_z);
    auto start = Clock::now();
    auto built = std::make_unique<mpeg::VideoLibrary>(
        config.num_videos(), config.video_seconds, config.mpeg, popularity,
        config.seed);
    library.push_back(Since(start));
    built.reset();
    start = Clock::now();
    auto sim = std::make_unique<vod::Simulation>(config);
    setup.push_back(Since(start));
  }
  return {Median(library), Median(setup)};
}

// --- Modes -----------------------------------------------------------

// Each run's wall and set-up times are the medians over its repeats,
// summed over the workload's runs: a slow spell of the host has to
// cover most repeats of a run to move the result.
void RunEndToEnd(const std::vector<RunSpec>& runs, double seconds) {
  std::vector<std::vector<double>> walls(runs.size());
  std::vector<std::vector<double>> setups(runs.size());
  auto start = Clock::now();
  Variant untraced;
  int passes = 0;
  // Another pass starts only if it should end within --seconds.
  while (passes == 0 || Since(start) * (passes + 1) / passes <= seconds) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      untraced.telemetry = runs[i].telemetry;
      RunResult r = Execute(runs[i], untraced);
      PrintRun(runs[i], untraced, passes, r);
      walls[i].push_back(r.wall_s);
      setups[i].push_back(r.setup_s);
    }
    ++passes;
  }
  double terminal_seconds = 0.0, wall = 0.0, setup = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    terminal_seconds += TerminalSeconds(runs[i].config);
    wall += Median(walls[i]);
    setup += Median(setups[i]);
  }
  Result result;
  result.Add("terminal_s_per_s", terminal_seconds / wall);
  result.Add("setup_s", setup);
  result.Add("peak_rss_mb", PeakRssMb());
  result.Add("passes", passes);
  std::printf("RESULT %s}\n", result.json.c_str());
}

void RunTraced(const std::string& workload, const std::vector<RunSpec>& runs) {
  // Each run executes untraced (timed layer by layer), traced, and as the
  // workload's variant, back to back, so that a slow spell of the host
  // falls on all three alike.
  const bool shared = workload == "shared_edge";
  const bool sharded = runs.front().config.shards > 1;
  std::vector<RunResult> plain, traced, extra;
  double library = 0, setup_other = 0;
  for (const RunSpec& spec : runs) {
    SetupSplit split = TimeSetup(spec.config);
    library += split.library_s;
    setup_other += split.setup_s - split.library_s;

    Variant v;
    v.telemetry = spec.telemetry;
    plain.push_back(Execute(spec, v));
    PrintRun(spec, v, 0, plain.back());

    Variant t;
    t.name = "traced";
    t.traced = true;
    t.telemetry = spec.telemetry;
    traced.push_back(Execute(spec, t));
    PrintRun(spec, t, 0, traced.back());

    Variant x;
    if (shared) {
      x.name = "telemetry_off";
    } else if (sharded) {
      x.name = "shards1";
      x.shards = 1;
    } else {
      continue;
    }
    extra.push_back(Execute(spec, x));
    PrintRun(spec, x, 0, extra.back());
  }

  double warmup = 0, measure = 0, collect = 0;
  double terminal_seconds = 0, run_s = 0, traced_run_s = 0, extra_run_s = 0;
  double events = 0, measure_events = 0, calendar_grows = 0;
  double peak_calendar = 0, peak_processes = 0;
  double frames = 0, requests = 0, share_groups = 0, share_patches = 0;
  double prefix_hits = 0, disk_reads = 0, pool_refs = 0, pool_good = 0;
  double evictions = 0, stalls = 0, prefetch_issued = 0, wasted = 0;
  double proxy_refs = 0, proxy_forwards = 0, imbalance = 0;
  double sync_windows = 0;
  std::vector<double> p50, p99, disk_util, service, queue_wait, cpu_util,
      net, forward_ms;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = plain[i];
    const vod::SimMetrics& m = r.metrics;
    warmup += r.warmup_s;
    measure += r.measure_s;
    collect += r.collect_s;
    terminal_seconds += r.terminal_seconds;
    run_s += r.run_s();
    traced_run_s += traced[i].run_s();
    if (!extra.empty()) extra_run_s += extra[i].run_s();
    events += static_cast<double>(r.events);
    measure_events += static_cast<double>(r.measure_events);
    calendar_grows += static_cast<double>(r.kernel.calendar_grows);
    peak_calendar = std::max(
        peak_calendar, static_cast<double>(r.kernel.peak_calendar_size));
    peak_processes = std::max(
        peak_processes, static_cast<double>(r.kernel.peak_processes));
    frames += static_cast<double>(m.frames_displayed);
    requests += r.requests_sent;
    share_groups += static_cast<double>(m.share_groups);
    share_patches += static_cast<double>(m.share_patches);
    prefix_hits += static_cast<double>(m.prefix_hits);
    disk_reads += static_cast<double>(m.disk_reads);
    pool_refs += static_cast<double>(m.buffer_references);
    pool_good += static_cast<double>(m.buffer_hits + m.buffer_attaches);
    evictions += r.evictions;
    stalls += r.allocation_stalls;
    prefetch_issued += static_cast<double>(m.prefetches_issued);
    wasted += static_cast<double>(m.wasted_prefetches);
    proxy_refs += static_cast<double>(m.proxy_references);
    proxy_forwards += static_cast<double>(m.proxy_forwards);
    p50.push_back(m.p50_response_ms);
    p99.push_back(m.p99_response_ms);
    disk_util.push_back(m.avg_disk_utilization);
    service.push_back(m.avg_disk_service_ms);
    queue_wait.push_back(r.queue_wait_ms);
    cpu_util.push_back(m.avg_cpu_utilization);
    net.push_back(m.avg_network_bytes_per_sec);
    forward_ms.push_back(m.avg_proxy_forward_ms);
    double max_events = 0, sum_events = 0;
    for (std::uint64_t e : r.shard_events) {
      max_events = std::max(max_events, static_cast<double>(e));
      sum_events += static_cast<double>(e);
    }
    imbalance = std::max(
        imbalance, max_events / (sum_events / r.shard_events.size()));
    if (r.shard_events.size() > 1) {
      sync_windows += r.sim_seconds / r.lookahead_s;
    }
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  Result result;
  result.Add("mpeg.library_build_s", library);
  result.Add("vod.setup_other_s", setup_other);
  result.Add("vod.warmup_s", warmup);
  result.Add("vod.measure_s", measure);
  result.Add("vod.collect_s", collect);
  result.Add("sim.events", events);
  result.Add("sim.events_per_terminal_s", events / terminal_seconds);
  result.Add("sim.ns_per_event", ratio(run_s * 1e9, events));
  result.Add("sim.peak_calendar", peak_calendar);
  result.Add("sim.peak_processes", peak_processes);
  result.Add("sim.calendar_grows", calendar_grows);
  result.Add("sim.shard.speedup", sharded ? extra_run_s / run_s : 0.0);
  result.Add("sim.shard.events_imbalance", imbalance);
  result.Add("sim.shard.sync_windows_min", sync_windows);
  result.Add("client.frames_displayed", frames);
  result.Add("client.frames_per_event", ratio(frames, measure_events));
  result.Add("client.requests_sent", requests);
  result.Add("client.response_ms_p50", mean(p50));
  result.Add("client.response_ms_p99", mean(p99));
  result.Add("client.share_groups", share_groups);
  result.Add("client.share_patches", share_patches);
  result.Add("client.prefix_hits", prefix_hits);
  result.Add("hw.disk.reads", disk_reads);
  result.Add("hw.disk.utilization", mean(disk_util));
  result.Add("hw.disk.service_ms", mean(service));
  result.Add("hw.disk.queue_wait_ms", mean(queue_wait));
  result.Add("hw.cpu.utilization", mean(cpu_util));
  result.Add("hw.network.avg_bytes_per_s", mean(net));
  result.Add("server.pool.references", pool_refs);
  result.Add("server.pool.hit_ratio", ratio(pool_good, pool_refs));
  result.Add("server.pool.evictions", evictions);
  result.Add("server.pool.allocation_stalls", stalls);
  result.Add("server.prefetch.issued", prefetch_issued);
  result.Add("server.prefetch.useful_ratio",
             prefetch_issued > 0 ? 1.0 - wasted / prefetch_issued : 0.0);
  result.Add("proxy.references", proxy_refs);
  result.Add("proxy.offload_ratio",
             proxy_refs > 0 ? 1.0 - proxy_forwards / proxy_refs : 0.0);
  result.Add("proxy.forward_ms", mean(forward_ms));

  static const struct {
    const char* metric;
    obs::TraceCategory category;
  } kLayers[] = {
      {"obs.trace_records.terminal", obs::TraceCategory::kTerminal},
      {"obs.trace_records.server", obs::TraceCategory::kServer},
      {"obs.trace_records.network", obs::TraceCategory::kNetwork},
      {"obs.trace_records.disk", obs::TraceCategory::kDisk},
      {"obs.trace_records.buffer", obs::TraceCategory::kBuffer},
      {"obs.trace_records.prefetch", obs::TraceCategory::kPrefetch},
      {"obs.trace_records.proxy", obs::TraceCategory::kProxy},
  };
  double dropped = 0;
  for (const RunResult& r : traced) {
    dropped += static_cast<double>(r.trace_dropped);
  }
  for (const auto& layer : kLayers) {
    double records = 0;
    for (const RunResult& r : traced) {
      records += static_cast<double>(
          r.trace_records[static_cast<int>(layer.category)]);
    }
    result.Add(layer.metric, records);
  }
  result.Add("obs.trace_dropped", dropped);
  result.Add("obs.trace_overhead", traced_run_s / run_s - 1.0);
  result.Add("obs.telemetry_overhead",
             shared ? run_s / extra_run_s - 1.0 : 0.0);
  std::printf("RESULT %s}\n", result.json.c_str());
}

// The shard measurement recorded in README.md: the workload's first run
// at shards 1/2/4 on the modelled 5 us network, and at shards 1/4 with
// the 1 ms wire delay bench/sharded_scaling uses. Runs at one wire delay
// must agree exactly whatever the shard count.
void RunShardSweep(const std::vector<RunSpec>& runs) {
  const RunSpec& base = runs.front();
  static const struct {
    int shards;
    double wire_delay_s;
  } kPoints[] = {{1, 5e-6}, {2, 5e-6}, {4, 5e-6}, {1, 1e-3}, {4, 1e-3}};
  std::string reference[2];
  for (const auto& point : kPoints) {
    RunSpec spec = base;
    spec.config.shards = point.shards;
    spec.config.network.wire_delay_base_sec = point.wire_delay_s;
    spec.label = base.label + "/shards=" + std::to_string(point.shards) +
                 "/wire_us=" +
                 std::to_string(static_cast<int>(point.wire_delay_s * 1e6));
    Variant v;
    v.name = "shard_sweep";
    RunResult r = Execute(spec, v);
    PrintRun(spec, v, 0, r);
    std::string& expected = reference[point.wire_delay_s > 1e-4 ? 1 : 0];
    std::string behaviour = BehaviourJson(r.metrics);
    if (expected.empty()) expected = behaviour;
    if (behaviour != expected) {
      std::fprintf(stderr, "simbench: %s differs from one shard\n",
                   spec.label.c_str());
      std::exit(1);
    }
    std::fprintf(stderr,
                 "shard sweep: shards %d wire %.0f us  set-up %.2f s  run "
                 "%.2f s\n",
                 point.shards, point.wire_delay_s * 1e6, r.setup_s, r.run_s());
  }
  std::printf("RESULT {}\n");
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --seed N "
               "[--seconds S] [--mode e2e|trace|shard-sweep] [--quick]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "e2e";
  long long seed = -1;
  double seconds = 10.0;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (seed < 0) return Usage("--seed must be a non-negative integer");
  if (mode != "e2e" && mode != "trace" && mode != "shard-sweep") {
    return Usage("unknown --mode");
  }
  std::vector<RunSpec> runs;
  if (!MakeWorkload(workload, static_cast<std::uint64_t>(seed), &runs)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  std::printf("META {\"build_type\":\"%s\",\"compiler\":\"%s\","
              "\"cores\":%u}\n",
              SIMBENCH_BUILD_TYPE, SIMBENCH_COMPILER,
              std::thread::hardware_concurrency());
  // A run Validate rejects is reported (run.py counts it as failed) and
  // left out of the timed passes.
  std::vector<RunSpec> accepted;
  for (RunSpec& spec : runs) {
    if (quick) Shorten(&spec.config);
    std::string problem = spec.config.Validate();
    if (problem.empty()) {
      accepted.push_back(spec);
    } else {
      std::fprintf(stderr, "simbench: %s rejected by Validate: %s\n",
                   spec.label.c_str(), problem.c_str());
      std::printf("RUN {\"label\":\"%s\",\"variant\":\"rejected\"}\n",
                  spec.label.c_str());
    }
  }
  runs = std::move(accepted);
  if (runs.empty()) return 1;

  vod::SetRunObserver([](const vod::RunProfile& profile) {
    g_last_kernel = profile.kernel;
  });
  if (mode == "e2e") {
    RunEndToEnd(runs, seconds);
  } else if (mode == "trace") {
    RunTraced(workload, runs);
  } else {
    RunShardSweep(runs);
  }
  vod::SetRunObserver(nullptr);
  return 0;
}
