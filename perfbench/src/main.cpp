// rill_bench: one workload of Rill's benchmark, measured from outside the
// library.
//
//   rill_bench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with nothing attached:
// repeated passes over the workload's experiments for about S seconds,
// with host times scaled to the reference machine (reference.hpp).
// --trace 1 makes the separate traced run that gives the per-layer
// metrics in raw host time, writes its spans to .bench_out/ under the
// working directory, and reports its own overhead against the untraced
// calls.  Either way the last stdout line is the JSON result; earlier
// lines are for people.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "assemble.hpp"
#include "core.hpp"
#include "layers.hpp"
#include "metrics/json.hpp"
#include "obs/attribution.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "reference.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;
using rill::workloads::ExperimentConfig;
using rill::workloads::ExperimentResult;
using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Collects the run's verdicts and prints the human lines plus the result.
class Report {
 public:
  void metric(std::string name, double value, std::string unit,
              const std::string& note = {}) {
    if (!valid_metric_name(name)) {
      check(false, "metric name '" + name + "' is outside [A-Za-z0-9_.-]+");
    }
    std::printf("metric %-28s %16.6f %-7s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    std::printf("check  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    correct_ = correct_ && ok;
  }
  void experiment(const std::string& label, const ExperimentResult& r) {
    ++attempted_;
    const std::vector<std::string> why = failure_reasons(r);
    if (why.empty()) return;
    ++failed_;
    std::string line = "failed " + label + ":";
    for (const std::string& w : why) line += " " + w + ";";
    std::puts(line.c_str());
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  void print_result() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::puts(out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_{true};
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

double median(std::vector<double> v) {
  return nearest_rank(std::move(v), 0.5).value_or(0.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One run_experiment call, timed.
struct Timed {
  ExperimentResult result;
  double wall_s;
};
Timed timed_run(const ExperimentConfig& cfg) {
  const Clock::time_point t0 = Clock::now();
  ExperimentResult r = rill::workloads::run_experiment(cfg);
  return {std::move(r), seconds_since(t0)};
}

// ---- untraced run: the end-to-end metrics ---------------------------------

/// Set-up repetitions of every experiment before each measured pass.
constexpr int kSetupsPerPass = 5;

void run_untraced(Workload w, std::uint64_t seed, double seconds,
                  Report& report) {
  const std::vector<Experiment> exps = experiments_for(w, seed);

  // Passes over every experiment: at least two (the determinism guard
  // compares them), then more while the next one is expected to fit in
  // `seconds`.  The reference loop runs again whenever a second has passed
  // since it last ran, and every host time is scaled by kReferenceSeconds
  // over its latest time.  Each experiment's time is then its median over
  // the passes; its set-up is timed in small batches spread across the run
  // the same way.
  std::vector<std::vector<double>> walls(exps.size());
  std::vector<std::vector<double>> setups(exps.size());
  std::vector<std::vector<double>> raw_walls(exps.size());
  std::vector<double> scales;
  Clock::time_point scaled_at{};
  auto scale = [&]() {
    if (scales.empty() || seconds_since(scaled_at) >= 1.0) {
      scales.push_back(kReferenceSeconds / time_reference(scales.size()));
      scaled_at = Clock::now();
    }
    return scales.back();
  };
  std::vector<std::string> first_json(exps.size());
  std::vector<rill::metrics::MigrationReport> first(exps.size());
  bool identical = true;
  int passes = 0;
  const Clock::time_point t0 = Clock::now();
  for (;; ++passes) {
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const ExperimentConfig setup_cfg = setup_only(exps[i].config);
      const double k_scale = scale();
      for (int k = 0; k < kSetupsPerPass; ++k) {
        setups[i].push_back(timed_run(setup_cfg).wall_s * k_scale);
      }
    }
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const double k_scale = scale();
      Timed t = timed_run(exps[i].config);
      walls[i].push_back(t.wall_s * k_scale);
      raw_walls[i].push_back(t.wall_s);
      report.experiment(exps[i].label, t.result);
      std::string json = rill::metrics::to_json(t.result.report);
      if (passes == 0) {
        first_json[i] = std::move(json);
        first[i] = std::move(t.result.report);
      } else if (json != first_json[i]) {
        identical = false;
        std::printf("mismatch %s: pass %d report differs from pass 0\n",
                    exps[i].label.c_str(), passes);
      }
    }
    const double elapsed = seconds_since(t0);
    if (passes >= 1 && elapsed * (passes + 2) / (passes + 1) > seconds) {
      ++passes;
      break;
    }
  }
  report.check(identical, "determinism: " + std::to_string(passes) +
                              " passes of " + std::to_string(exps.size()) +
                              " experiments give byte-identical reports");

  double sim_s = 0.0;
  std::vector<double> restore;
  std::vector<double> p99;
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < exps.size(); ++i) {
    sim_s += rill::time::to_sec(exps[i].config.run_duration);
    if (!exps[i].hand_invoked) continue;
    const rill::metrics::MigrationReport& rep = first[i];
    if (rep.restore_sec) restore.push_back(*rep.restore_sec);
    if (rep.latency_p99_ms) p99.push_back(*rep.latency_p99_ms);
    lost += rep.lost_events;
  }
  std::vector<double> wall_ms;
  double wall_s = 0.0;
  double raw_wall_s = 0.0;
  double setup_s = 0.0;
  for (std::size_t i = 0; i < exps.size(); ++i) {
    wall_ms.push_back(median(walls[i]) * 1e3);
    wall_s += median(walls[i]);
    raw_wall_s += median(raw_walls[i]);
    setup_s += median(setups[i]);
  }

  const std::string med = "median of " + std::to_string(passes) + " passes";
  const std::size_t n = wall_ms.size();
  const std::optional<double> tail = highest_supported_percentile(n);
  const std::string over = med + ", n=" + std::to_string(n) + " experiments";
  report.metric("sim_s_per_wall_s", sim_s / wall_s, "s/s", med);
  report.metric("experiment_wall_ms_p50", *nearest_rank(wall_ms, 0.5), "ms",
                over);
  report.metric("experiment_wall_ms_p90", *nearest_rank(wall_ms, 0.9), "ms",
                over + (tail && *tail >= 0.9
                            ? ""
                            : " (fewer than 10 samples beyond p90)"));
  report.metric("setup_s", setup_s, "s",
                "median of " + std::to_string(passes * kSetupsPerPass) +
                    " set-ups per experiment, summed");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("sim_restore_s", median(restore), "sim_s",
                "median of " + std::to_string(restore.size()));
  report.metric("sim_p99_ms", median(p99), "sim_ms",
                "median of " + std::to_string(p99.size()));
  std::printf("info   host times scaled to the reference machine: median "
              "scale %.4f of %zu reference runs; unscaled sim_s_per_wall_s "
              "%.3f\n",
              median(scales), scales.size(), sim_s / raw_wall_s);
  std::printf("info   sim_lost_events %llu (total, hand-invoked runs)\n",
              static_cast<unsigned long long>(lost));
  std::printf("info   experiments_failed %llu of %llu experiments\n",
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
}

// ---- traced run: the per-layer metrics ------------------------------------

struct Sums {
  double plain_s = 0, assembled_s = 0, obs_s = 0, migration_s = 0;
  double events = 0, migration_events = 0;
  double messages = 0, bytes = 0, inter_vm = 0, delivered = 0;
  double waves = 0, wave_retries = 0, commit_bytes = 0, replayed = 0;
  double kv_puts = 0, kv_gets = 0, kv_bytes = 0, kv_retries = 0;
  double sink_arrivals = 0, on_sink_ns = 0;
  double arm_ms = 0, decisions = 0, trace_records = 0;
  std::vector<double> percentile_ns;
};

void run_traced(Workload w, std::uint64_t seed, Report& report) {
  const std::vector<Experiment> exps = experiments_for(w, seed, /*forks=*/1);
  SpanLog log;
  Sums s;
  bool identical = true;
  bool repeatable = true;
  std::optional<AssembledRun> heaviest;
  std::size_t heaviest_i = 0;

  for (std::size_t i = 0; i < exps.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    const ExperimentConfig& cfg = exps[i].config;
    ScopedSpan exp_span(log, "experiment " + exps[i].label, id);

    // The first assembly also warms the allocator, so the untraced call
    // after it and the timed second assembly start from the same state.
    const AssembledRun first = assemble_and_run(cfg, log, id);

    ScopedSpan plain_span(log, "workloads.run_experiment", id);
    const Timed plain = timed_run(cfg);
    plain_span.close();
    report.experiment(exps[i].label, plain.result);
    const std::string plain_json = rill::metrics::to_json(plain.result.report);

    Clock::time_point t0 = Clock::now();
    AssembledRun a = assemble_and_run(cfg, log, id);
    a.wall_s = seconds_since(t0);
    if (a.report_json != plain_json) {
      identical = false;
      std::printf("mismatch %s: assembled report differs from run_experiment\n",
                  exps[i].label.c_str());
    }
    if (first.events != a.events || first.report_json != a.report_json) {
      repeatable = false;
      std::printf("mismatch %s: repetition gave %llu events, first %llu\n",
                  exps[i].label.c_str(),
                  static_cast<unsigned long long>(a.events),
                  static_cast<unsigned long long>(first.events));
    }

    if (exps[i].hand_invoked) {
      ScopedSpan twin_span(log, "core.no_migration_twin", id);
      t0 = Clock::now();
      const AssembledRun twin =
          assemble_and_run(no_migration_twin(cfg), log, id);
      s.migration_s += a.wall_s - seconds_since(t0);
      s.migration_events +=
          static_cast<double>(a.events) - static_cast<double>(twin.events);
    } else {
      s.arm_ms += plain.wall_s * 1e3;
      s.decisions += static_cast<double>(plain.result.autoscale.decisions);
    }

    {
      ScopedSpan obs_span(log, "obs.attached", id);
      rill::obs::Tracer tracer;
      rill::obs::MetricsRegistry registry;
      rill::obs::LatencyAttributor attributor(64);
      ExperimentConfig traced = cfg;
      traced.tracer = &tracer;
      traced.metrics = &registry;
      traced.attributor = &attributor;
      s.obs_s += timed_run(traced).wall_s;
      s.trace_records += static_cast<double>(tracer.records().size());
    }

    s.plain_s += plain.wall_s;
    s.assembled_s += a.wall_s;
    s.events += static_cast<double>(a.events);
    s.messages += static_cast<double>(a.net.messages_sent);
    s.bytes += static_cast<double>(a.net.bytes_sent);
    s.inter_vm += static_cast<double>(a.net.inter_vm);
    s.delivered += static_cast<double>(a.delivered);
    const rill::dsps::CheckpointStats& ck = a.result.checkpoint;
    s.waves += static_cast<double>(ck.waves_started);
    s.wave_retries += static_cast<double>(ck.wave_retries);
    s.commit_bytes += static_cast<double>(ck.delta_bytes + ck.full_bytes);
    s.replayed += static_cast<double>(a.result.report.replayed_messages);
    const rill::kvstore::StoreStats& kv = a.result.store;
    s.kv_puts += static_cast<double>(kv.puts);
    s.kv_gets += static_cast<double>(kv.gets);
    s.kv_bytes += static_cast<double>(kv.bytes_written + kv.bytes_read);
    s.kv_retries += static_cast<double>(kv.retries);
    s.sink_arrivals += static_cast<double>(a.sink_arrivals);
    s.on_sink_ns += a.on_sink_arrival_ns;
    s.percentile_ns.push_back(a.percentile_ns);
    if (exps[i].hand_invoked && (!heaviest || a.events > heaviest->events)) {
      heaviest = std::move(a);
      heaviest_i = i;
    }
  }
  report.check(identical, "traced run's own assembly gives run_experiment's "
                          "report byte for byte on all " +
                              std::to_string(exps.size()) + " experiments");
  report.check(repeatable, "repeated assembly gives identical sim.events and "
                           "reports");

  const LayerTimings lt = time_layers(
      exps[heaviest_i].config, heaviest->pending_at_request, heaviest->states,
      log, static_cast<std::uint32_t>(heaviest_i + 1));
  std::printf("info   layer inputs from %s: engine population %zu, "
              "%zu stateful tasks, checksum %llu\n",
              exps[heaviest_i].label.c_str(), heaviest->pending_at_request,
              heaviest->states.size(),
              static_cast<unsigned long long>(lt.checksum));

  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report.metric("sim.events", s.events, "count");
  report.metric("sim.ns_per_event", per(s.plain_s * 1e9, s.events), "ns");
  report.metric("sim.schedule_step_ns", lt.schedule_step_ns, "ns");
  report.metric("net.messages", s.messages, "count");
  report.metric("net.bytes", s.bytes, "B");
  report.metric("net.inter_vm_share", per(s.inter_vm, s.messages), "ratio");
  report.metric("net.send_ns", lt.send_ns, "ns");
  report.metric("dsps.delivered", s.delivered, "count");
  report.metric("dsps.executor_lookup_ns", lt.executor_lookup_ns, "ns");
  report.metric("state.update_ns", lt.state_update_ns, "ns");
  report.metric("state.blob_serde_ns", lt.blob_serde_ns, "ns");
  report.metric("ckpt.waves", s.waves, "count");
  report.metric("ckpt.wave_retries", s.wave_retries, "count");
  report.metric("ckpt.commit_bytes", s.commit_bytes, "B");
  report.metric("acker.add_ack_ns", lt.add_ack_ns, "ns");
  report.metric("dsps.replayed", s.replayed, "count");
  report.metric("kv.puts", s.kv_puts, "count");
  report.metric("kv.gets", s.kv_gets, "count");
  report.metric("kv.bytes", s.kv_bytes, "B");
  report.metric("kv.retries", s.kv_retries, "count");
  report.metric("kv.put_get_ns", lt.put_get_ns, "ns");
  report.metric("core.migration_wall_s", s.migration_s, "s");
  report.metric("core.migration_events", s.migration_events, "count");
  report.metric("metrics.sink_arrivals", s.sink_arrivals, "count");
  report.metric("metrics.on_sink_arrival_ns",
                per(s.on_sink_ns, s.sink_arrivals), "ns");
  report.metric("metrics.percentile_ns", median(s.percentile_ns), "ns");
  report.metric("autoscale.decisions", s.decisions, "count");
  report.metric("obs.overhead_ratio", per(s.obs_s, s.plain_s), "ratio");
  report.metric("obs.trace_records", s.trace_records, "count");
  report.metric("trace.overhead_ratio", per(s.assembled_s, s.plain_s), "ratio",
                "traced assembly vs untraced run_experiment");
  // Zero on the grid workloads, which have no autoscale arm; printed, not
  // part of the result.
  std::printf("info   autoscale.arm_wall_ms %.3f ms\n", s.arm_ms);

  for (const auto& [name, sec] : log.self_seconds()) {
    std::printf("self   %-32s %10.3f s\n", name.c_str(), sec);
  }
  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/" + std::string(to_string(w)) +
                           "-seed" + std::to_string(seed) + ".spans.jsonl";
  std::ofstream(path) << log.to_jsonl();
  std::printf("info   %zu spans written to %s\n", log.spans().size(),
              path.c_str());
}

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload grid_ccr_large|"
               "grid_dsm_delta_large|paper_sweep --seed N --seconds S "
               "--trace 0|1\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Workload> workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = parse_workload(val);
        if (!workload) usage(argv[0], "unknown workload " + val);
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else {
        usage(argv[0], "unknown flag " + arg);
      }
    } catch (const std::exception&) {
      usage(argv[0], "bad value for " + arg + ": " + val);
    }
  }
  if (!workload || !seed || (trace != 0 && trace != 1) || !(seconds > 0)) {
    usage(argv[0], "--workload, --seed, --seconds > 0 and --trace 0|1 are "
                   "required");
  }

  std::printf("# rill_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              std::string(to_string(*workload)).c_str(),
              static_cast<unsigned long long>(*seed), seconds, trace);
  Report report;
  if (trace == 0) {
    run_untraced(*workload, *seed, seconds, report);
  } else {
    run_traced(*workload, *seed, report);
  }
  report.print_result();
  return 0;
}
