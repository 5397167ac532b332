// rill_run — command-line driver for one migration experiment.
//
// Run `rill_run --help` for the full flag reference.  Unknown flags and
// malformed values exit 2; a failed migration exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "obs/attribution.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "workloads/runner.hpp"

using namespace rill;

namespace {

void print_help(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [options]\n"
               "\n"
               "Run one migration experiment and print its report.\n"
               "\n"
               "experiment:\n"
               "  --dag NAME            linear|diamond|star|traffic|grid|keyed\n"
               "                        (default grid; keyed = the fields-\n"
               "                        grouped autoscale chain)\n"
               "  --strategy NAME       dsm|dsm-t|dcr|ccr|fgm (default ccr)\n"
               "  --scale in|out        scale direction (default in)\n"
               "  --rate R              source rate, events/s\n"
               "  --seed N              RNG seed (deterministic per seed)\n"
               "  --migrate-at S        migration request time, seconds\n"
               "  --duration S          total run duration, seconds\n"
               "  --linear-n N          override the DAG with Linear-N\n"
               "  --kv-shards N         checkpoint store shards (default 1;\n"
               "                        1 = the single-Redis baseline)\n"
               "  --fgm-batch-keys N    FGM only: key-range partitions moved\n"
               "                        one batch at a time (default 8)\n"
               "  --interference-permille N  noisy-neighbour CPU steal: each\n"
               "                        busy colocated executor dilates service\n"
               "                        time by N per mille (default 0)\n"
               "\n"
               "traffic models (deterministic per seed):\n"
               "  --traffic-base R      enable time-varying traffic with base\n"
               "                        rate R ev/s (replaces --rate's static\n"
               "                        feed)\n"
               "  --traffic-diurnal A   diurnal triangle amplitude in [0,1)\n"
               "  --traffic-diurnal-period-s S  diurnal period, seconds\n"
               "  --traffic-crowd AT,RAMP,HOLD,FALL,MULT  flash crowd: ramp to\n"
               "                        MULT x over RAMP s at AT s, hold, fall\n"
               "                        (repeatable; multipliers stack)\n"
               "  --traffic-zipf S      Zipf key skew exponent (0 = round-\n"
               "                        robin keys, default)\n"
               "\n"
               "closed-loop autoscaling:\n"
               "  --autoscale 0|1       enable the SLO-driven controller; it\n"
               "                        owns every migration (--migrate-at,\n"
               "                        --strategy and --scale are ignored)\n"
               "  --autoscale-slo-p99-ms N  per-window p99 target, ms\n"
               "                        (default 1500)\n"
               "  --autoscale-cooldown-s S  minimum gap between triggers\n"
               "                        (default 60)\n"
               "  --autoscale-max-tasks N   concurrent migrations allowed\n"
               "                        (in flight + queued, default 1)\n"
               "  --autoscale-force NAME    pin every trigger to one\n"
               "                        strategy (per-strategy experiment\n"
               "                        rows; default: pick per situation)\n"
               "\n"
               "incremental checkpointing:\n"
               "  --ckpt-delta 0|1      COMMIT persists dirty-key deltas when\n"
               "                        a valid base blob exists (default 0)\n"
               "  --ckpt-delta-max-ratio R  fall back to a full blob when the\n"
               "                        delta exceeds R x the full size\n"
               "                        (default 0.5)\n"
               "  --ckpt-full-every N   force a full blob (compaction) every\n"
               "                        N-th wave; 0 = never (default 8)\n"
               "\n"
               "adaptive checkpoint policy:\n"
               "  --ckpt-adaptive 0|1   retune checkpoint interval, compaction\n"
               "                        cadence and delta ratio from measured\n"
               "                        MTTF/MTTR at epoch boundaries "
               "(default 0)\n"
               "  --ckpt-rto-ms N       recovery-time objective the policy\n"
               "                        solves against, ms (default 60000)\n"
               "  --ckpt-retune-ms N    policy retune epoch, ms "
               "(default 30000)\n"
               "  --ckpt-respawn-restore 0|1  chaos-respawned stateful workers\n"
               "                        start a recovery INIT from the last\n"
               "                        committed checkpoint (default 0)\n"
               "\n"
               "recovery supervision:\n"
               "  --attempts N          max migration attempts (default 1)\n"
               "  --no-fallback         do not degrade to DSM after aborts\n"
               "\n"
               "fault injection (S = start sec, D = duration sec, P = prob):\n"
               "  --chaos-kv-outage S,D[,SHARD]   store unavailable in the\n"
               "                        window (SHARD restricts the outage to\n"
               "                        one shard; omitted = all shards)\n"
               "  --chaos-kv-slow S,D,MS[,SHARD]  extra store latency, ms\n"
               "  --chaos-drop-control S,D,P  drop control messages\n"
               "  --chaos-drop-user S,D,P     drop user events\n"
               "  --chaos-delay S,D,MS      extra network delay, ms\n"
               "  --chaos-crash S[,IDX]     crash worker IDX (random if "
               "omitted)\n"
               "  --chaos-vm-fail S[,IDX]   fail a whole VM\n"
               "\n"
               "observability:\n"
               "  --trace-out FILE      write a Chrome trace-event JSON file\n"
               "                        (open at ui.perfetto.dev)\n"
               "  --trace-jsonl FILE    write the trace as JSON Lines\n"
               "  --task-metrics FILE   write the per-task metrics registry "
               "as JSON\n"
               "  --attr-sample N       sample 1-in-N spout roots for per-cause\n"
               "                        latency attribution (0 = off, default).\n"
               "                        Sampled tuples land on a 'tuples' trace\n"
               "                        track and in the report's attribution\n"
               "                        table; analyze with rill_trace\n"
               "  --slo-p99-ms N        windowed SLO target: flag 10 s windows\n"
               "                        whose p99 exceeds N ms (0 = track\n"
               "                        percentiles only, default).  Exported\n"
               "                        as slo.* in --task-metrics\n"
               "\n"
               "output:\n"
               "  --json                print the report as JSON\n"
               "  --series              print throughput/latency series JSON\n"
               "  --help, -h            this text\n",
               argv0);
}

[[noreturn]] void die(const char* argv0, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", argv0, msg.c_str());
  std::fprintf(stderr, "run '%s --help' for the flag reference\n", argv0);
  std::exit(2);
}

bool parse_dag(const std::string& s, workloads::DagKind& out) {
  if (s == "linear") out = workloads::DagKind::Linear;
  else if (s == "diamond") out = workloads::DagKind::Diamond;
  else if (s == "star") out = workloads::DagKind::Star;
  else if (s == "traffic") out = workloads::DagKind::Traffic;
  else if (s == "grid") out = workloads::DagKind::Grid;
  else if (s == "keyed") out = workloads::DagKind::Keyed;
  else return false;
  return true;
}

bool parse_strategy(const std::string& s, core::StrategyKind& out) {
  if (s == "dsm") out = core::StrategyKind::DSM;
  else if (s == "dsm-t") out = core::StrategyKind::DSM_T;
  else if (s == "dcr") out = core::StrategyKind::DCR;
  else if (s == "ccr") out = core::StrategyKind::CCR;
  else if (s == "fgm") out = core::StrategyKind::FGM;
  else return false;
  return true;
}

/// Whole-string double; dies on trailing garbage ("3x") or empty input.
double parse_num(const char* argv0, const std::string& flag,
                 const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    die(argv0, "bad value for " + flag + ": '" + s + "'");
  }
  return v;
}

std::uint64_t parse_u64(const char* argv0, const std::string& flag,
                        const std::string& s) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    die(argv0, "bad value for " + flag + ": '" + s + "'");
  }
  return v;
}

int parse_int(const char* argv0, const std::string& flag,
              const std::string& s) {
  const double v = parse_num(argv0, flag, s);
  if (v != static_cast<double>(static_cast<int>(v))) {
    die(argv0, "bad value for " + flag + ": '" + s + "'");
  }
  return static_cast<int>(v);
}

/// Split "a,b,c" into doubles; dies on malformed input or wrong arity.
std::vector<double> parse_csv(const char* argv0, const std::string& flag,
                              const std::string& s, std::size_t min_n,
                              std::size_t max_n) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string part =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    out.push_back(parse_num(argv0, flag, part));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.size() < min_n || out.size() > max_n) {
    die(argv0, "wrong number of values for " + flag + ": '" + s + "'");
  }
  return out;
}

void write_file(const char* argv0, const std::string& path,
                const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) die(argv0, "cannot open " + path + " for writing");
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  workloads::ExperimentConfig cfg;
  bool json = false;
  bool series = false;
  bool want_help = false;
  std::string trace_out;
  std::string trace_jsonl;
  std::string task_metrics_out;
  std::uint64_t attr_sample = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    auto num = [&]() { return parse_num(argv[0], arg, next()); };
    auto csv = [&](std::size_t min_n, std::size_t max_n) {
      return parse_csv(argv[0], arg, next(), min_n, max_n);
    };
    if (arg == "--dag") {
      if (!parse_dag(next(), cfg.dag)) die(argv[0], "unknown dag");
    } else if (arg == "--strategy") {
      if (!parse_strategy(next(), cfg.strategy)) {
        die(argv[0], "unknown strategy");
      }
    } else if (arg == "--scale") {
      const std::string v = next();
      if (v == "in") cfg.scale = workloads::ScaleKind::In;
      else if (v == "out") cfg.scale = workloads::ScaleKind::Out;
      else die(argv[0], "unknown scale: '" + v + "'");
    } else if (arg == "--rate") {
      cfg.platform.source_rate = num();
      if (cfg.platform.source_rate <= 0) die(argv[0], "--rate must be > 0");
    } else if (arg == "--seed") {
      cfg.platform.seed = parse_u64(argv[0], arg, next());
    } else if (arg == "--migrate-at") {
      cfg.migrate_at = time::sec_f(num());
    } else if (arg == "--duration") {
      cfg.run_duration = time::sec_f(num());
    } else if (arg == "--linear-n") {
      cfg.custom_topology = workloads::build_linear_n(
          parse_int(argv[0], arg, next()), cfg.platform.source_rate);
    } else if (arg == "--attempts") {
      cfg.controller.max_attempts = parse_int(argv[0], arg, next());
      if (cfg.controller.max_attempts < 1) {
        die(argv[0], "--attempts must be >= 1");
      }
    } else if (arg == "--no-fallback") {
      cfg.controller.fallback_to_dsm = false;
    } else if (arg == "--kv-shards") {
      cfg.platform.kv_shards = parse_int(argv[0], arg, next());
      if (cfg.platform.kv_shards < 1) die(argv[0], "--kv-shards must be >= 1");
    } else if (arg == "--fgm-batch-keys") {
      cfg.platform.fgm_batch_keys = parse_int(argv[0], arg, next());
      if (cfg.platform.fgm_batch_keys < 1) {
        die(argv[0], "--fgm-batch-keys must be >= 1");
      }
    } else if (arg == "--interference-permille") {
      cfg.platform.vm_steal_permille = parse_int(argv[0], arg, next());
      if (cfg.platform.vm_steal_permille < 0) {
        die(argv[0], "--interference-permille must be >= 0");
      }
    } else if (arg == "--traffic-base") {
      cfg.traffic.enabled = true;
      cfg.traffic.base_rate = num();
      if (cfg.traffic.base_rate <= 0) {
        die(argv[0], "--traffic-base must be > 0");
      }
    } else if (arg == "--traffic-diurnal") {
      cfg.traffic.diurnal_amplitude = num();
      if (cfg.traffic.diurnal_amplitude < 0.0 ||
          cfg.traffic.diurnal_amplitude >= 1.0) {
        die(argv[0], "--traffic-diurnal must be in [0, 1)");
      }
    } else if (arg == "--traffic-diurnal-period-s") {
      cfg.traffic.diurnal_period_sec = num();
      if (cfg.traffic.diurnal_period_sec <= 0) {
        die(argv[0], "--traffic-diurnal-period-s must be > 0");
      }
    } else if (arg == "--traffic-crowd") {
      const auto v = csv(5, 5);
      workloads::FlashCrowd crowd;
      crowd.at_sec = v[0];
      crowd.ramp_sec = v[1];
      crowd.hold_sec = v[2];
      crowd.fall_sec = v[3];
      crowd.multiplier = v[4];
      if (crowd.multiplier < 1.0) {
        die(argv[0], "--traffic-crowd multiplier must be >= 1");
      }
      cfg.traffic.crowds.push_back(crowd);
    } else if (arg == "--traffic-zipf") {
      cfg.traffic.zipf_s = num();
      if (cfg.traffic.zipf_s < 0) die(argv[0], "--traffic-zipf must be >= 0");
    } else if (arg == "--autoscale") {
      const int v = parse_int(argv[0], arg, next());
      if (v != 0 && v != 1) die(argv[0], "--autoscale must be 0 or 1");
      cfg.autoscale.enabled = v == 1;
    } else if (arg == "--autoscale-slo-p99-ms") {
      const int v = parse_int(argv[0], arg, next());
      if (v <= 0) die(argv[0], "--autoscale-slo-p99-ms must be > 0");
      cfg.autoscale.target_p99_us = static_cast<std::uint64_t>(v) * 1000ull;
    } else if (arg == "--autoscale-cooldown-s") {
      const int v = parse_int(argv[0], arg, next());
      if (v < 0) die(argv[0], "--autoscale-cooldown-s must be >= 0");
      cfg.autoscale.cooldown = time::sec(v);
    } else if (arg == "--autoscale-max-tasks") {
      const int v = parse_int(argv[0], arg, next());
      if (v < 1) die(argv[0], "--autoscale-max-tasks must be >= 1");
      cfg.autoscale.max_parallel_migrations = static_cast<std::size_t>(v);
    } else if (arg == "--autoscale-force") {
      core::StrategyKind k{};
      if (!parse_strategy(next(), k)) die(argv[0], "unknown strategy");
      cfg.autoscale.force_strategy = k;
    } else if (arg == "--ckpt-delta") {
      const int v = parse_int(argv[0], arg, next());
      if (v != 0 && v != 1) die(argv[0], "--ckpt-delta must be 0 or 1");
      cfg.platform.ckpt_delta = v == 1;
    } else if (arg == "--ckpt-delta-max-ratio") {
      cfg.platform.ckpt_delta_max_ratio = num();
      if (cfg.platform.ckpt_delta_max_ratio <= 0.0 ||
          cfg.platform.ckpt_delta_max_ratio > 1.0) {
        die(argv[0], "--ckpt-delta-max-ratio must be in (0, 1]");
      }
    } else if (arg == "--ckpt-full-every") {
      cfg.platform.ckpt_full_every = parse_int(argv[0], arg, next());
      if (cfg.platform.ckpt_full_every < 0) {
        die(argv[0], "--ckpt-full-every must be >= 0");
      }
    } else if (arg == "--ckpt-adaptive") {
      const int v = parse_int(argv[0], arg, next());
      if (v != 0 && v != 1) die(argv[0], "--ckpt-adaptive must be 0 or 1");
      cfg.ckpt_policy.enabled = v == 1;
    } else if (arg == "--ckpt-rto-ms") {
      const int v = parse_int(argv[0], arg, next());
      if (v <= 0) die(argv[0], "--ckpt-rto-ms must be > 0");
      cfg.ckpt_policy.rto = time::ms(v);
    } else if (arg == "--ckpt-retune-ms") {
      const int v = parse_int(argv[0], arg, next());
      if (v <= 0) die(argv[0], "--ckpt-retune-ms must be > 0");
      cfg.ckpt_policy.retune_epoch = time::ms(v);
    } else if (arg == "--ckpt-respawn-restore") {
      const int v = parse_int(argv[0], arg, next());
      if (v != 0 && v != 1) {
        die(argv[0], "--ckpt-respawn-restore must be 0 or 1");
      }
      cfg.platform.respawn_restore = v == 1;
    } else if (arg == "--chaos-kv-outage") {
      const auto v = csv(2, 3);
      cfg.chaos.kv_outage(time::sec_f(v[0]), time::sec_f(v[1]),
                          v.size() > 2 ? static_cast<int>(v[2]) : -1);
    } else if (arg == "--chaos-kv-slow") {
      const auto v = csv(3, 4);
      cfg.chaos.kv_latency(time::sec_f(v[0]), time::sec_f(v[1]),
                           time::ms(static_cast<std::int64_t>(v[2])),
                           v.size() > 3 ? static_cast<int>(v[3]) : -1);
    } else if (arg == "--chaos-drop-control") {
      const auto v = csv(3, 3);
      cfg.chaos.drop_control(time::sec_f(v[0]), time::sec_f(v[1]), v[2]);
    } else if (arg == "--chaos-drop-user") {
      const auto v = csv(3, 3);
      cfg.chaos.drop_user(time::sec_f(v[0]), time::sec_f(v[1]), v[2]);
    } else if (arg == "--chaos-delay") {
      const auto v = csv(3, 3);
      cfg.chaos.net_delay(time::sec_f(v[0]), time::sec_f(v[1]),
                          time::ms(static_cast<std::int64_t>(v[2])));
    } else if (arg == "--chaos-crash") {
      const auto v = csv(1, 2);
      cfg.chaos.crash_worker(time::sec_f(v[0]),
                             v.size() > 1 ? static_cast<int>(v[1]) : -1);
    } else if (arg == "--chaos-vm-fail") {
      const auto v = csv(1, 2);
      cfg.chaos.fail_vm(time::sec_f(v[0]),
                        v.size() > 1 ? static_cast<int>(v[1]) : -1);
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--trace-jsonl") {
      trace_jsonl = next();
    } else if (arg == "--task-metrics") {
      task_metrics_out = next();
    } else if (arg == "--attr-sample") {
      attr_sample = parse_u64(argv[0], arg, next());
    } else if (arg == "--slo-p99-ms") {
      const int v = parse_int(argv[0], arg, next());
      if (v < 0) die(argv[0], "--slo-p99-ms must be >= 0");
      cfg.slo.target_p99_us = static_cast<std::uint64_t>(v) * 1000ull;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--series") {
      series = true;
    } else if (arg == "--help" || arg == "-h") {
      // Deferred until the whole command line parsed: the strict-parsing
      // contract says an unknown flag exits 2 even when --help is present,
      // so unknown-flag detection must run first.
      want_help = true;
    } else {
      die(argv[0], "unknown flag: " + arg);
    }
  }
  if (want_help) {
    print_help(stdout, argv[0]);
    return 0;
  }

  // The flight recorder is only attached when an output was requested.
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  if (!trace_out.empty() || !trace_jsonl.empty()) cfg.tracer = &tracer;
  if (!task_metrics_out.empty()) cfg.metrics = &registry;
  std::optional<obs::LatencyAttributor> attributor;
  if (attr_sample > 0) {
    attributor.emplace(attr_sample);
    cfg.attributor = &*attributor;
  }

  const workloads::ExperimentResult r = workloads::run_experiment(cfg);

  if (!trace_out.empty()) {
    write_file(argv[0], trace_out, tracer.to_chrome_json());
  }
  if (!trace_jsonl.empty()) {
    write_file(argv[0], trace_jsonl, tracer.to_jsonl());
  }
  if (!task_metrics_out.empty()) {
    write_file(argv[0], task_metrics_out, registry.to_json());
  }

  if (json) {
    std::puts(metrics::to_json(r.report).c_str());
  } else {
    const metrics::MigrationReport& rep = r.report;
    if (cfg.autoscale.enabled) {
      // Many migrations (or none): head the run with the controller's
      // triggers and strategy picks.  The phase lines describe one
      // migration, so they are left out.
      std::string picks;
      for (core::StrategyKind k :
           {core::StrategyKind::DSM, core::StrategyKind::DSM_T,
            core::StrategyKind::DCR, core::StrategyKind::CCR,
            core::StrategyKind::FGM}) {
        std::size_t n = 0;
        for (const auto& ev : r.autoscale.events) n += ev.strategy == k;
        if (n == 0) continue;
        picks += (picks.empty() ? "" : ", ") + std::string(core::to_string(k)) +
                 " " + std::to_string(n);
      }
      std::printf("Autoscaled %s, seed %llu: %zu triggers (%llu out, %llu "
                  "in), strategy picks: %s\n",
                  rep.dag.c_str(),
                  static_cast<unsigned long long>(cfg.platform.seed),
                  r.autoscale.events.size(),
                  static_cast<unsigned long long>(r.autoscale.scale_outs),
                  static_cast<unsigned long long>(r.autoscale.scale_ins),
                  picks.empty() ? "none" : picks.c_str());
    } else {
      std::printf("%s migration of %s (%s), seed %llu\n",
                  rep.strategy.c_str(), rep.dag.c_str(), rep.scale.c_str(),
                  static_cast<unsigned long long>(cfg.platform.seed));
      std::printf("  restore        %s s\n",
                  metrics::fmt_opt(rep.restore_sec).c_str());
      std::printf("  drain/capture  %s s\n",
                  metrics::fmt(rep.drain_sec, 2).c_str());
      std::printf("  rebalance      %s s\n",
                  metrics::fmt(rep.rebalance_sec, 2).c_str());
      std::printf("  catchup        %s s\n",
                  metrics::fmt_opt(rep.catchup_sec).c_str());
      std::printf("  recovery       %s s\n",
                  metrics::fmt_opt(rep.recovery_sec).c_str());
      std::printf("  stabilization  %s s\n",
                  metrics::fmt_opt(rep.stabilization_sec).c_str());
    }
    std::printf("  latency p50    %s ms (p95 %s, p99 %s)\n",
                metrics::fmt_opt(rep.latency_p50_ms).c_str(),
                metrics::fmt_opt(rep.latency_p95_ms).c_str(),
                metrics::fmt_opt(rep.latency_p99_ms).c_str());
    std::printf("  replayed       %llu\n",
                static_cast<unsigned long long>(rep.replayed_messages));
    std::printf("  lost           %llu\n",
                static_cast<unsigned long long>(rep.lost_events));
    if (!cfg.chaos.empty()) {
      std::printf("  chaos          %s\n", cfg.chaos.describe().c_str());
      std::printf("  fault hits     %llu\n",
                  static_cast<unsigned long long>(rep.fault_hits));
      std::printf("  kv retries     %llu, wave retries %llu\n",
                  static_cast<unsigned long long>(rep.kv_retries),
                  static_cast<unsigned long long>(rep.wave_retries));
    }
    if (rep.migration_attempts > 1 || rep.aborted_attempts > 0) {
      std::printf("  attempts       %d (%d aborted%s)\n",
                  rep.migration_attempts, rep.aborted_attempts,
                  rep.fell_back_to_dsm ? ", fell back to DSM" : "");
      if (rep.abort_latency_sec.has_value()) {
        std::printf("  abort latency  %s s\n",
                    metrics::fmt_opt(rep.abort_latency_sec).c_str());
      }
    }
    if (!rep.attribution.empty()) {
      std::printf("  attribution    %llu sampled tuples (1 in %llu)\n",
                  static_cast<unsigned long long>(rep.sampled_tuples),
                  static_cast<unsigned long long>(attr_sample));
      std::printf("    %-8s %10s %10s %10s %14s\n", "cause", "p50 us",
                  "p95 us", "p99 us", "total us");
      for (const auto& cb : rep.attribution) {
        std::printf("    %-8s %10llu %10llu %10llu %14llu\n",
                    cb.cause.c_str(),
                    static_cast<unsigned long long>(cb.p50_us),
                    static_cast<unsigned long long>(cb.p95_us),
                    static_cast<unsigned long long>(cb.p99_us),
                    static_cast<unsigned long long>(cb.total_us));
      }
    }
    if (rep.autoscale.has_value()) {
      const auto& as = *rep.autoscale;
      std::printf("  autoscale      %llu out, %llu in (fgm %llu, ccr %llu, "
                  "dcr %llu; %llu suppressed, %llu failed)\n",
                  static_cast<unsigned long long>(as.scale_outs),
                  static_cast<unsigned long long>(as.scale_ins),
                  static_cast<unsigned long long>(as.fgm_chosen),
                  static_cast<unsigned long long>(as.ccr_chosen),
                  static_cast<unsigned long long>(as.dcr_chosen),
                  static_cast<unsigned long long>(as.suppressed),
                  static_cast<unsigned long long>(as.failed));
      std::printf("  slo burn       %llu/1000 over %llu windows\n",
                  static_cast<unsigned long long>(as.slo_burn_per_mille),
                  static_cast<unsigned long long>(as.slo_windows));
      if (!r.slo_strip.empty()) {
        std::printf("  slo windows    %s\n", r.slo_strip.c_str());
      }
      for (const auto& ev : r.autoscale.events) {
        std::printf("    t=%7.1fs %-9s %s -> %s via %s %s\n",
                    time::to_sec(static_cast<SimDuration>(ev.at)),
                    std::string(autoscale::to_string(ev.action)).c_str(),
                    std::string(autoscale::to_string(ev.from)).c_str(),
                    std::string(autoscale::to_string(ev.to)).c_str(),
                    std::string(core::to_string(ev.strategy)).c_str(),
                    ev.succeeded ? "ok" : "FAILED");
      }
    }
    if (cfg.autoscale.enabled) {
      std::printf("  autoscale %s\n",
                  r.autoscale.failed == 0 ? "ok" : "FAILED");
    } else {
      std::printf("  migration %s\n", r.migration_succeeded ? "ok" : "FAILED");
    }
  }
  if (series) {
    std::puts(metrics::series_json(r.collector).c_str());
  }
  // An autoscale run succeeds when no trigger's migration failed — there
  // is no single "the" migration to judge by.
  if (cfg.autoscale.enabled) return r.autoscale.failed == 0 ? 0 : 1;
  return r.migration_succeeded ? 0 : 1;
}
