// Fig 5a / 5b: Restore / Catchup / Recovery time per strategy and DAG, for
// scale-in (Fig 5a) and scale-out (Fig 5b, from ⌈n/2⌉ D2 VMs to n D1 VMs;
// slot count unchanged).
//
// The paper plots these as stacked bars (seconds since the migration
// request).  Expected shape: CCR restore < DCR < DSM; catchup only for DSM
// and CCR; recovery only for DSM; DSM grows with DAG size.  Both figures
// come from one DAG × strategy grid of cells, each run at both scales.
//
// The checkpoint-store shard sweep over these restores lives in
// bench_redis_checkpoint, the store tier's one --check gate.
#include <array>

#include "bench_common.hpp"

using namespace rill;

int main() {
  constexpr std::array<workloads::ScaleKind, 2> kScales = {
      workloads::ScaleKind::In, workloads::ScaleKind::Out};
  std::array<std::vector<std::vector<std::string>>, 2> rows;
  for (workloads::DagKind dag : workloads::all_dags()) {
    for (core::StrategyKind s : bench::kStrategies) {
      for (std::size_t i = 0; i < kScales.size(); ++i) {
        const auto r = bench::run_cell(dag, s, kScales[i]);
        rows[i].push_back({std::string(workloads::to_string(dag)),
                           std::string(core::to_string(s)),
                           metrics::fmt_opt(r.report.restore_sec),
                           metrics::fmt_opt(r.report.catchup_sec),
                           metrics::fmt_opt(r.report.recovery_sec),
                           metrics::fmt(r.report.drain_sec, 2),
                           metrics::fmt(r.report.rebalance_sec, 2)});
      }
    }
  }

  const char* const titles[2] = {
      "Fig 5a — performance time per strategy (SCALE-IN)",
      "Fig 5b — performance time per strategy (SCALE-OUT)"};
  const char* const refs[2] = {"Figure 5a", "Figure 5b"};
  const char* const papers[2] = {
      "Paper (Fig 5a) restore for Grid: DSM 92, DCR 41, CCR 15;"
      " shape to check: CCR < DCR < DSM, DSM grows with DAG size.",
      "Paper (Fig 5b) restore for Grid: DSM 70, DCR 36, CCR 17;"
      " shape to check: CCR < DCR < DSM, like scale-in."};
  for (std::size_t i = 0; i < kScales.size(); ++i) {
    bench::print_header(titles[i], refs[i]);
    std::fputs(metrics::render_table({"DAG", "Strategy", "Restore(s)",
                                      "Catchup(s)", "Recovery(s)", "Drain(s)",
                                      "Rebalance(s)"},
                                     rows[i])
                   .c_str(),
               stdout);
    std::puts(papers[i]);
  }
  return 0;
}
