// Table-8-at-scale: legitimacy convergence beyond the paper's 208-node
// ceiling. The paper's Table 8 stops at EBONE (208 switches); this bench
// bootstraps the control plane on datacenter Clos fabrics (fat-tree k=8 and
// k=16, 80/320 switches) and a 1,024-node preferential-attachment WAN, and
// reports time-to-legitimacy per fabric.
//
//   bench_table8_scale [--quick] [--json FILE] [--trials N]
//
// The connectivity path is also audited here: before each bootstrap the
// bench runs edge_connectivity() on the fabric under a global operator-new
// probe (alloc_probe.hpp) and fails if any single allocation reaches n*n
// bytes — the footprint of a dense residual matrix, which the sparse
// max-flow (SparseMaxFlow) replaced. On the 1k-node WAN a dense residual
// would be a 2 MiB contiguous block; the sparse path peaks in the tens of
// kilobytes.
//
// After the first bootstrap of each fabric, a compile probe times
// RuleCompiler::compile against its oracle, compile_oracle, on the converged
// true view for every controller, and checks the outputs are identical
// (compile_speedup / compile_identical in the JSON).
//
// Acceptance: every fabric (including fat-tree k=16 and the >= 1,000-node
// WAN) converges to a legitimate state, with no dense-sized allocation in
// the connectivity audit and compile output identical to the oracle. --quick (CI) runs one trial per fabric; the full
// run takes the median of three seeds. Writes BENCH_table8_scale.json.
#include <chrono>
#include <cinttypes>

#include "alloc_probe.hpp"
#include "bench_common.hpp"

namespace {

using namespace ren;
using Clock = std::chrono::steady_clock;

/// The fabrics under test, smallest first so a scaling failure surfaces
/// after the cheap rows already printed. Clos is the paper's own datacenter
/// fabric — the anchor row connecting this table to Table 8.
const char* const kFabrics[] = {
    "Clos",
    "fat_tree:k=8",
    "fat_tree:k=16",
    "random_wan:nodes=1024,m=2,seed=1",
};

struct FabricRow {
  std::string spec;
  int nodes = 0;
  std::size_t links = 0;
  int diameter = 0;
  int lambda = 0;  ///< edge connectivity of the fabric
  int kappa = 0;   ///< resilience parameter used for the bootstrap
  std::uint64_t connectivity_allocs = 0;
  std::uint64_t connectivity_max_alloc = 0;  ///< largest single allocation
  std::uint64_t dense_residual_bytes = 0;    ///< n*n — the removed footprint
  bool alloc_ok = false;
  bool converged = false;
  double boot_sim_s = 0;   ///< median simulated seconds to legitimacy
  double boot_wall_s = 0;  ///< median wall seconds per trial
  double compile_s = 0;    ///< compile() wall seconds, all controllers
  double oracle_s = 0;     ///< compile_oracle() wall seconds, same inputs
  double compile_speedup = 0;
  bool compile_identical = false;
};

/// The fast timer profile (sim::fast_profile) with 3 controllers:
/// time-to-legitimacy in *simulated* seconds is what the table reports, and
/// it is timer-rate independent down to the detection granularity; paper
/// timers would burn hours of wall clock simulating idle waits on the
/// 1k-node fabrics.
sim::ExperimentConfig scale_config(const std::string& spec, int kappa,
                                   std::uint64_t seed) {
  sim::ExperimentConfig cfg = sim::fast_profile(spec);
  cfg.controllers = 3;
  cfg.kappa = kappa;
  cfg.seed = seed;
  return cfg;
}

/// edge_connectivity() under the allocation probe. Fails the row when any
/// single allocation is as large as the dense n x n residual would be.
void audit_connectivity(FabricRow& row, const flows::Graph& g) {
  using namespace bench;
  g_probe_allocs.store(0, std::memory_order_relaxed);
  g_probe_max_bytes.store(0, std::memory_order_relaxed);
  g_probe.store(true, std::memory_order_relaxed);
  row.lambda = g.edge_connectivity();
  g_probe.store(false, std::memory_order_relaxed);
  row.connectivity_allocs = g_probe_allocs.load(std::memory_order_relaxed);
  row.connectivity_max_alloc =
      g_probe_max_bytes.load(std::memory_order_relaxed);
  const auto n = static_cast<std::uint64_t>(g.n());
  row.dense_residual_bytes = n * n;
  // The sparse path's own working set (CSR arrays, O(links)) can exceed
  // n*n on fabrics smaller than ~64 nodes, where the audit is vacuous
  // anyway — the 4 KiB floor keeps those rows from false-failing while the
  // at-scale rows (k=16: 100 KiB dense, WAN: 1 MiB dense) stay strict.
  row.alloc_ok = row.connectivity_max_alloc <
                 std::max<std::uint64_t>(row.dense_residual_bytes, 4096);
}

/// Times compile() against compile_oracle() on the converged true view,
/// once per controller, and checks that the outputs are identical.
void probe_compile(sim::Experiment& exp, FabricRow& row) {
  const flows::TopoView& truth = exp.monitor().true_view();
  std::map<NodeId, bool> transit;
  for (auto* sw : exp.switches()) transit.insert({sw->id(), true});
  for (auto* c : exp.controllers()) transit.insert({c->id(), false});
  const flows::RuleCompiler compiler({row.kappa});
  row.compile_identical = true;
  for (auto* c : exp.controllers()) {
    const auto t0 = Clock::now();
    const auto fast = compiler.compile(truth, c->id(), transit);
    const auto t1 = Clock::now();
    const auto oracle = compiler.compile_oracle(truth, c->id(), transit);
    const auto t2 = Clock::now();
    row.compile_s += std::chrono::duration<double>(t1 - t0).count();
    row.oracle_s += std::chrono::duration<double>(t2 - t1).count();
    if (!flows::identical_flows(*fast, *oracle)) row.compile_identical = false;
  }
  row.compile_speedup = row.compile_s > 0 ? row.oracle_s / row.compile_s : 0;
}

bool run_fabric(const std::string& spec, int trials, FabricRow& row) {
  row.spec = spec;
  const topo::Topology t = topo::resolve(spec);
  row.nodes = t.switch_graph.n();
  row.links = t.switch_graph.edge_count();
  row.diameter = t.expected_diameter;
  audit_connectivity(row, t.switch_graph);
  // The fabric caps the usable resilience: a kappa-fault-resilient flow
  // needs kappa+1 edge-disjoint paths, so kappa <= lambda - 1. The paper's
  // kappa = 2 is kept wherever the fabric supports it (the WAN is
  // 2-edge-connected by construction, so it bootstraps at kappa = 1).
  row.kappa = std::min(2, row.lambda - 1);
  if (row.kappa < 0) return false;  // disconnected fabric: report, don't run

  Sample sim_s, wall_s;
  for (int trial = 0; trial < trials; ++trial) {
    sim::Experiment exp(
        scale_config(spec, row.kappa, bench::kBaseSeed + trial));
    const auto t0 = Clock::now();
    const auto boot = exp.run_until_legitimate(sec(600));
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!boot.converged) {
      std::printf("%-34s trial %d did not converge: %s\n", spec.c_str(),
                  trial, boot.last_reason.c_str());
      return false;
    }
    // Check the monitor's lambda - 1 on the full control-plane graph
    // (fabric + controller attachment links): a fabric that just converged
    // at row.kappa must support it.
    if (exp.monitor().achievable_kappa() < row.kappa) {
      std::printf("%-34s monitor reports achievable kappa %d < %d used\n",
                  spec.c_str(), exp.monitor().achievable_kappa(), row.kappa);
      return false;
    }
    sim_s.add(boot.seconds);
    wall_s.add(wall);
    if (trial == 0) probe_compile(exp, row);
  }
  row.converged = true;
  row.boot_sim_s = sim_s.median();
  row.boot_wall_s = wall_s.median();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonBenchArgs args = bench::json_bench_args(
      argc, argv, "BENCH_table8_scale.json", /*takes_trials=*/true);
  const bool quick = args.quick;
  int trials = args.trials;
  if (trials == 0) trials = quick ? 1 : 3;

  bench::print_header(
      "Table 8 at scale — time to legitimacy on 80..1280-node fabrics",
      "Table 8 methodology on fat-tree k=8/16 and a 1k-node random WAN");
  std::printf("%-34s %6s %6s %4s %7s %6s %10s %10s %11s %9s\n", "fabric",
              "nodes", "links", "diam", "lambda", "kappa", "boot (s)",
              "wall (s)", "max alloc", "compile");

  bool all_pass = true;
  scenario::Json rows{scenario::JsonArray{}};
  for (const char* spec : kFabrics) {
    FabricRow row;
    if (!run_fabric(spec, trials, row)) all_pass = false;
    if (!row.alloc_ok || !row.compile_identical) all_pass = false;
    std::printf("%-34s %6d %6zu %4d %7d %6d %10.2f %10.2f %9" PRIu64
                " B %8.1fx%s%s\n",
                row.spec.c_str(), row.nodes, row.links, row.diameter,
                row.lambda, row.kappa, row.boot_sim_s, row.boot_wall_s,
                row.connectivity_max_alloc, row.compile_speedup,
                row.alloc_ok ? "" : "  << DENSE-SIZED ALLOCATION",
                row.compile_identical ? "" : "  << COMPILE != ORACLE");

    scenario::Json rj;
    rj.set("spec", row.spec);
    rj.set("nodes", row.nodes);
    rj.set("links", static_cast<double>(row.links));
    rj.set("diameter", row.diameter);
    rj.set("lambda", row.lambda);
    rj.set("kappa", row.kappa);
    rj.set("converged", row.converged);
    rj.set("boot_sim_s", row.boot_sim_s);
    rj.set("boot_wall_s", row.boot_wall_s);
    rj.set("connectivity_allocs", static_cast<double>(row.connectivity_allocs));
    rj.set("connectivity_max_alloc_bytes",
           static_cast<double>(row.connectivity_max_alloc));
    rj.set("dense_residual_bytes",
           static_cast<double>(row.dense_residual_bytes));
    rj.set("alloc_ok", row.alloc_ok);
    rj.set("compile_s", row.compile_s);
    rj.set("oracle_s", row.oracle_s);
    rj.set("compile_speedup", row.compile_speedup);
    rj.set("compile_identical", row.compile_identical);
    rows.push_back(std::move(rj));
  }

  scenario::Json doc;
  doc.set("bench", "table8_scale");
  doc.set("mode", quick ? "quick" : "full");
  doc.set("trials", trials);
  doc.set("pass", all_pass);
  doc.set("fabrics", std::move(rows));
  bench::write_json(doc, args.json_path);

  std::printf("%s\n", all_pass
                          ? "PASS (all fabrics legitimate, sparse-sized "
                            "allocations only, compile == oracle)"
                          : "FAIL (see rows above)");
  return all_pass ? 0 : 1;
}
