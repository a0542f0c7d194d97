/// \file bench_runtime_throughput.cpp
/// Throughput of the batched execution engine (src/runtime) against a naive
/// `acs::multiply` loop — the perf trajectory of the runtime layer. Two
/// workloads:
///  * repeated-pattern: an AMG-like batch, every job multiplying matrices
///    with the identical sparsity structure (values differ per job). This
///    is where the plan cache + pool arena pay: warm runs skip global load
///    balancing, start from the learned pool size (zero restarts) and reuse
///    recycled pool capacity.
///  * mixed-pattern: four structural regimes interleaved, stressing LRU
///    behaviour and per-pattern convergence.
/// The pool is deliberately under-provisioned (tight estimate) so the cold
/// runs pay the paper's restart protocol and the warm runs demonstrate the
/// feedback loop. Each workload additionally runs on a feedback-tuned
/// engine (EngineConfig::tuning = kFeedback) and reports the tuned-warm vs.
/// default-warm speedup — the auto-tuner's marginal contribution; the
/// dedicated tuner study with the gated speedup target is bench_autotune.
/// A native lane then replays the mixed workload on two engines differing
/// only in `EngineConfig::arch` — SimTitanXp vs. NativeCpu (docs/
/// BACKENDS.md). Both run the same blocks; NativeCpu only skips cost-model
/// pricing. The lane gates lane parity (bit-identical outputs and identical
/// work counters) and reports, without gating, the warm speedup pricing
/// costs the simulated lane.
/// Emits JSON (stdout + bench_out/bench_runtime_throughput.json) with
/// jobs/s, plan-cache hit rate, pool reuse bytes, restart counts and the
/// per-stage simulated-time breakdown aggregated over each batch's jobs
/// (src/trace metrics snapshots).
///
/// Run:  ./bench_runtime_throughput [jobs_per_batch] [engine_workers]
///                                  [--trace-json out.json] [--smoke]
///                                  [--native]
///   --trace-json re-runs a few repeated-pattern jobs on an engine with
///   collect_job_traces on and writes the first job's span tree as Chrome
///   trace_event JSON. The throughput gate below always measures the
///   untraced engine — tracing must stay off the benchmarked path.
///   --smoke runs only the estimator gates (CI tier-1): mixed-pattern naive
///   cold runs with sampled pool sizing (Config::pool_sizing = kSampled)
///   must cut restarts from the closed-form guess's ~80 to ≤8 with
///   bit-identical outputs, and the estimated pool must sit within [1x, 4x]
///   of the observed high-water mark for ≥90% of the suite's jobs.
///   --native runs only the native-vs-sim lane and its parity gate (the CI
///   NativeCpu lane).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch_id.hpp"
#include "core/acspgemm.hpp"
#include "matrix/coo.hpp"
#include "matrix/generators.hpp"
#include "suite/bench_runner.hpp"
#include "trace/exporters.hpp"

namespace {

using Pair = std::pair<acs::Csr<double>, acs::Csr<double>>;

/// Aggregation prolongation (as in examples/amg_galerkin.cpp): every 4
/// consecutive fine unknowns map to one coarse unknown.
acs::Csr<double> prolongation(acs::index_t fine) {
  acs::Coo<double> p;
  p.rows = fine;
  p.cols = acs::divup<acs::index_t>(fine, 4);
  for (acs::index_t i = 0; i < fine; ++i) p.push(i, i / 4, 1.0);
  return p.to_csr();
}

/// `count` jobs over one sparsity structure; values scaled per job so only
/// the structure repeats, exactly the AMG setup-per-timestep pattern.
std::vector<Pair> repeated_pattern_batch(std::size_t count) {
  const auto a = acs::gen_stencil_2d<double>(64, 64, 5);
  const auto p = prolongation(a.rows);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    auto aj = a;
    const double scale = 1.0 + 0.01 * static_cast<double>(j);
    for (auto& v : aj.values) v *= scale;
    pairs.emplace_back(std::move(aj), p);
  }
  return pairs;
}

std::vector<Pair> mixed_pattern_batch(std::size_t count) {
  std::vector<Pair> pool;
  const auto s = acs::gen_stencil_2d<double>(48, 48, 11);
  pool.emplace_back(s, s);
  const auto g = acs::gen_powerlaw<double>(1500, 1500, 6.0, 1.6, 300, 12);
  pool.emplace_back(g, g);
  const auto u = acs::gen_uniform_random<double>(1200, 1200, 8.0, 2.0, 13);
  pool.emplace_back(u, u);
  const auto d = acs::gen_block_dense<double>(600, 600, 16, 3, 14);
  pool.emplace_back(d, d);

  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (std::size_t j = 0; j < count; ++j) pairs.push_back(pool[j % pool.size()]);
  return pairs;
}

/// Tight pool estimate: cold runs restart, warm runs run off the learned
/// size (the bench_restart_sweep regime applied to batching).
acs::Config bench_config() {
  acs::Config cfg;
  cfg.pool_lower_bound_bytes = 8 << 10;
  cfg.pool_estimate_factor = 0.02;
  return cfg;
}

void emit(std::ostream& os, const acs::BatchBenchResult& r, bool last) {
  os << "    \"" << r.label << "\": {"
     << "\"jobs\": " << r.jobs << ", \"wall_s\": " << r.wall_s
     << ", \"jobs_per_s\": " << r.jobs_per_s
     << ", \"sim_time_s\": " << r.sim_time_s
     << ", \"restarts\": " << r.restarts
     << ", \"plan_hit_rate\": " << r.plan_hit_rate
     << ", \"pool_reused_bytes\": " << r.pool_reused_bytes
     << ", \"pool_fresh_bytes\": " << r.pool_fresh_bytes
     << ", \"stage_sim_s\": {";
  for (std::size_t i = 0; i < acs::trace::kNumStages; ++i)
    os << (i ? ", " : "") << "\"" << acs::trace::kStageNames[i]
       << "\": " << r.metrics.stage_sim_time_s[i];
  os << "}}" << (last ? "\n" : ",\n");
}

struct BatchReport {
  acs::BatchBenchResult naive, cold, warm, tuned_warm;

  [[nodiscard]] double warm_speedup() const {
    return naive.jobs_per_s > 0.0 ? warm.jobs_per_s / naive.jobs_per_s : 0.0;
  }
  /// Feedback-tuned engine vs. the default-config engine, both warm — the
  /// tuner's marginal contribution on top of plan caching. This workload is
  /// double-valued, so the tuner's candidate grid is scratchpad-capped at
  /// nnz_per_block = 512 (see docs/ARCHITECTURE.md); bench_autotune runs
  /// the float workload where the full grid is feasible.
  [[nodiscard]] double tuned_speedup() const {
    return warm.jobs_per_s > 0.0 ? tuned_warm.jobs_per_s / warm.jobs_per_s
                                 : 0.0;
  }
};

BatchReport run_workload(const std::vector<Pair>& pairs, unsigned workers) {
  const acs::Config cfg = bench_config();
  BatchReport rep;
  rep.naive = acs::run_naive_batch(pairs, cfg, "naive");

  acs::runtime::EngineConfig ec;
  ec.workers = workers;
  acs::runtime::Engine<double> engine(ec);
  rep.cold = acs::run_engine_batch(engine, pairs, cfg, "engine_cold");
  rep.warm = acs::run_engine_batch(engine, pairs, cfg, "engine_warm");

  acs::runtime::EngineConfig tuned_ec = ec;
  tuned_ec.tuning = acs::tune::TuningMode::kFeedback;
  acs::runtime::Engine<double> tuned(tuned_ec);
  acs::run_engine_batch(tuned, pairs, cfg, "tuned_cold");  // warm-up + tune
  rep.tuned_warm = acs::run_engine_batch(tuned, pairs, cfg, "tuned_warm");
  return rep;
}

void emit_workload(std::ostream& os, const std::string& name,
                   const BatchReport& rep, bool last) {
  os << "  \"" << name << "\": {\n";
  emit(os, rep.naive, false);
  emit(os, rep.cold, false);
  emit(os, rep.warm, false);
  emit(os, rep.tuned_warm, false);
  os << "    \"warm_speedup_vs_naive\": " << rep.warm_speedup() << ",\n"
     << "    \"tuned_speedup_vs_default\": " << rep.tuned_speedup() << "\n"
     << "  }" << (last ? "\n" : ",\n");
}

/// Native-vs-sim A/B on the mixed workload: two engines identical except
/// for `EngineConfig::arch`. Both are measured warm (second batch), where
/// plan caching has stripped the setup work both backends share and what
/// remains is block execution plus, on the simulated lane, cost-model
/// pricing. `native_threads = 1` keeps the comparison per-core honest:
/// engine workers already saturate the host, so per-job threading would
/// only add oversubscription noise.
struct NativeReport {
  acs::BatchBenchResult sim_warm, native_warm;
  bool identical = false;  ///< native outputs bit-identical to sim's
  bool counters_equal = false;  ///< native work counters equal sim's

  [[nodiscard]] double speedup() const {
    return sim_warm.jobs_per_s > 0.0
               ? native_warm.jobs_per_s / sim_warm.jobs_per_s
               : 0.0;
  }
};

NativeReport run_native_lane(const std::vector<Pair>& pairs,
                             unsigned workers) {
  const acs::Config cfg = bench_config();
  NativeReport rep;

  acs::runtime::EngineConfig sim_ec;
  sim_ec.workers = workers;
  acs::runtime::Engine<double> sim(sim_ec);
  acs::run_engine_batch(sim, pairs, cfg, "sim_cold");
  rep.sim_warm = acs::run_engine_batch(sim, pairs, cfg, "sim_warm");

  acs::runtime::EngineConfig nat_ec = sim_ec;
  nat_ec.arch = acs::arch::ArchId::kNativeCpu;
  nat_ec.native_threads = 1;
  acs::runtime::Engine<double> native(nat_ec);
  acs::run_engine_batch(native, pairs, cfg, "native_cold");
  rep.native_warm = acs::run_engine_batch(native, pairs, cfg, "native_warm");

  // One block path: spot-check the lane's distinct structures through both
  // engines — same answers and the same work counters (property-tested
  // across the generator sweep in tests/test_golden_counters.cpp).
  rep.identical = true;
  rep.counters_equal = true;
  for (std::size_t j = 0; j < std::min<std::size_t>(pairs.size(), 4); ++j) {
    const auto rs = sim.submit(pairs[j].first, pairs[j].second, cfg).result();
    const auto rn =
        native.submit(pairs[j].first, pairs[j].second, cfg).result();
    rep.identical = rep.identical && rs.c.equals_exact(rn.c);
    rep.counters_equal = rep.counters_equal &&
                         rs.stats.metrics == rn.stats.metrics &&
                         rs.stats.restarts == rn.stats.restarts;
  }
  return rep;
}

void emit_native(std::ostream& os, const NativeReport& rep, bool last) {
  os << "  \"native_lane\": {\n";
  emit(os, rep.sim_warm, false);
  emit(os, rep.native_warm, false);
  os << "    \"native_speedup_vs_sim\": " << rep.speedup() << ",\n"
     << "    \"outputs_bit_identical\": " << (rep.identical ? "true" : "false")
     << ",\n    \"counters_equal\": " << (rep.counters_equal ? "true" : "false")
     << "\n  }" << (last ? "\n" : ",\n");
}

/// The native lane's gate (also run standalone via --native): lane parity
/// — bit-identical outputs and identical work counters. The warm speedup is
/// printed, not gated: both lanes run the same blocks, so it measures only
/// what cost-model pricing costs the simulated lane (the native lane's own
/// speed is guarded end to end by the repository benchmark, perfbench/).
int gate_native(const NativeReport& rep) {
  const bool ok = rep.identical && rep.counters_equal;
  std::cerr << "native-vs-sim warm speedup (mixed, not gated): "
            << rep.speedup()
            << "x, outputs bit-identical: " << (rep.identical ? "yes" : "NO")
            << ", counters equal: " << (rep.counters_equal ? "yes" : "NO")
            << (ok ? "  [ok]" : "  [LANES DIVERGE]") << "\n";
  return ok ? 0 : 1;
}

/// The estimator acceptance gates, cheap enough for every CI run: naive
/// cold multiplications only, no engine. Returns the process exit code.
int run_smoke(std::size_t jobs) {
  const acs::Config closed = bench_config();
  acs::Config sampled = closed;
  sampled.pool_sizing = acs::PoolSizing::kSampled;

  // Gate 1 — restart reduction on the mixed-pattern workload: identical
  // under-provisioned lower bound, only the cold sizing differs. The
  // restart protocol is bit-stable, so the outputs must not move at all.
  std::size_t closed_restarts = 0, sampled_restarts = 0;
  bool identical = true;
  std::vector<double> ratios;  // estimate / observed high-water, per job
  const auto run_pairs = [&](const std::vector<Pair>& pairs) {
    for (const auto& [a, b] : pairs) {
      acs::SpgemmStats sc, ss;
      const auto c1 = acs::multiply(a, b, closed, &sc);
      const auto c2 = acs::multiply(a, b, sampled, &ss);
      closed_restarts += static_cast<std::size_t>(std::max(0, sc.restarts));
      sampled_restarts += static_cast<std::size_t>(std::max(0, ss.restarts));
      identical = identical && c1.equals_exact(c2);
      if (ss.pool_used_bytes > 0)
        ratios.push_back(static_cast<double>(ss.pool_estimate_bytes) /
                         static_cast<double>(ss.pool_used_bytes));
    }
  };
  run_pairs(mixed_pattern_batch(jobs));
  const std::size_t mixed_closed = closed_restarts;
  const std::size_t mixed_sampled = sampled_restarts;
  // Gate 2 — estimate accuracy across the bench suite (both workloads):
  // the estimator-sized pool within [1x, 4x] of the observed high-water
  // mark for at least 90% of jobs.
  run_pairs(repeated_pattern_batch(std::min<std::size_t>(jobs, 8)));
  std::size_t in_range = 0;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    if (ratios[i] >= 1.0 && ratios[i] <= 4.0)
      ++in_range;
    else
      std::cerr << "  job " << i << " estimate/high-water ratio " << ratios[i]
                << " outside [1, 4]\n";
  }
  const double frac =
      ratios.empty() ? 0.0
                     : static_cast<double>(in_range) /
                           static_cast<double>(ratios.size());

  const bool restarts_ok = mixed_sampled <= 8;
  const bool ratio_ok = frac >= 0.9;
  std::cerr << "mixed-pattern cold restarts: closed-form=" << mixed_closed
            << " sampled=" << mixed_sampled
            << (restarts_ok ? "  [ok]" : "  [ABOVE TARGET]") << "\n"
            << "outputs bit-identical: " << (identical ? "yes" : "NO")
            << "\nestimate/high-water within [1x,4x]: " << in_range << "/"
            << ratios.size() << (ratio_ok ? "  [ok]" : "  [BELOW TARGET]")
            << "\n";
  return restarts_ok && ratio_ok && identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool smoke = false;
  bool native_only = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace-json" && i + 1 < argc)
      trace_path = argv[++i];
    else if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else if (std::string(argv[i]) == "--native")
      native_only = true;
    else
      positional.push_back(argv[i]);
  }
  if (smoke)
    return run_smoke(positional.empty()
                         ? 16
                         : static_cast<std::size_t>(std::atoll(positional[0])));
  const std::size_t jobs =
      positional.size() > 0 ? static_cast<std::size_t>(std::atoll(positional[0])) : 32;
  const unsigned workers =
      positional.size() > 1
          ? static_cast<unsigned>(std::atoi(positional[1]))
          : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  if (native_only)
    return gate_native(run_native_lane(mixed_pattern_batch(jobs), workers));

  const BatchReport repeated = run_workload(repeated_pattern_batch(jobs), workers);
  const BatchReport mixed = run_workload(mixed_pattern_batch(jobs), workers);
  const NativeReport native = run_native_lane(mixed_pattern_batch(jobs), workers);

  std::ostringstream json;
  json << "{\n  \"bench\": \"runtime_throughput\", \"jobs_per_batch\": " << jobs
       << ", \"engine_workers\": " << workers << ",\n";
  emit_workload(json, "repeated_pattern", repeated, false);
  emit_workload(json, "mixed_pattern", mixed, false);
  emit_native(json, native, true);
  json << "}\n";

  std::cout << json.str();
  std::ofstream(acs::bench_out_path("bench_runtime_throughput.json"))
      << json.str();

  if (!trace_path.empty()) {
    // Separate traced run — never the one the gate below measures.
    acs::runtime::EngineConfig ec;
    ec.workers = workers;
    ec.collect_job_traces = true;
    acs::runtime::Engine<double> traced(ec);
    const auto results =
        traced.multiply_batch(repeated_pattern_batch(4), bench_config());
    if (!results.empty() && results.front().trace) {
      std::ofstream(trace_path)
          << acs::trace::to_chrome_json(*results.front().trace);
      std::cerr << "wrote " << trace_path << " (first traced job, Chrome "
                << "trace_event JSON — open in Perfetto)\n";
    }
  }

  // The PR's acceptance criteria, checked where the numbers are produced:
  // warm engine >= 1.5x naive jobs/s with zero restarts after warm-up, and
  // the native lane's parity gate.
  const bool ok =
      repeated.warm_speedup() >= 1.5 && repeated.warm.restarts == 0;
  std::cerr << "repeated-pattern warm speedup: " << repeated.warm_speedup()
            << "x, warm restarts: " << repeated.warm.restarts
            << (ok ? "  [ok]" : "  [BELOW TARGET]") << "\n";
  const int native_rc = gate_native(native);
  return ok && native_rc == 0 ? 0 : 1;
}
