/// Golden counter dump: every deterministic `SpgemmStats` field of the
/// AC-SpGEMM pipeline, pinned bit for bit.
///
/// `data/golden_counters.txt` was captured from the pipeline while ESC and
/// merge still ran two block implementations (a simulated one that charged
/// counters item by item and a native one that charged nothing). Both lanes
/// now run one block implementation that charges closed forms, so:
///  (a) the SimTitanXp lane must reproduce the dump exactly — counters,
///      simulated stage times, multiprocessor load, iteration / chunk /
///      merge / restart counts and a hash of C;
///  (b) the NativeCpu lane must charge the same counters field for field
///      and produce a bit-identical C (it only skips cost-model pricing).
///
/// Inputs: the differential generator sweep, test-size analogues of the 16
/// showcase matrices, small-block configurations that force Path and Search
/// merge (with and without long rows of B), the static-bits / no-retain /
/// no-long-row ablations, and deny-Nth fault injection that forces
/// restarts. Each runs in float and double.
///
/// On a mismatch the test writes the full dump it computed to
/// `golden_counters.actual.txt` in the working directory; diff it against
/// the checked-in file to see which field moved.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "core/acspgemm.hpp"
#include "fault/policies.hpp"
#include "matrix/generators.hpp"
#include "matrix/transpose.hpp"
#include "suite/suite.hpp"

#ifndef ACS_TEST_DATA_DIR
#error "ACS_TEST_DATA_DIR must point at tests/data"
#endif

namespace acs {
namespace {

/// One golden input: operands are built per precision on demand.
struct GoldenCase {
  std::string name;
  std::function<Csr<double>()> a;  ///< converted to float for the f lines
  bool transpose_b = false;        ///< B = Aᵀ instead of A
  Config cfg;
  /// Deny-Nth fault injection: N is this fraction of the way through the
  /// clean run's allocation attempts (1.0 = the last attempt, a merge
  /// window's chunk when the run merges).
  std::optional<double> deny_at;
};

template <class T>
Csr<T> convert(const Csr<double>& m) {
  if constexpr (std::is_same_v<T, double>) {
    return m;
  } else {
    Csr<T> out;
    out.rows = m.rows;
    out.cols = m.cols;
    out.row_ptr = m.row_ptr;
    out.col_idx = m.col_idx;
    out.values.reserve(m.values.size());
    for (double v : m.values) out.values.push_back(static_cast<T>(v));
    return out;
  }
}

/// Test-size analogue of a showcase entry: same generator and regime,
/// roughly an eighth of the rows.
SuiteEntry shrink(SuiteEntry e) {
  GenSpec& g = e.spec;
  switch (g.kind) {
    case GenSpec::Kind::Stencil2D:
      g.rows /= 4;
      g.cols /= 4;
      break;
    case GenSpec::Kind::Stencil3D:
      g.p1 /= 8;  // nz
      break;
    case GenSpec::Kind::Banded:
      g.rows /= 8;
      break;
    case GenSpec::Kind::BlockDense:
      g.rows = std::max<index_t>(g.rows / 4, 16);
      g.cols /= 4;
      g.p1 /= 4;
      break;
    case GenSpec::Kind::UniformWithLongRows:
      g.rows /= 8;
      g.cols /= 8;
      g.p2 = std::min(g.p2, g.cols / 2);  // still past the long-row threshold
      break;
    default:
      g.rows = std::max<index_t>(g.rows / 8, 16);
      g.cols = std::max<index_t>(g.cols / 8, 16);
      if (g.kind == GenSpec::Kind::UniformLocal) g.p1 /= 8;
      if (g.avg > g.cols / 2.0) g.avg = g.cols / 2.0;
      break;
  }
  return e;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  auto add = [&](std::string name, std::function<Csr<double>()> a,
                 Config cfg = {}, bool transpose_b = false,
                 std::optional<double> deny = std::nullopt) {
    cases.push_back({std::move(name), std::move(a), transpose_b, cfg, deny});
  };

  // Differential generator sweep (tests/test_differential.cpp's inputs).
  add("gen.uniform",
      [] { return gen_uniform_random<double>(300, 300, 6.0, 2.0, 101); });
  add("gen.local",
      [] { return gen_uniform_local<double>(300, 300, 8.0, 2.0, 40, 102); });
  add("gen.powerlaw",
      [] { return gen_powerlaw<double>(300, 300, 5.0, 1.6, 120, 103); });
  add("gen.banded", [] { return gen_banded<double>(256, 4, 104); });
  add("gen.stencil2d", [] { return gen_stencil_2d<double>(20, 20, 105); });
  add("gen.stencil3d", [] { return gen_stencil_3d<double>(8, 8, 8, 106); });
  add("gen.blockdense",
      [] { return gen_block_dense<double>(200, 200, 12, 2, 107); });
  add("gen.rect_AxAt",
      [] { return gen_uniform_random<double>(220, 150, 5.0, 2.0, 121); }, {},
      true);
  for (int npb : {32, 64, 128}) {
    Config cfg;
    cfg.nnz_per_block = npb;
    add("gen.powerlaw.npb" + std::to_string(npb),
        [] { return gen_powerlaw<double>(300, 300, 6.0, 1.5, 120, 131); }, cfg);
  }
  {
    Config tiny;
    tiny.threads = 32;
    tiny.elements_per_thread = 4;
    tiny.retain_per_thread = 2;
    add("gen.powerlaw.tiny_block",
        [] { return gen_powerlaw<double>(300, 300, 6.0, 1.5, 120, 131); }, tiny);
  }

  // Showcase analogues at test sizes (non-square entries compute A·Aᵀ).
  for (const SuiteEntry& entry : showcase_suite()) {
    const SuiteEntry small = shrink(entry);
    add("showcase." + entry.name,
        [small] { return build_matrix<double>(small); }, {}, !small.square);
  }

  // Long rows split across many small blocks: Path and Search merge, and
  // pointer chunks of long B rows shared between blocks.
  {
    Config path;
    path.nnz_per_block = 16;
    add("merge.path",
        [] { return gen_uniform_random<double>(120, 120, 60.0, 8.0, 141); },
        path);
    Config search = path;
    search.path_merge_max_chunks = 2;
    add("merge.search",
        [] { return gen_uniform_random<double>(120, 120, 60.0, 8.0, 142); },
        search);
    Config long_small;
    long_small.nnz_per_block = 32;
    long_small.long_row_threshold = 64;
    add("merge.long_rows_small_blocks",
        [] {
          return inject_long_rows(
              gen_uniform_random<double>(200, 200, 4.0, 1.0, 222), 3, 1200, 223);
        },
        long_small);
  }

  // Ablations that change the key codec, carrying and long-row handling.
  {
    Config static_bits;
    static_bits.dynamic_bits = false;
    add("ablation.static_bits",
        [] { return gen_powerlaw<double>(300, 300, 5.0, 1.6, 120, 151); },
        static_bits);
    Config no_retain;
    no_retain.retain_per_thread = 0;
    no_retain.nnz_per_block = 64;
    add("ablation.no_retain",
        [] { return gen_powerlaw<double>(300, 300, 6.0, 1.5, 120, 152); },
        no_retain);
    Config no_long;
    no_long.long_row_handling = false;
    add("ablation.no_long_rows",
        [] {
          return inject_long_rows(
              gen_uniform_random<double>(200, 200, 4.0, 1.0, 153), 3, 1200, 154);
        },
        no_long);
  }

  // Injected pool denials: restarts during ESC and during merge.
  for (const auto& [label, at] : {std::pair{"first", 0.0}, {"third", 1.0 / 3},
                                  {"two_thirds", 2.0 / 3}, {"last", 1.0}}) {
    Config cfg;
    cfg.nnz_per_block = 32;
    cfg.long_row_threshold = 64;
    add(std::string("fault.deny_") + label,
        [] {
          return inject_long_rows(
              gen_powerlaw<double>(300, 300, 6.0, 1.5, 120, 161), 2, 900, 162);
        },
        cfg, false, at);
  }
  return cases;
}

template <class T>
std::uint64_t hash_csr(const Csr<T>& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(c.rows));
  mix(static_cast<std::uint64_t>(c.cols));
  for (auto p : c.row_ptr) mix(static_cast<std::uint64_t>(p));
  for (auto col : c.col_idx) mix(static_cast<std::uint64_t>(col));
  for (T v : c.values) {
    if constexpr (sizeof(T) == 8)
      mix(std::bit_cast<std::uint64_t>(v));
    else
      mix(std::bit_cast<std::uint32_t>(v));
  }
  return h;
}

std::string hex_bits(double d) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(d)));
  return buf;
}

/// One dump line: every deterministic SpgemmStats field (wall time is the
/// only one left out) plus the hash of C.
std::string render(const std::string& name, const SpgemmStats& s,
                   std::uint64_t c_hash) {
  std::ostringstream o;
  const sim::MetricCounters& m = s.metrics;
  o << name << " gco=" << m.global_bytes_coalesced
    << " gsc=" << m.global_bytes_scattered << " scr=" << m.scratch_ops
    << " sort=" << m.sort_pass_elements << " scan=" << m.scan_elements
    << " hash=" << m.hash_probes << " atom=" << m.atomic_ops
    << " flops=" << m.flops << " comp=" << m.compute_ops
    << " sim=" << hex_bits(s.sim_time_s)
    << " mpl=" << hex_bits(s.multiprocessor_load) << " stages=";
  for (std::size_t i = 0; i < s.stage_times_s.size(); ++i)
    o << (i ? "," : "") << s.stage_times_s[i].first << ':'
      << hex_bits(s.stage_times_s[i].second);
  o << " iters=" << s.esc_iterations << " chunks=" << s.chunks_created
    << " long=" << s.long_row_chunks << " merged=" << s.merged_rows
    << " restarts=" << s.restarts << " denials=" << s.pool_denials
    << " pool=" << s.pool_bytes << " used=" << s.pool_used_bytes
    << " est=" << s.pool_estimate_bytes << " helper=" << s.helper_bytes
    << " ip=" << s.intermediate_products << " glb_reused=" << s.glb_reused
    << " c=" << std::hex << c_hash;
  return o.str();
}

struct LaneRun {
  SpgemmStats stats;
  std::uint64_t c_hash = 0;
  std::string c_error;  ///< non-empty if C differs from the reference
};

template <class T>
LaneRun run_lane(const GoldenCase& gc, const Csr<T>& a, const Csr<T>& b,
                 bool native, unsigned threads, const Csr<T>* reference,
                 Csr<T>* keep) {
  Config cfg = gc.cfg;
  cfg.scheduler_threads = threads;
  if (native) {
    cfg.exec = arch::ExecKind::kNative;
    cfg.device = arch::device_config<arch::NativeCpu>();
  }
  std::optional<fault::DenyNthPolicy> deny;
  if (gc.deny_at) {
    fault::CountingPolicy counting;
    Config clean = cfg;
    clean.alloc_policy = &counting;
    (void)multiply(a, b, clean);
    const auto last = static_cast<double>(counting.attempts() - 1);
    deny.emplace(static_cast<std::uint64_t>(*gc.deny_at * last));
    cfg.alloc_policy = &*deny;
  }
  LaneRun run;
  Csr<T> c = multiply(a, b, cfg, &run.stats);
  run.c_hash = hash_csr(c);
  if (reference && !c.equals_exact(*reference)) run.c_error = "C differs";
  if (keep) *keep = std::move(c);
  return run;
}

const char* tag_of(float) { return "f"; }
const char* tag_of(double) { return "d"; }

/// Fault cases replay deterministically only on one scheduler thread: the
/// denied attempt index depends on the order blocks allocate in.
std::vector<unsigned> thread_counts(const GoldenCase& gc) {
  if (gc.deny_at) return {1};
  return {1, 4};
}

std::vector<std::string> read_golden() {
  std::ifstream in(ACS_TEST_DATA_DIR "/golden_counters.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  return lines;
}

void write_actual(const std::vector<std::string>& lines) {
  std::ofstream out("golden_counters.actual.txt");
  out << "# AC-SpGEMM golden counters (tests/test_golden_counters.cpp)\n";
  for (const auto& l : lines) out << l << '\n';
}

template <class T>
void sim_lines(const GoldenCase& gc, std::vector<std::string>& out) {
  const Csr<T> a = convert<T>(gc.a());
  const Csr<T> b = gc.transpose_b ? transpose(a) : a;
  Csr<T> c1;
  const std::string name = gc.name + "." + tag_of(T{});
  const LaneRun one = run_lane<T>(gc, a, b, false, 1, nullptr, &c1);
  out.push_back(render(name, one.stats, one.c_hash));
  for (unsigned threads : thread_counts(gc)) {
    if (threads == 1) continue;
    const LaneRun many = run_lane<T>(gc, a, b, false, threads, &c1, nullptr);
    EXPECT_EQ(many.c_error, "") << name << " sim x" << threads;
    EXPECT_EQ(render(name, many.stats, many.c_hash), out.back())
        << name << ": sim stats depend on the scheduler thread count";
  }
}

TEST(NativeGolden, SimTitanXpLaneReproducesTheGoldenDump) {
  std::vector<std::string> actual;
  for (const GoldenCase& gc : golden_cases()) {
    sim_lines<float>(gc, actual);
    sim_lines<double>(gc, actual);
  }
  const std::vector<std::string> golden = read_golden();
  const bool match = golden == actual;
  if (!match) write_actual(actual);
  ASSERT_EQ(golden.size(), actual.size())
      << "case list and golden file disagree (actual dump written to "
         "golden_counters.actual.txt)";
  for (std::size_t i = 0; i < golden.size(); ++i)
    EXPECT_EQ(actual[i], golden[i]) << "line " << i;
}

TEST(NativeGolden, DumpCoversRestartsMergeKindsAndLongRows) {
  // The dump is only as strong as the paths its inputs reach.
  bool path = false, search = false, long_rows = false;
  bool esc_restart = false, merge_restart = false;
  for (const GoldenCase& gc : golden_cases()) {
    const Csr<double> a = gc.a();
    const Csr<double> b = gc.transpose_b ? transpose(a) : a;
    const LaneRun r = run_lane<double>(gc, a, b, false, 1, nullptr, nullptr);
    path |= r.stats.stage_time("PM") > 0.0;
    search |= r.stats.stage_time("SM") > 0.0;
    long_rows |= r.stats.long_row_chunks > 0;
    // A restart relaunches its stage: the stage's entry repeats.
    std::map<std::string, int> launches;
    for (const auto& [stage, t] : r.stats.stage_times_s) ++launches[stage];
    esc_restart |= launches["ESC"] > 1;
    merge_restart |= launches["MM"] > 1 || launches["PM"] > 1 ||
                     launches["SM"] > 1;
    if (gc.deny_at) {
      EXPECT_GT(r.stats.restarts, 0) << gc.name << " injected no restart";
    }
  }
  EXPECT_TRUE(path);
  EXPECT_TRUE(search);
  EXPECT_TRUE(long_rows);
  EXPECT_TRUE(esc_restart);
  EXPECT_TRUE(merge_restart);
}

template <class T>
void expect_lanes_agree(const GoldenCase& gc) {
  const Csr<T> a = convert<T>(gc.a());
  const Csr<T> b = gc.transpose_b ? transpose(a) : a;
  const std::string name = gc.name + "." + tag_of(T{});
  Csr<T> c_sim;
  const LaneRun sim = run_lane<T>(gc, a, b, false, 1, nullptr, &c_sim);
  for (unsigned threads : thread_counts(gc)) {
    const LaneRun nat = run_lane<T>(gc, a, b, true, threads, &c_sim, nullptr);
    const std::string where = name + " native x" + std::to_string(threads);
    EXPECT_EQ(nat.c_error, "") << where;
    const sim::MetricCounters& x = sim.stats.metrics;
    const sim::MetricCounters& y = nat.stats.metrics;
    EXPECT_EQ(y.global_bytes_coalesced, x.global_bytes_coalesced) << where;
    EXPECT_EQ(y.global_bytes_scattered, x.global_bytes_scattered) << where;
    EXPECT_EQ(y.scratch_ops, x.scratch_ops) << where;
    EXPECT_EQ(y.sort_pass_elements, x.sort_pass_elements) << where;
    EXPECT_EQ(y.scan_elements, x.scan_elements) << where;
    EXPECT_EQ(y.hash_probes, x.hash_probes) << where;
    EXPECT_EQ(y.atomic_ops, x.atomic_ops) << where;
    EXPECT_EQ(y.flops, x.flops) << where;
    EXPECT_EQ(y.compute_ops, x.compute_ops) << where;
    EXPECT_EQ(nat.stats.esc_iterations, sim.stats.esc_iterations) << where;
    EXPECT_EQ(nat.stats.chunks_created, sim.stats.chunks_created) << where;
    EXPECT_EQ(nat.stats.merged_rows, sim.stats.merged_rows) << where;
    EXPECT_EQ(nat.stats.restarts, sim.stats.restarts) << where;
    EXPECT_EQ(nat.stats.sim_time_s, 0.0) << where;
  }
}

TEST(NativeGolden, NativeCpuLaneChargesTheSimLanesCountersWithIdenticalC) {
  for (const GoldenCase& gc : golden_cases()) {
    expect_lanes_agree<float>(gc);
    expect_lanes_agree<double>(gc);
  }
}

}  // namespace
}  // namespace acs
