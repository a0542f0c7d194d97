#pragma once
/// \file bench.hpp
/// Shared declarations of the repository benchmark program: the workload
/// inputs (workloads.cpp), the correctness checks that are built apart from
/// the library (checks.cpp), and the process probes and the in-memory span
/// log (probes.cpp). main.cpp drives the lanes and prints the result.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "matrix/csr.hpp"

namespace pb {

using Mat = acs::Csr<double>;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------------

/// One multiplication of a workload. Operands are either stored (`a`, `b`)
/// or, in a Galerkin chain, taken from the output of an earlier job of the
/// same pass (`a_from` / `b_from` >= 0).
struct Job {
  std::string name;
  Mat a;
  Mat b;
  int a_from = -1;
  int b_from = -1;
  /// Stored `a` is the level-0 operator whose values each time step
  /// rescales (amg_serve); every output of the chain scales with it.
  bool scaled_input = false;
  /// Pᵀ·(A·P) product: checked for sum and symmetry against `sum_of`.
  bool galerkin = false;
  int sum_of = -1;  ///< job whose stored/derived `a` is the fine operator
  int chain = 0;    ///< amg_serve: hierarchy (= tenant) index
  acs::Config cfg;
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// Groups of jobs submitted together in a throughput pass; a group waits
  /// for the previous one (Galerkin chains). Independent jobs form a single
  /// group.
  std::vector<std::vector<int>> waves;
  bool serve = false;        ///< run through serve::Server
  /// Engine workers per lane. Only one lane is active at a time, so a run
  /// never has more runnable threads than this plus the driving thread.
  unsigned workers = 2;
  bool fresh_engines = false;  ///< build new engines for every pass
  /// Value scale of time step `t` (power of two, so scaled results are
  /// exactly the scaled first result).
  [[nodiscard]] double scale(std::size_t step) const;
};

/// Build the named workload's inputs from `seed`; throws on unknown names.
Workload make_workload(const std::string& name, std::uint64_t seed);

// --- Correctness checks --------------------------------------------------------

/// Everything a result is checked against, computed once per distinct job
/// outside the timed windows, at value scale 1.
struct Reference {
  Mat c;                        ///< Gustavson product
  std::vector<double> c_abs;    ///< |A|·|B| per entry of c (error scale)
  std::int64_t products = 0;    ///< Σ nnz(B_k) over A's entries
  std::vector<double> x;        ///< seeded probe vector
  std::vector<double> y;        ///< A·(B·x)
  std::vector<double> y_abs;    ///< |A|·(|B|·|x|)
  double sum_a = 0.0;           ///< galerkin: sum / |sum| of the fine A
  double abs_sum_a = 0.0;
  bool symmetric_a = false;
};

/// Relative tolerance of value comparisons, applied to |A|·|B| magnitudes.
inline constexpr double kRelTol = 1e-9;

Reference make_reference(const Mat& a, const Mat& b, std::uint64_t seed);
void set_galerkin_fine(Reference& ref, const Mat& fine);
/// Empty when `c` matches the reference structure exactly and its values
/// within kRelTol; otherwise the first mismatch.
std::string check_reference(const Mat& c, const Reference& r);
/// C·x against scale·A·(B·x).
std::string check_probe(const Mat& c, const Reference& r, double scale);
std::string check_products(std::int64_t measured, const Reference& r);
/// Sum of Pᵀ·A·P equals sum(A) (times scale); symmetric when A is.
std::string check_galerkin(const Mat& c, const Reference& r, double scale);
/// Bit-identity with the first verified result, times an exact power of two.
bool equals_scaled(const Mat& c, const Mat& first, double scale);
/// Corrupt copies of a verified result (one value changed, one entry
/// dropped) must fail every check; returns the checks that did not fail.
std::vector<std::string> self_test(const Mat& c, const Reference& r,
                                   bool galerkin);

// --- Process probes and spans ----------------------------------------------------

struct HeapCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
HeapCounts heap_counts();

struct Usage {
  double peak_rss_mib = 0.0;
  std::uint64_t minor_faults = 0;
};
Usage usage_now();

/// Milliseconds of a fixed integer loop: host drift, not program speed.
double calib_ms();

/// Sleep until the process uses (almost) no CPU: background work the
/// library started (the server's tuner thread) has finished. Gives up
/// after 10 s.
void wait_until_idle();

/// In-memory span log written once when the run ends. Spans of one job
/// share `job`; `parent` is an index into the log or -1.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::int64_t job = -1;
  int lane = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const { return seconds_since(epoch_); }
  int add(std::string name, double start_s, double end_s, int parent,
          std::int64_t job, int lane);
  /// Close span `id` now (spans added with an open end).
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = now();
  }
  /// Sum of each span name's self time: duration minus the part covered by
  /// its direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace pb
